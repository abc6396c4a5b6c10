#include "report/export.hpp"

#include <cstdio>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace bf::report {
namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void export_series_csv(const std::string& path,
                       const std::vector<Series>& series) {
  BF_CHECK_MSG(!series.empty(), "no series to export");
  const std::size_t n = series.front().x.size();
  for (const auto& s : series) {
    BF_CHECK_MSG(s.x.size() == s.y.size(), "series size mismatch");
    BF_CHECK_MSG(s.x.size() == n, "series must share one x grid");
    for (std::size_t i = 0; i < n; ++i) {
      BF_CHECK_MSG(s.x[i] == series.front().x[i],
                   "series must share one x grid");
    }
  }
  std::vector<std::string> header{"x"};
  for (const auto& s : series) header.push_back(s.name);
  CsvTable table(header);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> row{num(series.front().x[i])};
    for (const auto& s : series) row.push_back(num(s.y[i]));
    table.add_row(std::move(row));
  }
  table.save(path);
}

void export_bars_csv(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& bars) {
  CsvTable table({"label", "value"});
  for (const auto& [label, value] : bars) {
    table.add_row({label, num(value)});
  }
  table.save(path);
}

}  // namespace bf::report
