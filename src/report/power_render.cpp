#include "report/power_render.hpp"

#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "guard/guard.hpp"
#include "report/ascii.hpp"

namespace bf::report {

std::string power_text(const bf::core::PredictionSeries& series) {
  if (series.power_w.empty()) return {};
  std::ostringstream os;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> clamp_notes;
  for (std::size_t i = 0; i < series.power_w.size(); ++i) {
    const double size = i < series.sizes.size() ? series.sizes[i] : 0.0;
    std::vector<std::string> row = {cell(size, 0), cell(series.power_w[i]),
                                    i < series.energy_j.size()
                                        ? cell(series.energy_j[i], 5)
                                        : std::string("-"),
                                    "-"};
    if (i < series.power_guard.size()) {
      const auto& rec = series.power_guard[i];
      row.back() = std::string(1, bf::guard::grade_letter(rec.grade));
      if (rec.extrapolated) row.back() += " (extrapolated)";
      for (const auto& c : rec.clamps) clamp_notes.push_back(c);
    }
    rows.push_back(std::move(row));
  }
  os << table({"size", "power_w", "energy_j", "grade"}, rows);
  os << warn_list("power envelope clamps", clamp_notes);
  return os.str();
}

void export_power_json(const std::string& path,
                       const bf::core::PredictionSeries& series) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  BF_CHECK_MSG(f != nullptr, "cannot open for writing: " << path);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"predictions\": [\n");
  for (std::size_t i = 0; i < series.power_w.size(); ++i) {
    std::fprintf(f, "    {\n");
    const double size = i < series.sizes.size() ? series.sizes[i] : 0.0;
    const double energy =
        i < series.energy_j.size() ? series.energy_j[i] : 0.0;
    std::fprintf(f, "      \"size\": %s,\n", json_number(size).c_str());
    std::fprintf(f, "      \"power_w\": %s,\n",
                 json_number(series.power_w[i]).c_str());
    std::fprintf(f, "      \"energy_j\": %s,\n", json_number(energy).c_str());
    if (i < series.power_guard.size()) {
      const auto& rec = series.power_guard[i];
      std::fprintf(f, "      \"lo\": %s,\n", json_number(rec.lo).c_str());
      std::fprintf(f, "      \"hi\": %s,\n", json_number(rec.hi).c_str());
      std::fprintf(f, "      \"extrapolated\": %s,\n",
                   rec.extrapolated ? "true" : "false");
      std::fprintf(f, "      \"clamps\": [");
      for (std::size_t j = 0; j < rec.clamps.size(); ++j) {
        std::fprintf(f, "\"%s\"%s", json_escape(rec.clamps[j]).c_str(),
                     j + 1 < rec.clamps.size() ? ", " : "");
      }
      std::fprintf(f, "],\n");
      std::fprintf(f, "      \"grade\": \"%c\"\n",
                   bf::guard::grade_letter(rec.grade));
    } else {
      std::fprintf(f, "      \"grade\": \"A\"\n");
    }
    std::fprintf(f, "    }%s\n", i + 1 < series.power_w.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace bf::report
