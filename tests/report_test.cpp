// Tests for the ASCII reporting helpers and the guard JSON export.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/io.hpp"
#include "report/ascii.hpp"
#include "report/guard_render.hpp"
#include "serve/json.hpp"

namespace bf::report {
namespace {

TEST(BarChart, ScalesToLargestValue) {
  const auto s = bar_chart("importance", {{"big", 10.0}, {"half", 5.0}});
  EXPECT_NE(s.find("importance"), std::string::npos);
  EXPECT_NE(s.find("big"), std::string::npos);
  // The largest bar has the full width of '#'s; the half bar about half.
  const auto count_hashes = [&](const std::string& label) {
    const std::size_t line_start = s.find(label);
    const std::size_t line_end = s.find('\n', line_start);
    const std::string line = s.substr(line_start, line_end - line_start);
    return std::count(line.begin(), line.end(), '#');
  };
  EXPECT_EQ(count_hashes("big"), 48);
  EXPECT_EQ(count_hashes("half"), 24);
}

TEST(BarChart, NegativeValuesMarked) {
  const auto s = bar_chart("t", {{"neg", -2.0}, {"pos", 2.0}});
  EXPECT_NE(s.find("-##"), std::string::npos);
}

TEST(BarChart, EmptyInputJustTitle) {
  EXPECT_EQ(bar_chart("title", {}), "title\n");
}

TEST(XyPlot, ContainsGlyphsAndAxes) {
  Series a;
  a.name = "measured";
  a.x = {1, 2, 3, 4};
  a.y = {1, 4, 9, 16};
  Series b;
  b.name = "predicted";
  b.x = {1, 2, 3, 4};
  b.y = {1.2, 3.9, 9.5, 15.0};
  const auto s = xy_plot("fit", {a, b});
  EXPECT_NE(s.find('*'), std::string::npos);
  EXPECT_NE(s.find('o'), std::string::npos);
  EXPECT_NE(s.find("measured"), std::string::npos);
  EXPECT_NE(s.find("predicted"), std::string::npos);
  EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(XyPlot, LogXAxisAnnotated) {
  Series a;
  a.name = "s";
  a.x = {64, 1024, 16384};
  a.y = {1, 2, 3};
  const auto s = xy_plot("t", {a}, 32, 8, /*log_x=*/true);
  EXPECT_NE(s.find("log2"), std::string::npos);
}

TEST(XyPlot, MismatchedSeriesRejected) {
  Series bad;
  bad.name = "bad";
  bad.x = {1, 2};
  bad.y = {1};
  EXPECT_THROW(xy_plot("t", {bad}), Error);
  EXPECT_THROW(xy_plot("t", {}, 4, 2), Error);  // too small
}

TEST(Table, AlignsColumns) {
  const auto s = table({"counter", "value"},
                       {{"ipc", "0.88"}, {"achieved_occupancy", "0.97"}});
  EXPECT_NE(s.find("counter"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  // Every data line must be at least as wide as the widest label.
  EXPECT_NE(s.find("achieved_occupancy  0.97"), std::string::npos);
}

TEST(Table, RaggedRowRejected) {
  EXPECT_THROW(table({"a", "b"}, {{"only"}}), Error);
}

TEST(Cell, FormatsFixedPrecision) {
  EXPECT_EQ(cell(3.14159, 2), "3.14");
  EXPECT_EQ(cell(10.0, 0), "10");
}

TEST(GuardJson, NonFiniteNumbersAndControlCharactersStayValidJson) {
  // A counter whose CV folds could not be fitted ranks at +inf, and a
  // counter name may carry any byte; the export must still parse.
  guard::GuardReport report;
  report.enabled = true;
  guard::CounterGuardRecord counter;
  counter.counter = "inst\tissued\x01";
  counter.chosen = "mars";
  counter.r2 = std::numeric_limits<double>::quiet_NaN();
  counter.cv_rmse = std::numeric_limits<double>::infinity();
  counter.chain = {"mars", "glm"};
  report.counters.push_back(counter);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bf_guard_json_" + std::to_string(::getpid()) + ".json"))
          .string();
  export_guard_json(path, report);
  const std::string text = *read_file(path);
  std::filesystem::remove(path);

  // JSON forbids raw control characters inside strings.
  EXPECT_EQ(std::count_if(text.begin(), text.end(),
                          [](char c) {
                            return c != '\n' &&
                                   static_cast<unsigned char>(c) < 0x20;
                          }),
            0);
  const serve::JsonValue doc = serve::parse_json(text);
  const serve::JsonValue& row = doc.find("counters")->array.at(0);
  EXPECT_EQ(row.find("counter")->str, counter.counter);
  EXPECT_TRUE(row.find("r2")->is_null());
  EXPECT_TRUE(row.find("cv_rmse")->is_null());
  EXPECT_EQ(row.find("chain")->array.size(), 2u);
}

}  // namespace
}  // namespace bf::report
