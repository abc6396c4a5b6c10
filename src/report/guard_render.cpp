#include "report/guard_render.hpp"

#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "report/ascii.hpp"

namespace bf::report {
namespace {

void print_string_array(std::FILE* f, const char* key,
                        const std::vector<std::string>& values,
                        const char* indent, bool trailing_comma) {
  std::fprintf(f, "%s\"%s\": [", indent, key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "\"%s\"%s", json_escape(values[i]).c_str(),
                 i + 1 < values.size() ? ", " : "");
  }
  std::fprintf(f, "]%s\n", trailing_comma ? "," : "");
}

}  // namespace

std::string guard_text(const bf::guard::GuardReport& report) {
  if (!report.enabled) return {};
  std::ostringstream os;
  os << report.summary() << "\n";

  if (!report.counters.empty()) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& c : report.counters) {
      std::string chain;
      for (std::size_t i = 0; i < c.chain.size(); ++i) {
        if (i > 0) chain += " -> ";
        chain += c.chain[i];
      }
      rows.push_back({c.counter, c.chosen, cell(c.r2), cell(c.cv_rmse), chain,
                      std::to_string(c.demotions), std::to_string(c.clamps)});
    }
    os << table({"counter", "model", "R^2", "cv_rmse", "chain", "demoted",
                 "clamped"},
                rows);
  }

  const auto lines = report.to_lines();
  os << warn_list("model-health warnings", lines);
  return os.str();
}

void export_guard_json(const std::string& path,
                       const bf::guard::GuardReport& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  BF_CHECK_MSG(f != nullptr, "cannot open for writing: " << path);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"enabled\": %s,\n", report.enabled ? "true" : "false");
  std::fprintf(f, "  \"worst_grade\": \"%c\",\n",
               bf::guard::grade_letter(report.worst()));
  std::fprintf(f, "  \"margin\": %s,\n",
               json_number(report.options.margin).c_str());
  std::fprintf(f, "  \"hull\": [\n");
  for (std::size_t i = 0; i < report.hull.size(); ++i) {
    const auto& r = report.hull[i];
    std::fprintf(f, "    {\"feature\": \"%s\", \"lo\": %s, \"hi\": %s}%s\n",
                 json_escape(r.name).c_str(), json_number(r.lo).c_str(),
                 json_number(r.hi).c_str(),
                 i + 1 < report.hull.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"counters\": [\n");
  for (std::size_t i = 0; i < report.counters.size(); ++i) {
    const auto& c = report.counters[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"counter\": \"%s\",\n",
                 json_escape(c.counter).c_str());
    std::fprintf(f, "      \"model\": \"%s\",\n",
                 json_escape(c.chosen).c_str());
    std::fprintf(f, "      \"r2\": %s,\n", json_number(c.r2).c_str());
    std::fprintf(f, "      \"cv_rmse\": %s,\n",
                 json_number(c.cv_rmse).c_str());
    print_string_array(f, "chain", c.chain, "      ", true);
    std::fprintf(f, "      \"demotions\": %d,\n", c.demotions);
    std::fprintf(f, "      \"clamps\": %d\n", c.clamps);
    std::fprintf(f, "    }%s\n",
                 i + 1 < report.counters.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"predictions\": [\n");
  for (std::size_t i = 0; i < report.predictions.size(); ++i) {
    const auto& p = report.predictions[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"size\": %s,\n", json_number(p.size).c_str());
    std::fprintf(f, "      \"value\": %s,\n", json_number(p.value).c_str());
    std::fprintf(f, "      \"raw_value\": %s,\n",
                 json_number(p.raw_value).c_str());
    std::fprintf(f, "      \"lo\": %s,\n", json_number(p.lo).c_str());
    std::fprintf(f, "      \"hi\": %s,\n", json_number(p.hi).c_str());
    std::fprintf(f, "      \"interval_width\": %s,\n",
                 json_number(p.interval_width).c_str());
    std::fprintf(f, "      \"grade\": \"%c\",\n",
                 bf::guard::grade_letter(p.grade));
    std::fprintf(f, "      \"extrapolated\": %s,\n",
                 p.extrapolated ? "true" : "false");
    std::fprintf(f, "      \"flags\": [");
    for (std::size_t j = 0; j < p.flags.size(); ++j) {
      std::fprintf(f, "{\"feature\": \"%s\", \"distance\": %s}%s",
                   json_escape(p.flags[j].feature).c_str(),
                   json_number(p.flags[j].distance).c_str(),
                   j + 1 < p.flags.size() ? ", " : "");
    }
    std::fprintf(f, "],\n");
    print_string_array(f, "demotions", p.demotions, "      ", true);
    print_string_array(f, "clamps", p.clamps, "      ", true);
    print_string_array(f, "notes", p.notes, "      ", false);
    std::fprintf(f, "    }%s\n",
                 i + 1 < report.predictions.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace bf::report
