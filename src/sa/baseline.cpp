#include "sa/baseline.hpp"

#include <algorithm>

#include "common/string_util.hpp"
#include "sa/rules.hpp"

namespace bf::sa {

Baseline parse_baseline(std::string path, const std::string& content) {
  Baseline b;
  b.path = std::move(path);
  int line_no = 0;
  for (const auto& raw_line : bf::split(content, '\n')) {
    ++line_no;
    const std::string_view line = bf::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    BaselineEntry e;
    e.line = line_no;
    const auto hash = line.find(" #");
    if (hash == std::string_view::npos) {
      e.key = std::string(bf::trim(line));
    } else {
      e.key = std::string(bf::trim(line.substr(0, hash)));
      e.justification = std::string(bf::trim(line.substr(hash + 2)));
    }
    b.entries.push_back(std::move(e));
  }
  return b;
}

void apply_baseline(const Baseline& baseline, std::vector<Finding>& findings,
                    ReportStats& stats) {
  if (baseline.path.empty()) return;
  std::vector<bool> used(baseline.entries.size(), false);
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (auto& f : findings) {
    const std::string key = finding_key(f);
    bool matched = false;
    for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
      if (baseline.entries[i].key == key) {
        used[i] = true;
        matched = true;
      }
    }
    if (matched) {
      ++stats.baselined;
    } else {
      kept.push_back(std::move(f));
    }
  }
  findings = std::move(kept);
  for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
    const BaselineEntry& e = baseline.entries[i];
    if (e.justification.empty()) {
      Finding f;
      f.file = baseline.path;
      f.line = e.line;
      f.rule = "baseline-format";
      f.message = "baseline entry '" + e.key +
                  "' has no justification (append ' # reason')";
      f.detail = e.key;
      findings.push_back(std::move(f));
    }
    if (!used[i]) {
      Finding f;
      f.file = baseline.path;
      f.line = e.line;
      f.rule = "stale-baseline";
      f.message = "baseline entry '" + e.key +
                  "' matches no current finding (delete the line)";
      f.detail = e.key;
      findings.push_back(std::move(f));
    }
  }
}

}  // namespace bf::sa
