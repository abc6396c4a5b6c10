// bf::sa findings — the machine-readable output of every analysis pass.
//
// A Finding carries a position for humans (file:line) and a stable
// `key` for machines: `rule|file|detail`, deliberately excluding the
// line number so committed baselines survive unrelated edits. Findings
// render as the classic `file:line: [rule] message` text or as a JSON
// document CI can archive and diff (schema in docs/static_analysis.md).
#pragma once

#include <string>
#include <vector>

namespace bf::sa {

struct Finding {
  std::string file;     // repo-relative, '/'-separated
  int line = 0;         // 1-based; 0 for whole-file findings
  std::string rule;     // stable rule id, e.g. "layer-dag"
  std::string message;  // human explanation incl. the fix direction
  std::string detail;   // rule-specific stable discriminator (may be "")
};

/// `rule|file|detail` — the identity used by baseline matching.
std::string finding_key(const Finding& f);

/// Order findings for stable output: file, then line, then rule.
void sort_findings(std::vector<Finding>& findings);

struct ReportStats {
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;  // findings silenced by bf-lint: allow()
  std::size_t baselined = 0;   // findings matched by the baseline file
};

/// One text line per finding plus a summary trailer.
std::string render_text(const std::vector<Finding>& findings,
                        const ReportStats& stats);

/// Full JSON document: tool/version header, stats, findings array.
std::string render_json(const std::vector<Finding>& findings,
                        const ReportStats& stats);

}  // namespace bf::sa
