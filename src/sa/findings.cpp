#include "sa/findings.hpp"

#include <algorithm>
#include <sstream>

#include "common/string_util.hpp"

namespace bf::sa {

std::string finding_key(const Finding& f) {
  return f.rule + "|" + f.file + "|" + f.detail;
}

void sort_findings(std::vector<Finding>& findings) {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
}

std::string render_text(const std::vector<Finding>& findings,
                        const ReportStats& stats) {
  std::ostringstream os;
  for (const auto& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  }
  if (findings.empty()) {
    os << "bf_lint: clean (" << stats.files_scanned << " files scanned, "
       << stats.suppressed << " suppressed, " << stats.baselined
       << " baselined)\n";
  } else {
    os << "bf_lint: " << findings.size() << " violation(s) ("
       << stats.files_scanned << " files scanned, " << stats.suppressed
       << " suppressed, " << stats.baselined << " baselined)\n";
  }
  return os.str();
}

std::string render_json(const std::vector<Finding>& findings,
                        const ReportStats& stats) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"tool\": \"bf_lint\",\n";
  os << "  \"schema_version\": 2,\n";
  os << "  \"files_scanned\": " << stats.files_scanned << ",\n";
  os << "  \"suppressed\": " << stats.suppressed << ",\n";
  os << "  \"baselined\": " << stats.baselined << ",\n";
  os << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << json_escape(f.file) << "\", "
       << "\"line\": " << f.line << ", "
       << "\"rule\": \"" << json_escape(f.rule) << "\", "
       << "\"key\": \"" << json_escape(finding_key(f)) << "\", "
       << "\"message\": \"" << json_escape(f.message) << "\"}";
  }
  os << (findings.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

}  // namespace bf::sa
