// bf_lint — the BlackForest static-analysis driver, run as a ctest so
// violations fail the build.
//
//   bf_lint [options] DIR|FILE [DIR|FILE...]
//
//   --baseline FILE   committed grandfathered findings (stable keys with
//                     justifications; stale entries are findings)
//   --json FILE       write the findings as a JSON document ('-' for
//                     stdout); text output still goes to stdout
//   --exclude PATH    skip a file or directory subtree (repeatable)
//   --repo-root DIR   root for repo-relative paths (default: deepest
//                     common ancestor of the scan roots)
//   --list-rules      print the rule registry and exit
//
// The analysis itself lives in src/sa/ (bf::sa): a shared
// comment/string/raw-string-aware lexer feeding three pass families —
// per-file token rules (the classic banned-pattern seven), the
// include-graph pass (layer DAG, cycles, duplicate includes) and the
// concurrency passes (capture-escape, mutable-global, lock-order).
// See docs/static_analysis.md for the full rule list and policies.
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/io.hpp"
#include "common/string_util.hpp"
#include "sa/analyzer.hpp"
#include "sa/rules.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bf_lint [--baseline FILE] [--json FILE|-] "
               "[--exclude PATH]... [--repo-root DIR] [--list-rules] "
               "DIR|FILE [DIR|FILE...]\n");
  return 2;
}

int list_rules() {
  for (const auto& r : bf::sa::rule_registry()) {
    std::printf("%-18s %s\n", r.id, r.summary);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bf::sa::AnalyzerOptions options;
  std::string json_out;
  bool want_json = false;
  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    const auto value = [&]() -> const char* {
      if (a + 1 >= argc) return nullptr;
      return argv[++a];
    };
    if (std::strcmp(arg, "--list-rules") == 0) return list_rules();
    if (std::strcmp(arg, "--baseline") == 0) {
      const char* v = value();
      if (v == nullptr) return usage();
      options.baseline_path = v;
    } else if (std::strcmp(arg, "--json") == 0) {
      const char* v = value();
      if (v == nullptr) return usage();
      json_out = v;
      want_json = true;
    } else if (std::strcmp(arg, "--exclude") == 0) {
      const char* v = value();
      if (v == nullptr) return usage();
      options.excludes.push_back(v);
    } else if (std::strcmp(arg, "--repo-root") == 0) {
      const char* v = value();
      if (v == nullptr) return usage();
      options.repo_root = v;
    } else if (bf::starts_with(arg, "--")) {
      std::fprintf(stderr, "bf_lint: unknown option: %s\n", arg);
      return usage();
    } else {
      options.roots.push_back(arg);
    }
  }
  if (options.roots.empty()) return usage();

  bf::sa::AnalysisReport report;
  try {
    report = bf::sa::analyze(options);
  } catch (const bf::Error& e) {
    std::fprintf(stderr, "bf_lint: %s\n", e.what());
    return 2;
  }

  const std::string text =
      bf::sa::render_text(report.findings, report.stats);
  std::fputs(text.c_str(), stdout);

  if (want_json) {
    const std::string json =
        bf::sa::render_json(report.findings, report.stats);
    if (json_out == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      try {
        bf::atomic_write_file(json_out, json);
      } catch (const bf::Error& e) {
        std::fprintf(stderr, "bf_lint: %s\n", e.what());
        return 2;
      }
    }
  }
  return report.findings.empty() ? 0 : 1;
}
