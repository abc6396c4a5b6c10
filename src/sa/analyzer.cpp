#include "sa/analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "common/error.hpp"
#include "common/io.hpp"
#include "common/string_util.hpp"
#include "sa/baseline.hpp"
#include "sa/concurrency.hpp"
#include "sa/include_graph.hpp"
#include "sa/lexer.hpp"
#include "sa/rules.hpp"

namespace bf::sa {
namespace {

namespace fs = std::filesystem;

std::string generic(const fs::path& p) {
  std::string s = p.lexically_normal().generic_string();
  while (s.size() > 1 && s.back() == '/') s.pop_back();
  return s;
}

/// Deepest common ancestor of a set of absolute paths.
std::string common_ancestor(const std::vector<std::string>& paths) {
  if (paths.empty()) return "";
  std::vector<std::string> acc = bf::split(paths.front(), '/');
  for (const auto& p : paths) {
    const std::vector<std::string> parts = bf::split(p, '/');
    std::size_t match = 0;
    while (match < acc.size() && match < parts.size() &&
           acc[match] == parts[match]) {
      ++match;
    }
    acc.resize(match);
  }
  return bf::join(acc, "/");
}

std::string relative_to(const std::string& path, const std::string& root) {
  if (!root.empty() && bf::starts_with(path, root + "/")) {
    return path.substr(root.size() + 1);
  }
  if (path == root) return path;
  return path;
}

struct Suppression {
  std::string rule;
  int first_line = 0;
  int last_line = 0;
  bool used = false;
};

/// Parse `bf-lint: allow(rule)` / `allow(rule1, rule2)` markers out of a
/// file's comment trivia. A marker covers every physical line its
/// comment spans (so a continuation-extended comment still suppresses).
/// Only comments sharing a line with code count: a suppression is a
/// trailing audit marker on the offending line, while a whole-line
/// comment is documentation (which may legitimately *mention* the
/// marker, as this one does).
std::vector<Suppression> parse_suppressions(const LexedFile& file) {
  std::vector<Suppression> out;
  std::set<int> code_lines;
  for (const Token& t : file.tokens) code_lines.insert(t.line);
  static const std::string kMarker = "bf-lint: allow(";
  for (const Comment& c : file.comments) {
    bool beside_code = false;
    for (int l = c.line; l <= c.end_line && !beside_code; ++l) {
      beside_code = code_lines.count(l) != 0;
    }
    if (!beside_code) continue;
    std::size_t at = 0;
    while ((at = c.text.find(kMarker, at)) != std::string::npos) {
      const std::size_t open = at + kMarker.size() - 1;
      const std::size_t close = c.text.find(')', open);
      if (close == std::string::npos) break;
      const std::string inside = c.text.substr(open + 1, close - open - 1);
      for (const auto& rule : bf::split(inside, ',')) {
        const std::string id(bf::trim(rule));
        if (id.empty()) continue;
        Suppression s;
        s.rule = id;
        s.first_line = c.line;
        s.last_line = c.end_line;
        out.push_back(std::move(s));
      }
      at = close;
    }
  }
  return out;
}

}  // namespace

AnalysisReport analyze(const AnalyzerOptions& options) {
  BF_CHECK_MSG(!options.roots.empty(), "bf::sa::analyze: no roots given");

  std::vector<std::string> exclude_prefixes;
  for (const auto& e : options.excludes) {
    exclude_prefixes.push_back(generic(fs::absolute(e)));
  }
  const auto excluded = [&](const std::string& abs) {
    for (const auto& pre : exclude_prefixes) {
      if (abs == pre || bf::starts_with(abs, pre + "/")) return true;
    }
    return false;
  };

  // Collect the file set.
  std::vector<std::string> root_paths;
  std::set<std::string> files;  // absolute, sorted, deduped
  for (const auto& root : options.roots) {
    const fs::path rp(root);
    BF_CHECK_MSG(fs::exists(rp), "bf_lint: no such path: " << root);
    const std::string abs_root = generic(fs::absolute(rp));
    root_paths.push_back(abs_root);
    if (fs::is_regular_file(rp)) {
      if (!excluded(abs_root)) files.insert(abs_root);
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(rp)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".hpp" && ext != ".cpp") continue;
      const std::string abs = generic(fs::absolute(entry.path()));
      if (!excluded(abs)) files.insert(abs);
    }
  }

  const std::string repo_root =
      options.repo_root.empty()
          ? common_ancestor(root_paths)
          : generic(fs::absolute(options.repo_root));

  AnalysisReport report;
  report.stats.files_scanned = files.size();

  // Lex everything once; passes share the token streams.
  std::vector<std::unique_ptr<LexedFile>> lexed;
  std::map<std::string, const LexedFile*> by_rel;
  std::map<std::string, std::vector<Suppression>> suppressions;
  std::vector<Finding> raw;
  for (const auto& abs : files) {
    const std::string rel = relative_to(abs, repo_root);
    const std::optional<std::string> content = bf::read_file(abs);
    if (!content.has_value()) {
      Finding f;
      f.file = rel;
      f.line = 0;
      f.rule = "io";
      f.message = "cannot read file";
      raw.push_back(std::move(f));
      continue;
    }
    lexed.push_back(
        std::make_unique<LexedFile>(lex(abs, std::move(*content))));
    const LexedFile* file = lexed.back().get();
    by_rel[rel] = file;
    suppressions[rel] = parse_suppressions(*file);
    run_token_rules(*file, rel, raw);
    run_concurrency_passes(*file, rel, raw);
  }
  run_include_graph(by_rel, raw);

  // Apply in-source suppressions, with accounting.
  std::vector<Finding> unsuppressed;
  unsuppressed.reserve(raw.size());
  for (auto& f : raw) {
    bool silenced = false;
    const auto it = suppressions.find(f.file);
    if (it != suppressions.end()) {
      for (auto& s : it->second) {
        if (s.rule == f.rule && f.line >= s.first_line &&
            f.line <= s.last_line) {
          s.used = true;
          silenced = true;
        }
      }
    }
    if (silenced) {
      ++report.stats.suppressed;
    } else {
      unsuppressed.push_back(std::move(f));
    }
  }
  for (const auto& [rel, list] : suppressions) {
    for (const auto& s : list) {
      if (s.used) continue;
      Finding f;
      f.file = rel;
      f.line = s.first_line;
      f.rule = "unused-suppression";
      f.message = "bf-lint: allow(" + s.rule +
                  ") silences nothing on this line (delete the comment)";
      f.detail = s.rule;
      unsuppressed.push_back(std::move(f));
    }
  }

  // Baseline of grandfathered findings.
  if (!options.baseline_path.empty()) {
    const std::optional<std::string> content =
        bf::read_file(options.baseline_path);
    BF_CHECK_MSG(content.has_value(), "bf_lint: cannot read baseline file: "
                                          << options.baseline_path);
    const Baseline baseline =
        parse_baseline(options.baseline_path, *content);
    apply_baseline(baseline, unsuppressed, report.stats);
  }

  report.findings = std::move(unsuppressed);
  sort_findings(report.findings);
  return report;
}

}  // namespace bf::sa
