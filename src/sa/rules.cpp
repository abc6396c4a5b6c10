#include "sa/rules.hpp"

#include <set>
#include <string>

namespace bf::sa {
namespace {

// Documentation order: the migrated legacy token rules, then the
// include-graph family, then the concurrency family, then the meta rules the
// framework itself emits.
const std::vector<RuleSpec> kRegistry = {
    {"pragma-once", "headers must contain #pragma once"},
    {"raw-new", "raw new outside RAII (use std::make_unique / containers)"},
    {"raw-delete", "raw delete (owning types must use RAII; = delete is fine)"},
    {"no-rand",
     "rand()/srand()/drand48()/random_shuffle are unseeded (use bf::Rng)"},
    {"float-literal",
     "float literals (1.0f) in double-precision statistical code"},
    {"unchecked-parse",
     "atof/atoi/stod/... swallow trailing garbage (use bf::parse_double)"},
    {"atomic-write",
     "direct ofstream in the repository layer tears entries on crash "
     "(use bf::atomic_write_file)"},
    {"include-cycle", "#include cycle between project headers"},
    {"layer-dag", "#include edge violates the module layer DAG"},
    {"duplicate-include",
     "the same project header is included twice in one file"},
    {"capture-escape",
     "by-reference lambda capture escapes into ThreadPool::submit / "
     "std::thread"},
    {"mutable-global",
     "mutable non-const namespace-scope variable (data race magnet)"},
    {"lock-order",
     "inconsistent lock-acquisition order across a mutex pair in one TU"},
    {"unused-suppression",
     "a bf-lint: allow(...) comment that silences nothing"},
    {"stale-baseline", "a baseline entry that matches no current finding"},
    {"baseline-format", "a baseline entry without a justification comment"},
    {"io", "a file under analysis could not be read"},
};

}  // namespace

const std::vector<RuleSpec>& rule_registry() { return kRegistry; }

bool is_known_rule(const std::string& id) {
  for (const auto& r : kRegistry) {
    if (id == r.id) return true;
  }
  return false;
}

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

const std::set<std::string>& rand_tokens() {
  static const std::set<std::string> kSet = {"rand", "srand", "drand48",
                                             "random_shuffle"};
  return kSet;
}

const std::set<std::string>& parse_tokens() {
  static const std::set<std::string> kSet = {"atof",   "atoi", "atol",
                                             "strtod", "strtof", "stod",
                                             "stof",   "stoi",   "stol"};
  return kSet;
}

}  // namespace

void run_token_rules(const LexedFile& file, const std::string& rel,
                     std::vector<Finding>& out) {
  const auto report = [&](int line, const char* rule, std::string message,
                          std::string detail = "") {
    Finding f;
    f.file = rel;
    f.line = line;
    f.rule = rule;
    f.message = std::move(message);
    f.detail = std::move(detail);
    out.push_back(std::move(f));
  };

  const bool is_header = ends_with(rel, ".hpp");

  const std::vector<Token>& toks = file.tokens;

  if (is_header) {
    bool has_pragma_once = false;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text == "#" && toks[i].at_line_start &&
          toks[i + 1].text == "pragma" && toks[i + 2].text == "once") {
        has_pragma_once = true;
        break;
      }
    }
    if (!has_pragma_once) {
      report(1, "pragma-once", "header is missing #pragma once");
    }
  }

  // The run repository must never be written through a bare ofstream: a
  // crash mid-write leaves a torn entry behind. Everything under the
  // profiling layer goes through bf::atomic_write_file instead.
  const std::string filename =
      rel.substr(rel.find_last_of('/') == std::string::npos
                     ? 0
                     : rel.find_last_of('/') + 1);
  const bool repository_layer =
      rel.find("/profiling/") != std::string::npos ||
      rel.find("src/profiling/") == 0 ||
      filename.find("repository") != std::string::npos;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kNumber) {
      if (is_float_literal(t.text)) {
        report(t.line, "float-literal",
               "float literal '" + t.text +
                   "' in double-precision code (drop the f suffix)");
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "new") {
      report(t.line, "raw-new", "raw new (use std::make_unique / containers)");
    } else if (t.text == "delete") {
      const bool deleted_member = i > 0 && toks[i - 1].text == "=";
      if (!deleted_member) {
        report(t.line, "raw-delete", "raw delete (owning types must use RAII)");
      }
    } else if (rand_tokens().count(t.text) != 0) {
      report(t.line, "no-rand",
             "'" + t.text + "' is unseeded/non-reproducible (use bf::Rng)");
    } else if (parse_tokens().count(t.text) != 0) {
      report(t.line, "unchecked-parse",
             "'" + t.text +
                 "' swallows trailing garbage (use bf::parse_double / "
                 "bf::parse_int / CsvTable)");
    } else if (repository_layer && t.text == "ofstream") {
      report(t.line, "atomic-write",
             "direct ofstream write in the repository layer can tear "
             "entries on crash (use bf::atomic_write_file)");
    }
  }
}

}  // namespace bf::sa
