// bf::sa static-analysis library tests: lexer edge cases, migration
// parity of the token-based rules against the legacy regex findings on
// the fixture corpus, include-graph/layer-DAG semantics, concurrency
// passes, suppression accounting, baseline policy and the JSON schema
// (parsed with the project's own JSON reader).
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sa/analyzer.hpp"
#include "sa/baseline.hpp"
#include "sa/findings.hpp"
#include "sa/include_graph.hpp"
#include "sa/lexer.hpp"
#include "sa/rules.hpp"
#include "serve/json.hpp"

namespace {

namespace fs = std::filesystem;
using bf::sa::LexedFile;
using bf::sa::TokKind;

#ifndef BF_SA_FIXTURES
#error "BF_SA_FIXTURES must point at tests/sa_fixtures"
#endif
const char* kFixtures = BF_SA_FIXTURES;

std::vector<std::string> token_texts(const LexedFile& f) {
  std::vector<std::string> out;
  out.reserve(f.tokens.size());
  for (const auto& t : f.tokens) out.push_back(t.text);
  return out;
}

bool has_token(const LexedFile& f, const std::string& text) {
  for (const auto& t : f.tokens) {
    if (t.text == text) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lexer edge cases

TEST(SaLexer, RawStringWithEmbeddedQuotesAndBannedWords) {
  const LexedFile f = bf::sa::lex(
      "t.cpp",
      "const char* s = R\"(new delete \"quoted\" rand())\";\nint after = 1;\n");
  // The raw literal is ONE string token; none of its content leaks into
  // the identifier stream.
  EXPECT_FALSE(has_token(f, "new"));
  EXPECT_FALSE(has_token(f, "rand"));
  bool saw_raw = false;
  for (const auto& t : f.tokens) {
    if (t.kind == TokKind::kString && t.raw) {
      saw_raw = true;
      EXPECT_NE(t.text.find("new delete"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_raw);
  EXPECT_TRUE(has_token(f, "after"));
}

TEST(SaLexer, RawStringCustomDelimiterSurvivesFakeTerminator) {
  // `)"` appears inside the literal; only `)xy"` terminates it.
  const LexedFile f = bf::sa::lex(
      "t.cpp", "auto s = R\"xy(tricky )\" not the end)xy\"; int tail = 2;");
  ASSERT_TRUE(has_token(f, "tail"));
  bool saw_raw = false;
  for (const auto& t : f.tokens) {
    if (t.kind == TokKind::kString && t.raw) {
      saw_raw = true;
      EXPECT_NE(t.text.find("not the end"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_raw);
}

TEST(SaLexer, MultilineRawStringKeepsLineNumbers) {
  const LexedFile f =
      bf::sa::lex("t.cpp", "auto s = R\"(a\nb\nc)\";\nint last = 3;\n");
  for (const auto& t : f.tokens) {
    if (t.text == "last") {
      EXPECT_EQ(t.line, 4);
    }
  }
}

TEST(SaLexer, LineContinuationExtendsLineComment) {
  // The backslash makes line 2 part of the comment: no `new` token.
  const LexedFile f =
      bf::sa::lex("t.cpp", "int a = 1; // comment \\\nint* p = new int;\n");
  EXPECT_FALSE(has_token(f, "new"));
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].line, 1);
  EXPECT_EQ(f.comments[0].end_line, 2);
}

TEST(SaLexer, CharLiteralEscapes) {
  const LexedFile f = bf::sa::lex(
      "t.cpp", "char q = '\\''; char b = '\\\\'; int rand_free = 0;");
  // '\'' and '\\' must not desynchronise the state machine: the
  // identifier after them still lexes as code.
  EXPECT_TRUE(has_token(f, "rand_free"));
  int chars = 0;
  for (const auto& t : f.tokens) chars += t.kind == TokKind::kChar ? 1 : 0;
  EXPECT_EQ(chars, 2);
}

TEST(SaLexer, AdjacentStringLiteralsStaySeparate) {
  const LexedFile f =
      bf::sa::lex("t.cpp", "const char* s = \"one new \" \"two rand\";");
  int strings = 0;
  for (const auto& t : f.tokens) strings += t.kind == TokKind::kString ? 1 : 0;
  EXPECT_EQ(strings, 2);
  EXPECT_FALSE(has_token(f, "new"));
  EXPECT_FALSE(has_token(f, "rand"));
}

TEST(SaLexer, BlockCommentOpenerInsideStringIsData) {
  const LexedFile f = bf::sa::lex(
      "t.cpp", "auto a = \"/* not a comment\"; int live = 1; /* real */");
  EXPECT_TRUE(has_token(f, "live"));
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].text, "/* real */");
}

TEST(SaLexer, MultiCharPunctuatorsMerge) {
  const LexedFile f = bf::sa::lex("t.cpp", "a->b; std::x; c <<= 2; d && e;");
  const std::vector<std::string> texts = token_texts(f);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "->"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "::"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "<<="), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "&&"), texts.end());
}

TEST(SaLexer, NumbersWithSeparatorsAndFloatSuffix) {
  const LexedFile f =
      bf::sa::lex("t.cpp", "auto a = 1'000'000; auto b = 2.5f; auto c = 0xFF;");
  int numbers = 0;
  for (const auto& t : f.tokens) {
    if (t.kind != TokKind::kNumber) continue;
    ++numbers;
    if (t.text == "1'000'000") {
      EXPECT_FALSE(bf::sa::is_float_literal(t.text));
    }
    if (t.text == "2.5f") {
      EXPECT_TRUE(bf::sa::is_float_literal(t.text));
    }
    if (t.text == "0xFF") {
      EXPECT_FALSE(bf::sa::is_float_literal(t.text));
    }
  }
  EXPECT_EQ(numbers, 3);
}

// ---------------------------------------------------------------------------
// Corpus: migration parity + one seeded violation per rule

bf::sa::AnalysisReport analyze_corpus(const std::string& baseline = "") {
  bf::sa::AnalyzerOptions opt;
  opt.roots = {std::string(kFixtures) + "/corpus"};
  opt.baseline_path = baseline;
  return bf::sa::analyze(opt);
}

struct Expected {
  const char* rule;
  const char* file;  // repo-relative within the corpus
  int line;
};

// The complete expected finding set for the fixture corpus. The legacy
// regex linter's seven surviving rules are all represented (migration
// parity: the token engine reproduces each of them), plus the new pass
// families.
const Expected kCorpusExpected[] = {
    {"raw-new", "src/common/banned.cpp", 7},
    {"raw-delete", "src/common/banned.cpp", 12},
    {"no-rand", "src/common/banned.cpp", 16},
    {"float-literal", "src/common/banned.cpp", 20},
    {"unchecked-parse", "src/common/banned.cpp", 24},
    {"include-cycle", "src/common/cycle_b.hpp", 3},
    {"duplicate-include", "src/common/dup_include.cpp", 3},
    {"capture-escape", "src/common/escape.cpp", 13},
    {"capture-escape", "src/common/escape.cpp", 15},
    {"mutable-global", "src/common/globals.cpp", 7},
    {"lock-order", "src/common/locks.cpp", 18},
    {"pragma-once", "src/common/missing_pragma.hpp", 1},
    {"unused-suppression", "src/common/unused.cpp", 4},
    {"layer-dag", "src/ml/layered.hpp", 4},
    {"atomic-write", "src/profiling/torn.cpp", 6},
};

TEST(SaCorpus, EverySeededViolationIsFoundAtItsLine) {
  const auto report = analyze_corpus();
  for (const Expected& e : kCorpusExpected) {
    bool found = false;
    for (const auto& f : report.findings) {
      if (f.rule == e.rule && f.file == e.file && f.line == e.line) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << e.rule << " at " << e.file << ":" << e.line;
  }
}

TEST(SaCorpus, NoFalsePositivesBeyondTheSeededSet) {
  const auto report = analyze_corpus();
  EXPECT_EQ(report.findings.size(), std::size(kCorpusExpected));
  // The lexer-stress file is engineered to fool line-oriented scanners;
  // the token engine must report nothing in it.
  for (const auto& f : report.findings) {
    EXPECT_EQ(f.file.find("tricky_lexer"), std::string::npos)
        << "false positive: " << f.rule << " in " << f.file << ":" << f.line;
  }
  // The by-value submit in escape.cpp must not fire.
  int escapes = 0;
  for (const auto& f : report.findings) {
    escapes += f.rule == "capture-escape" ? 1 : 0;
  }
  EXPECT_EQ(escapes, 2);
}

TEST(SaCorpus, LegacyRegexRulesAllMigrated) {
  // Migration parity: every rule of the 358-line regex linter that is
  // still registered appears in the corpus findings from the token-based
  // engine.
  const std::set<std::string> legacy = {
      "pragma-once",   "raw-new",         "raw-delete",  "no-rand",
      "float-literal", "unchecked-parse", "atomic-write"};
  const auto report = analyze_corpus();
  std::set<std::string> seen;
  for (const auto& f : report.findings) seen.insert(f.rule);
  for (const auto& rule : legacy) {
    EXPECT_TRUE(seen.count(rule) != 0) << "legacy rule not migrated: " << rule;
  }
}

TEST(SaCorpus, SuppressionAccountingCountsTheAuditedAllow) {
  // locks.cpp carries one used suppression (mutable-global on
  // shared_value); unused.cpp carries one unused one (reported).
  const auto report = analyze_corpus();
  EXPECT_EQ(report.stats.suppressed, 1u);
  EXPECT_EQ(report.stats.files_scanned, 13u);
}

// ---------------------------------------------------------------------------
// Include graph / layer table

TEST(SaIncludeGraph, ModuleAssignment) {
  EXPECT_EQ(bf::sa::module_of("src/ml/tree.cpp"), "ml");
  EXPECT_EQ(bf::sa::module_of("src/gpusim/engine.hpp"), "gpusim");
  EXPECT_EQ(bf::sa::module_of("tools/bf_lint.cpp"), "tools");
  EXPECT_EQ(bf::sa::module_of("tests/sa_test.cpp"), "tests");
  EXPECT_EQ(bf::sa::module_of("bench/bench_util.hpp"), "bench");
  EXPECT_EQ(bf::sa::module_of("README.md"), "");
}

TEST(SaIncludeGraph, LayerTableShape) {
  // Spot-check the declarative table: common is the root (no deps), the
  // executable roots are wildcarded, and no module other than those
  // roots is allowed to reach serve.
  bool common_ok = false;
  for (const auto& l : bf::sa::layer_table()) {
    const std::string mod = l.module;
    if (mod == "common") {
      common_ok = l.allowed.empty();
      continue;
    }
    for (const char* dep : l.allowed) {
      if (std::string(dep) == "serve") {
        ADD_FAILURE() << mod << " may not depend on serve";
      }
      if (std::string(dep) == "*") {
        EXPECT_TRUE(mod == "tools" || mod == "tests" || mod == "bench" ||
                    mod == "examples")
            << mod << " must not be wildcarded";
      }
    }
  }
  EXPECT_TRUE(common_ok) << "common must have no allowed dependencies";
}

// ---------------------------------------------------------------------------
// Concurrency pass details (beyond the corpus seeds)

/// Write inline sources into a temp tree and analyze it.
bf::sa::AnalysisReport analyze_snippets(
    const std::vector<std::pair<std::string, std::string>>& files) {
  static int counter = 0;
  const fs::path root = fs::temp_directory_path() /
                        ("bf_sa_test_" + std::to_string(++counter));
  fs::create_directories(root);
  for (const auto& [rel, content] : files) {
    const fs::path p = root / rel;
    fs::create_directories(p.parent_path());
    std::ofstream os(p);
    os << content;
  }
  bf::sa::AnalyzerOptions opt;
  opt.roots = {root.string()};
  opt.repo_root = root.string();
  const auto report = bf::sa::analyze(opt);
  fs::remove_all(root);
  return report;
}

int count_rule(const bf::sa::AnalysisReport& r, const std::string& rule) {
  int n = 0;
  for (const auto& f : r.findings) n += f.rule == rule ? 1 : 0;
  return n;
}

TEST(SaConcurrency, ConsistentLockOrderIsClean) {
  const auto report = analyze_snippets({{"a.cpp", R"cpp(
#include <mutex>
std::mutex mu_a;
std::mutex mu_b;
void f() {
  std::lock_guard<std::mutex> la(mu_a);
  std::lock_guard<std::mutex> lb(mu_b);
}
void g() {
  std::lock_guard<std::mutex> la(mu_a);
  std::lock_guard<std::mutex> lb(mu_b);
}
)cpp"}});
  EXPECT_EQ(count_rule(report, "lock-order"), 0);
}

TEST(SaConcurrency, ScopedLockMultiArgIsClean) {
  const auto report = analyze_snippets({{"a.cpp", R"cpp(
#include <mutex>
std::mutex mu_a;
std::mutex mu_b;
void f() { std::scoped_lock lk(mu_a, mu_b); }
void g() { std::scoped_lock lk(mu_b, mu_a); }
)cpp"}});
  EXPECT_EQ(count_rule(report, "lock-order"), 0);
}

TEST(SaConcurrency, ManualLockUnlockOrderInconsistencyFires) {
  const auto report = analyze_snippets({{"a.cpp", R"cpp(
#include <mutex>
std::mutex mu_a;
std::mutex mu_b;
void f() {
  mu_a.lock();
  mu_b.lock();
  mu_b.unlock();
  mu_a.unlock();
}
void g() {
  mu_b.lock();
  mu_a.lock();
  mu_a.unlock();
  mu_b.unlock();
}
)cpp"}});
  EXPECT_EQ(count_rule(report, "lock-order"), 1);
}

TEST(SaConcurrency, SequentialGuardsInSiblingScopesAreClean) {
  // The first guard dies at its block's closing brace, so the second
  // acquisition is not nested and no pair is recorded.
  const auto report = analyze_snippets({{"a.cpp", R"cpp(
#include <mutex>
std::mutex mu_a;
std::mutex mu_b;
void f() {
  { std::lock_guard<std::mutex> la(mu_a); }
  { std::lock_guard<std::mutex> lb(mu_b); }
}
void g() {
  { std::lock_guard<std::mutex> lb(mu_b); }
  { std::lock_guard<std::mutex> la(mu_a); }
}
)cpp"}});
  EXPECT_EQ(count_rule(report, "lock-order"), 0);
}

TEST(SaConcurrency, ParallelForByRefIsAllowed) {
  // parallel_for blocks until completion, so by-ref captures are safe
  // and the pass only targets submit/std::thread.
  const auto report = analyze_snippets({{"a.cpp", R"cpp(
struct Pool { template <typename F> void parallel_for(int, int, F&&); };
void f(Pool& pool) {
  int sum = 0;
  pool.parallel_for(0, 8, [&](int i) { sum += i; });
}
)cpp"}});
  EXPECT_EQ(count_rule(report, "capture-escape"), 0);
}

TEST(SaConcurrency, MutableGlobalSkipsDeclarationsAndFunctions) {
  const auto report = analyze_snippets({{"a.cpp", R"cpp(
#include <string>
int declared_function(int x);
extern int extern_var;
using alias = int;
struct Fwd;
int mutable_one = 1;
namespace nested {
double mutable_two;
}
)cpp"}});
  EXPECT_EQ(count_rule(report, "mutable-global"), 2);
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(SaSuppression, TrailingAllowSilencesAndWholeLineCommentDoesNot) {
  const auto report = analyze_snippets({{"a.cpp", R"cpp(
void f() {
  int* a = new int;  // bf-lint: allow(raw-new)
  int* b = new int;
  (void)a; (void)b;
}
)cpp"}});
  EXPECT_EQ(count_rule(report, "raw-new"), 1);
  EXPECT_EQ(report.stats.suppressed, 1u);
  EXPECT_EQ(count_rule(report, "unused-suppression"), 0);
}

TEST(SaSuppression, CommentListSuppressesMultipleRules) {
  const auto report = analyze_snippets({{"a.cpp", R"cpp(
void f(const char* s) {
  double d = atof(s) + 0.5f;  // bf-lint: allow(unchecked-parse, float-literal)
  (void)d;
}
)cpp"}});
  EXPECT_EQ(count_rule(report, "unchecked-parse"), 0);
  EXPECT_EQ(count_rule(report, "float-literal"), 0);
  EXPECT_EQ(report.stats.suppressed, 2u);
}

// ---------------------------------------------------------------------------
// Baseline

TEST(SaBaseline, ParseMatchStaleAndJustification) {
  const bf::sa::Baseline b = bf::sa::parse_baseline(
      "base.txt",
      "# comment line\n"
      "raw-new|src/a.cpp|  # grandfathered: legacy allocator\n"
      "no-rand|src/b.cpp|\n");
  ASSERT_EQ(b.entries.size(), 2u);
  EXPECT_EQ(b.entries[0].key, "raw-new|src/a.cpp|");
  EXPECT_EQ(b.entries[0].justification, "grandfathered: legacy allocator");
  EXPECT_TRUE(b.entries[1].justification.empty());

  std::vector<bf::sa::Finding> findings;
  bf::sa::Finding f;
  f.file = "src/a.cpp";
  f.line = 10;
  f.rule = "raw-new";
  findings.push_back(f);
  bf::sa::ReportStats stats;
  bf::sa::apply_baseline(b, findings, stats);
  EXPECT_EQ(stats.baselined, 1u);
  // Survivors: stale-baseline for the no-rand entry and baseline-format
  // for its missing justification.
  std::set<std::string> rules;
  for (const auto& x : findings) rules.insert(x.rule);
  EXPECT_TRUE(rules.count("stale-baseline") != 0);
  EXPECT_TRUE(rules.count("baseline-format") != 0);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(SaBaseline, CorpusWithFullBaselineIsClean) {
  // Baseline every corpus finding; the run must come back clean with
  // baselined == finding count and no stale entries.
  const auto raw = analyze_corpus();
  std::string baseline_text;
  for (const auto& f : raw.findings) {
    baseline_text += bf::sa::finding_key(f) + "  # corpus seed\n";
  }
  const fs::path base =
      fs::temp_directory_path() / "bf_sa_corpus_baseline.txt";
  {
    std::ofstream os(base);
    os << baseline_text;
  }
  const auto report = analyze_corpus(base.string());
  fs::remove(base);
  EXPECT_TRUE(report.findings.empty())
      << report.findings.size() << " findings survived the full baseline";
  EXPECT_EQ(report.stats.baselined, raw.findings.size());
}

// ---------------------------------------------------------------------------
// JSON schema, parsed with the project's own reader

TEST(SaJson, RoundTripsThroughProjectJsonReader) {
  const auto report = analyze_corpus();
  const std::string json =
      bf::sa::render_json(report.findings, report.stats);
  const bf::serve::JsonValue doc = bf::serve::parse_json(json);
  ASSERT_EQ(doc.type, bf::serve::JsonValue::Type::kObject);
  EXPECT_EQ(doc.find("tool")->str, "bf_lint");
  EXPECT_EQ(doc.find("schema_version")->number, 2.0);
  EXPECT_EQ(doc.find("files_scanned")->number,
            static_cast<double>(report.stats.files_scanned));
  const bf::serve::JsonValue* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->array.size(), report.findings.size());
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const auto& jf = findings->array[i];
    const auto& f = report.findings[i];
    EXPECT_EQ(jf.find("file")->str, f.file);
    EXPECT_EQ(jf.find("line")->number, static_cast<double>(f.line));
    EXPECT_EQ(jf.find("rule")->str, f.rule);
    EXPECT_EQ(jf.find("severity"), nullptr);
    EXPECT_EQ(jf.find("key")->str, bf::sa::finding_key(f));
    EXPECT_EQ(jf.find("message")->str, f.message);
  }
}

TEST(SaJson, EscapesSpecialCharacters) {
  std::vector<bf::sa::Finding> findings;
  bf::sa::Finding f;
  f.file = "src/weird \"path\"\\x.cpp";
  f.line = 1;
  f.rule = "io";
  f.message = "tab\there\nnewline";
  findings.push_back(f);
  const std::string json = bf::sa::render_json(findings, {});
  const bf::serve::JsonValue doc = bf::serve::parse_json(json);
  EXPECT_EQ(doc.find("findings")->array[0].find("file")->str, f.file);
  EXPECT_EQ(doc.find("findings")->array[0].find("message")->str, f.message);
}

// ---------------------------------------------------------------------------
// Registry

TEST(SaRules, RegistryCoversEveryCorpusRuleAndRejectsUnknown) {
  const auto report = analyze_corpus();
  for (const auto& f : report.findings) {
    EXPECT_TRUE(bf::sa::is_known_rule(f.rule)) << f.rule;
  }
  EXPECT_FALSE(bf::sa::is_known_rule("no-such-rule"));
  EXPECT_EQ(bf::sa::rule_registry().size(), 17u);
}

}  // namespace
