#include "sa/concurrency.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <utility>

#include "sa/rules.hpp"

namespace bf::sa {
namespace {

using Toks = std::vector<Token>;

/// Index of the token matching the opener at `open` ('(' / '{' / '['),
/// or toks.size() when unbalanced.
std::size_t match_balanced(const Toks& toks, std::size_t open,
                           const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == opener) ++depth;
    if (toks[i].text == closer) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

/// True when toks[i] opens a lambda introducer whose capture list
/// contains a by-reference capture ('&' anywhere between [ and ]).
/// The ']' must be followed by '(' / '{' / 'mutable' / 'noexcept' so
/// array subscripts are not mistaken for lambdas.
bool is_by_ref_lambda(const Toks& toks, std::size_t i) {
  if (toks[i].text != "[") return false;
  const std::size_t close = match_balanced(toks, i, "[", "]");
  if (close >= toks.size()) return false;
  if (close + 1 >= toks.size()) return false;
  const Token& after = toks[close + 1];
  const bool lambda_shaped =
      after.text == "(" || after.text == "{" || after.text == "mutable" ||
      after.text == "noexcept" || after.text == "->";
  if (!lambda_shaped) return false;
  for (std::size_t j = i + 1; j < close; ++j) {
    if (toks[j].kind == TokKind::kPunct && toks[j].text == "&") return true;
  }
  return false;
}

/// capture-escape: by-ref lambdas handed to submit() or std::thread.
void capture_escape_pass(const LexedFile& file, const std::string& rel,
                         std::vector<Finding>& out) {
  const Toks& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    std::size_t args_open = toks.size();
    const char* sink = nullptr;
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "submit" &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      args_open = i + 1;
      sink = "ThreadPool::submit";
    } else if (toks[i].kind == TokKind::kIdent &&
               (toks[i].text == "thread" || toks[i].text == "jthread") &&
               i >= 2 && toks[i - 1].text == "::" &&
               toks[i - 2].text == "std") {
      // std::thread t(...)  |  std::thread(...)  |  std::thread t{...}
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == TokKind::kIdent) ++j;
      if (j < toks.size() && (toks[j].text == "(" || toks[j].text == "{")) {
        args_open = j;
        sink = "std::thread";
      }
    }
    if (sink == nullptr) continue;
    const char* opener = toks[args_open].text == "{" ? "{" : "(";
    const char* closer = toks[args_open].text == "{" ? "}" : ")";
    const std::size_t args_close =
        match_balanced(toks, args_open, opener, closer);
    for (std::size_t j = args_open + 1; j < args_close; ++j) {
      if (is_by_ref_lambda(toks, j)) {
        Finding f;
        f.file = rel;
        f.line = toks[i].line;
        f.rule = "capture-escape";
        f.message =
            std::string("by-reference lambda capture escapes into ") + sink +
            "; the task can outlive the captured frame (capture by value, "
            "or audit with bf-lint: allow(capture-escape))";
        f.detail = sink;
        out.push_back(std::move(f));
        break;  // one finding per call site
      }
    }
  }
}

// ---------------------------------------------------------------------------
// mutable-global

enum class ScopeKind { kNamespace, kType, kFunction, kInitializer, kBlock };

bool contains_ident(const Toks& stmt, const char* word) {
  for (const auto& t : stmt) {
    if (t.kind == TokKind::kIdent && t.text == word) return true;
  }
  return false;
}

bool is_exempt_type(const Toks& stmt) {
  static const std::set<std::string> kExempt = {
      "mutex",  "shared_mutex", "recursive_mutex",    "atomic",
      "atomic_flag", "atomic_bool", "atomic_int",     "once_flag",
      "condition_variable", "thread_local"};
  for (const auto& t : stmt) {
    if (t.kind == TokKind::kIdent && kExempt.count(t.text) != 0) return true;
  }
  return false;
}

/// Analyze one namespace-scope statement (tokens up to but excluding the
/// terminating ';'); emit mutable-global when it declares a non-const,
/// non-synchronisation variable.
void analyze_global_stmt(const Toks& stmt, const std::string& rel,
                         std::vector<Finding>& out) {
  if (stmt.empty()) return;
  if (contains_ident(stmt, "const") || contains_ident(stmt, "constexpr") ||
      contains_ident(stmt, "constinit")) {
    return;
  }
  // Not variable declarations: type decls, aliases, templates, externs
  // (the defining TU is flagged instead), asserts, operators.
  for (const char* skip :
       {"using", "typedef", "template", "friend", "operator", "static_assert",
        "extern", "struct", "class", "enum", "union", "namespace"}) {
    if (contains_ident(stmt, skip)) return;
  }
  if (is_exempt_type(stmt)) return;
  // A '(' before any '=' means a function declaration (or a
  // most-vexing-parse construct that is one anyway); '=' first means a
  // variable with an initializer expression.
  std::size_t eq_pos = stmt.size();
  std::size_t paren_pos = stmt.size();
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    if (stmt[i].kind != TokKind::kPunct) continue;
    if (stmt[i].text == "=" && eq_pos == stmt.size()) eq_pos = i;
    if (stmt[i].text == "(" && paren_pos == stmt.size()) paren_pos = i;
  }
  if (paren_pos < eq_pos) return;  // function declaration
  // The declared name: last identifier before '=', '[' or end.
  std::string name;
  const std::size_t stop = eq_pos;
  for (std::size_t i = 0; i < stop; ++i) {
    if (stmt[i].kind == TokKind::kIdent) name = stmt[i].text;
    if (stmt[i].kind == TokKind::kPunct && stmt[i].text == "[") break;
  }
  if (name.empty()) return;
  // A bare expression statement (e.g. a macro invocation) has no type
  // tokens before the name; require at least one token before it.
  if (stmt.size() < 2) return;
  Finding f;
  f.file = rel;
  f.line = stmt.front().line;
  f.rule = "mutable-global";
  f.message = "mutable namespace-scope variable '" + name +
              "' is shared state without synchronisation (make it const, "
              "wrap it in a locked accessor, or use std::atomic)";
  f.detail = name;
  out.push_back(std::move(f));
}

void mutable_global_pass(const LexedFile& file, const std::string& rel,
                         std::vector<Finding>& out) {
  const Toks& toks = file.tokens;
  std::vector<ScopeKind> scopes;  // one entry per open '{'
  Toks stmt;                      // statement head at namespace scope
  bool swallow_semicolon = false;
  const auto at_namespace_scope = [&] {
    for (const ScopeKind k : scopes) {
      if (k != ScopeKind::kNamespace) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    // Preprocessor directives: swallow the whole logical line.
    if (t.kind == TokKind::kPunct && t.text == "#" && t.at_line_start) {
      while (i + 1 < toks.size() && !toks[i + 1].at_line_start) ++i;
      continue;
    }
    if (t.kind == TokKind::kPunct && t.text == "{") {
      ScopeKind kind = ScopeKind::kBlock;
      if (at_namespace_scope()) {
        bool has_paren = false;
        int open_parens = 0;
        for (const auto& s : stmt) {
          if (s.kind != TokKind::kPunct) continue;
          if (s.text == "(") {
            has_paren = true;
            ++open_parens;
          } else if (s.text == ")") {
            --open_parens;
          }
        }
        if (open_parens > 0) {
          // Inside an argument list (e.g. a `= {}` default argument of
          // a multi-line declaration): the brace is expression detail
          // and the statement continues after it.
          kind = ScopeKind::kInitializer;
        } else if (contains_ident(stmt, "namespace") ||
                   contains_ident(stmt, "extern")) {
          kind = ScopeKind::kNamespace;
        } else if (!has_paren && (contains_ident(stmt, "class") ||
                                  contains_ident(stmt, "struct") ||
                                  contains_ident(stmt, "union") ||
                                  contains_ident(stmt, "enum"))) {
          kind = ScopeKind::kType;
        } else if (has_paren || stmt.empty()) {
          kind = ScopeKind::kFunction;
        } else {
          // `std::atomic<bool> g{false}` — brace initializer: the
          // statement continues after the matching '}'.
          kind = ScopeKind::kInitializer;
        }
        if (kind == ScopeKind::kNamespace) stmt.clear();
      }
      scopes.push_back(kind);
      continue;
    }
    if (t.kind == TokKind::kPunct && t.text == "}") {
      if (!scopes.empty()) {
        const ScopeKind closed = scopes.back();
        scopes.pop_back();
        if (at_namespace_scope()) {
          if (closed == ScopeKind::kType || closed == ScopeKind::kFunction ||
              closed == ScopeKind::kBlock) {
            stmt.clear();
            swallow_semicolon = true;
          }
          // kInitializer: keep the statement alive until its ';'.
        }
      }
      continue;
    }
    if (!at_namespace_scope()) continue;
    // Inside an initializer brace the tokens are expression detail;
    // skip them but keep the statement open.
    if (!scopes.empty() && scopes.back() == ScopeKind::kInitializer) continue;
    if (t.kind == TokKind::kPunct && t.text == ";") {
      if (swallow_semicolon) {
        swallow_semicolon = false;
      } else {
        analyze_global_stmt(stmt, rel, out);
      }
      stmt.clear();
      continue;
    }
    swallow_semicolon = false;
    stmt.push_back(t);
  }
}

// ---------------------------------------------------------------------------
// lock-order

/// Flatten the expression tokens of a guard's first constructor
/// argument (up to a top-level ',' or ')') into a mutex identity.
std::string flatten_arg(const Toks& toks, std::size_t open,
                        std::size_t* out_end, bool* out_multi) {
  std::string name;
  int depth = 0;
  *out_multi = false;
  std::size_t i = open;
  for (; i < toks.size(); ++i) {
    const std::string& s = toks[i].text;
    if (toks[i].kind == TokKind::kPunct) {
      if (s == "(" || s == "[" || s == "{" || s == "<") ++depth;
      if (s == ")" || s == "]" || s == "}" || s == ">") {
        if (depth == 0 && s == ")") break;
        --depth;
      }
      if (s == "," && depth == 0) {
        *out_multi = true;
        break;
      }
    }
    name += s;
  }
  *out_end = i;
  return name;
}

void lock_order_pass(const LexedFile& file, const std::string& rel,
                     std::vector<Finding>& out) {
  const Toks& toks = file.tokens;
  struct Held {
    std::string name;
    int depth = 0;
    bool manual = false;
  };
  std::vector<Held> held;
  // (first, second) -> line where `second` was acquired under `first`.
  std::map<std::pair<std::string, std::string>, int> pairs;
  int depth = 0;

  const auto acquire = [&](const std::string& name, int line) {
    for (const auto& h : held) {
      if (h.name == name) return;  // recursive/self, skip
      pairs.emplace(std::make_pair(h.name, name), line);
    }
    held.push_back({name, depth, false});
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") ++depth;
      if (t.text == "}") {
        // Guards acquired inside the closing block die with it.
        while (!held.empty() && held.back().depth >= depth) held.pop_back();
        --depth;
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "lock_guard" || t.text == "unique_lock" ||
        t.text == "scoped_lock") {
      // Optional template argument list, then a variable name, then the
      // constructor argument list naming the mutex.
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") {
        int tdepth = 0;
        for (; j < toks.size(); ++j) {
          if (toks[j].text == "<") ++tdepth;
          if (toks[j].text == ">") --tdepth;
          if (toks[j].text == ">>") tdepth -= 2;  // nested close, merged
          if (tdepth <= 0 && toks[j].text.front() == '>') {
            ++j;
            break;
          }
        }
      }
      if (j < toks.size() && toks[j].kind == TokKind::kIdent) ++j;
      if (j < toks.size() && (toks[j].text == "(" || toks[j].text == "{")) {
        std::size_t end = 0;
        bool multi = false;
        const std::string name = flatten_arg(toks, j + 1, &end, &multi);
        // std::scoped_lock(a, b) locks deadlock-free; a second argument
        // to unique_lock is a tag (defer/adopt) — skip both.
        if (!name.empty() && !multi) acquire(name, t.line);
      }
    } else if (t.text == "lock" && i >= 2 && i + 1 < toks.size() &&
               toks[i + 1].text == "(" &&
               (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      // Manual m.lock(): identity is the dotted expression before .lock.
      std::string name;
      std::size_t k = i - 1;
      while (k > 0) {
        const Token& p = toks[k - 1];
        if (p.kind == TokKind::kIdent || p.text == "." || p.text == "->" ||
            p.text == "::") {
          name = p.text + name;
          --k;
        } else {
          break;
        }
      }
      if (!name.empty()) {
        for (const auto& h : held) {
          if (h.name != name) pairs.emplace(std::make_pair(h.name, name),
                                            t.line);
        }
        held.push_back({name, depth, true});
      }
    } else if (t.text == "unlock" && i >= 2 &&
               (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      std::string name;
      std::size_t k = i - 1;
      while (k > 0) {
        const Token& p = toks[k - 1];
        if (p.kind == TokKind::kIdent || p.text == "." || p.text == "->" ||
            p.text == "::") {
          name = p.text + name;
          --k;
        } else {
          break;
        }
      }
      for (std::size_t h = held.size(); h > 0; --h) {
        if (held[h - 1].name == name && held[h - 1].manual) {
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(h - 1));
          break;
        }
      }
    }
  }

  std::set<std::string> reported;
  for (const auto& [pair, line] : pairs) {
    const auto reverse = pairs.find({pair.second, pair.first});
    if (reverse == pairs.end()) continue;
    std::string a = pair.first;
    std::string b = pair.second;
    if (b < a) std::swap(a, b);
    const std::string detail = a + "<->" + b;
    if (!reported.insert(detail).second) continue;
    Finding f;
    f.file = rel;
    f.line = std::max(line, reverse->second);
    f.rule = "lock-order";
    f.message = "mutexes '" + a + "' and '" + b +
                "' are acquired in both orders in this translation unit "
                "(line " + std::to_string(std::min(line, reverse->second)) +
                " vs line " + std::to_string(std::max(line, reverse->second)) +
                "); pick one order or use std::scoped_lock(a, b)";
    f.detail = detail;
    out.push_back(std::move(f));
  }
}

}  // namespace

void run_concurrency_passes(const LexedFile& file, const std::string& rel,
                            std::vector<Finding>& out) {
  capture_escape_pass(file, rel, out);
  mutable_global_pass(file, rel, out);
  lock_order_pass(file, rel, out);
}

}  // namespace bf::sa
