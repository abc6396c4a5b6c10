// bf::sa rule registry and the token-based per-file rules.
//
// Every rule the analyzer can emit is declared here with a stable id
// and a one-line summary; drivers use the registry for
// --help style listings and the test suite asserts the fixture corpus
// trips every registered rule. The seven per-file rules inherited from
// the legacy regex linter run as token-based passes over the shared
// lexer (see run_token_rules), so string/comment false-positive handling
// happens exactly once.
#pragma once

#include <vector>

#include "sa/findings.hpp"
#include "sa/lexer.hpp"

namespace bf::sa {

struct RuleSpec {
  const char* id;
  const char* summary;
};

/// All rules any pass can emit, in documentation order.
const std::vector<RuleSpec>& rule_registry();

/// True if `id` names a registered rule.
bool is_known_rule(const std::string& id);

/// Run the per-file token rules (the migrated legacy seven) over one
/// lexed file, appending raw findings (suppressions/baseline are
/// applied later by the analyzer). `repo_relative` is the normalized
/// path used for scope decisions (the profiling layer) and for the
/// finding's file field.
void run_token_rules(const LexedFile& file, const std::string& repo_relative,
                     std::vector<Finding>& out);

}  // namespace bf::sa
