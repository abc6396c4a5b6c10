// Counter-invariant analysis for BlackForest (bf::check).
//
// The statistical pipeline is only as trustworthy as the HWPC counter
// vectors it consumes: a counter set that silently violates a conservation
// law (more L1 misses than global-load transactions, DRAM reads that do
// not cover L2 misses, occupancy above the occupancy-calculator bound)
// poisons every downstream model the same way miscollected nvprof data
// would. This library encodes those conservation laws and architecture-
// model invariants as a declarative rule table and checks counter data
// against it at three points:
//
//  * raw engine output      — validate(CounterSet, ArchSpec)
//  * derived nvprof metrics — validate_metrics(map, ArchSpec)
//  * stored sweep datasets  — validate_dataset(Dataset, ArchSpec)
//
// Rules reference counters by name, so the same table applies to raw
// event vectors and to derived metric maps: a rule is skipped (not
// violated) when a counter it references is absent from the data, which
// is exactly how per-generation counter availability behaves on real
// hardware.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/arch.hpp"
#include "gpusim/counters.hpp"
#include "ml/dataset.hpp"

namespace bf::check {

/// One violated invariant, with the evaluated sides for diagnosis.
struct Violation {
  std::string rule;     ///< rule id, e.g. "gld_trans_ge_requests"
  std::string message;  ///< human-readable law + observed values
  double lhs = 0.0;
  double rhs = 0.0;
  /// Row index for dataset validation (-1 for single counter sets).
  long row = -1;
};

/// Validation tolerances. Engine output is exact up to floating-point
/// accumulation; profiled/stored data carries multiplicative measurement
/// noise, so relations between near-equal counters need slack.
struct Options {
  double rel_tol = 1e-6;
};

/// Tolerance preset for raw engine counters (exact arithmetic).
inline Options engine_tolerance() { return Options{1e-6}; }
/// Tolerance preset for profiled metrics / stored sweeps (noisy).
inline Options measured_tolerance() { return Options{0.05}; }

/// Named counter lookup: returns the value, or nullopt when the counter
/// does not exist in the data under validation.
using CounterView =
    std::function<std::optional<double>(const std::string&)>;

/// A side of a rule: a printable expression over counters and machine
/// constants, evaluated against a CounterView. Evaluates to nullopt when
/// a referenced counter is absent (the rule is then skipped).
struct Expr {
  std::string repr;
  std::function<std::optional<double>(const CounterView&,
                                      const gpusim::ArchSpec&)>
      eval;
};

enum class Relation { kLe, kGe, kEq };

/// One invariant: `lhs REL rhs`, applicable to a subset of architectures.
struct Rule {
  std::string id;
  std::string description;
  Relation rel = Relation::kLe;
  Expr lhs;
  Expr rhs;
  /// Nullopt = applies everywhere; otherwise a predicate on the arch
  /// (e.g. "only when L1 caches global loads").
  std::function<bool(const gpusim::ArchSpec&)> applies;

  /// Printable law, e.g. "global_load_transaction >= gld_request".
  std::string expr() const;
  /// Evaluate against a view; nullopt when satisfied or not applicable.
  std::optional<Violation> check(const CounterView& view,
                                 const gpusim::ArchSpec& arch,
                                 double rel_tol) const;
};

/// The full invariant table, in a stable order. See rules.cpp for the
/// individual laws and docs/static_analysis.md for how to add one.
const std::vector<Rule>& rule_table();

/// Look up a rule by id; throws bf::Error for unknown ids.
const Rule& rule_by_id(const std::string& id);

/// Validate an arbitrary named-counter view (the primitive the wrappers
/// below are built on).
std::vector<Violation> validate_view(const CounterView& view,
                                     const gpusim::ArchSpec& arch,
                                     const Options& options);

/// Validate a raw engine counter set (exact tolerance by default).
std::vector<Violation> validate(const gpusim::CounterSet& counters,
                                const gpusim::ArchSpec& arch,
                                const Options& options = engine_tolerance());

/// Validate a derived nvprof-style metric map (noisy tolerance).
std::vector<Violation> validate_metrics(
    const std::map<std::string, double>& metrics,
    const gpusim::ArchSpec& arch,
    const Options& options = measured_tolerance());

/// Validate every row of a sweep dataset; violations carry the row index.
std::vector<Violation> validate_dataset(
    const ml::Dataset& ds, const gpusim::ArchSpec& arch,
    const Options& options = measured_tolerance());

/// Render violations one per line, each prefixed "error" (empty string
/// when none).
std::string to_string(const std::vector<Violation>& violations);

/// Throw bf::Error listing the violations when there are any. `context`
/// names the data under validation in the error message.
void throw_if_errors(const std::vector<Violation>& violations,
                     const std::string& context);

}  // namespace bf::check
