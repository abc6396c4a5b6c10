#include "check/check.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace bf::check {

namespace {

const char* relation_text(Relation rel) {
  switch (rel) {
    case Relation::kLe: return "<=";
    case Relation::kGe: return ">=";
    case Relation::kEq: return "==";
  }
  BF_FAIL("invalid relation");
}

/// Slack for comparing `lhs` against `rhs`: relative to the larger
/// magnitude, with an absolute floor of `rel_tol` so counters near zero
/// are not held to an impossible standard.
double slack(double lhs, double rhs, double rel_tol) {
  return rel_tol * std::max({std::fabs(lhs), std::fabs(rhs), 1.0});
}

}  // namespace

std::string Rule::expr() const {
  return lhs.repr + " " + relation_text(rel) + " " + rhs.repr;
}

std::optional<Violation> Rule::check(const CounterView& view,
                                     const gpusim::ArchSpec& arch,
                                     double rel_tol) const {
  if (applies && !applies(arch)) return std::nullopt;
  const auto l = lhs.eval(view, arch);
  const auto r = rhs.eval(view, arch);
  if (!l || !r) return std::nullopt;  // a referenced counter is absent

  const double eps = slack(*l, *r, rel_tol);
  bool ok = true;
  switch (rel) {
    case Relation::kLe: ok = *l <= *r + eps; break;
    case Relation::kGe: ok = *l >= *r - eps; break;
    case Relation::kEq: ok = std::fabs(*l - *r) <= eps; break;
  }
  if (ok) return std::nullopt;

  Violation v;
  v.rule = id;
  v.severity = severity;
  v.lhs = *l;
  v.rhs = *r;
  std::ostringstream os;
  os << id << ": " << expr() << " violated on " << arch.name << " (lhs="
     << *l << ", rhs=" << *r << "): " << description;
  v.message = os.str();
  return v;
}

const Rule& rule_by_id(const std::string& id) {
  for (const auto& rule : rule_table()) {
    if (rule.id == id) return rule;
  }
  BF_FAIL("unknown check rule: " << id);
}

std::vector<Violation> validate_view(const CounterView& view,
                                     const gpusim::ArchSpec& arch,
                                     const Options& options) {
  std::vector<Violation> out;
  for (const auto& rule : rule_table()) {
    if (auto v = rule.check(view, arch, options.rel_tol)) {
      out.push_back(*std::move(v));
    }
  }
  return out;
}

std::vector<Violation> validate(const gpusim::CounterSet& counters,
                                const gpusim::ArchSpec& arch,
                                const Options& options) {
  const CounterView view =
      [&counters](const std::string& name) -> std::optional<double> {
    for (std::size_t i = 0; i < gpusim::kNumEvents; ++i) {
      const auto e = static_cast<gpusim::Event>(i);
      if (name == gpusim::event_name(e)) return counters.get(e);
    }
    return std::nullopt;
  };
  return validate_view(view, arch, options);
}

std::vector<Violation> validate_metrics(
    const std::map<std::string, double>& metrics,
    const gpusim::ArchSpec& arch, const Options& options) {
  const CounterView view =
      [&metrics](const std::string& name) -> std::optional<double> {
    const auto it = metrics.find(name);
    if (it == metrics.end()) return std::nullopt;
    // A NaN metric is a dropped counter (multiplexing lost the event):
    // treat it as absent so rules referencing it are skipped, exactly
    // like a counter the generation does not expose.
    if (std::isnan(it->second)) return std::nullopt;
    return it->second;
  };
  return validate_view(view, arch, options);
}

std::vector<Violation> validate_dataset(const ml::Dataset& ds,
                                        const gpusim::ArchSpec& arch,
                                        const Options& options) {
  std::vector<Violation> out;
  for (std::size_t row = 0; row < ds.num_rows(); ++row) {
    const CounterView view =
        [&ds, row](const std::string& name) -> std::optional<double> {
      if (!ds.has_column(name)) return std::nullopt;
      const double v = ds.column(name)[row];
      // NaN cells are dropped counters in a degraded sweep; skip the
      // rules that reference them instead of reporting false positives.
      if (std::isnan(v)) return std::nullopt;
      return v;
    };
    for (auto& v : validate_view(view, arch, options)) {
      v.row = static_cast<long>(row);
      out.push_back(std::move(v));
    }
  }
  return out;
}

std::string to_string(const std::vector<Violation>& violations) {
  std::ostringstream os;
  for (const auto& v : violations) {
    os << (v.severity == Severity::kError ? "error" : "warning");
    if (v.row >= 0) os << " [row " << v.row << "]";
    os << ": " << v.message << "\n";
  }
  return os.str();
}

void throw_if_errors(const std::vector<Violation>& violations,
                     const std::string& context) {
  std::size_t errors = 0;
  for (const auto& v : violations) {
    if (v.severity == Severity::kError) ++errors;
  }
  if (errors == 0) return;
  BF_FAIL("counter invariants violated for " << context << " (" << errors
                                             << " error(s)):\n"
                                             << to_string(violations));
}

}  // namespace bf::check
