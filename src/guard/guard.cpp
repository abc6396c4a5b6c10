#include "guard/guard.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/io.hpp"

namespace bf::guard {

char grade_letter(Grade g) {
  switch (g) {
    case Grade::kA: return 'A';
    case Grade::kB: return 'B';
    case Grade::kC: return 'C';
  }
  return '?';
}

Grade worse(Grade a, Grade b) { return a > b ? a : b; }

// ---- DomainGuard ----

DomainGuard DomainGuard::build(const ml::Dataset& ds,
                               const std::vector<std::string>& features,
                               double margin) {
  BF_CHECK_MSG(margin >= 0.0, "negative hull margin");
  DomainGuard out;
  out.margin_ = margin;
  for (const auto& name : features) {
    if (!ds.has_column(name)) continue;
    const auto& col = ds.column(name);
    FeatureRange r;
    r.name = name;
    r.lo = 1e300;
    r.hi = -1e300;
    bool any = false;
    for (const double v : col) {
      if (!std::isfinite(v)) continue;
      r.lo = std::min(r.lo, v);
      r.hi = std::max(r.hi, v);
      any = true;
    }
    if (any) out.ranges_.push_back(r);
  }
  return out;
}

const FeatureRange* DomainGuard::range(const std::string& name) const {
  for (const auto& r : ranges_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::vector<ExtrapolationFlag> DomainGuard::check_value(
    const std::string& feature, double value) const {
  std::vector<ExtrapolationFlag> out;
  const FeatureRange* r = range(feature);
  if (r == nullptr || !std::isfinite(value)) return out;
  // A degenerate (constant) feature still has a meaningful hull: any
  // deviation is extrapolation measured in absolute units.
  const double span = r->span();
  const double slack = span * margin_;
  double beyond = 0.0;
  if (value < r->lo - slack) {
    beyond = (r->lo - slack) - value;
  } else if (value > r->hi + slack) {
    beyond = value - (r->hi + slack);
  } else {
    return out;
  }
  ExtrapolationFlag flag;
  flag.feature = feature;
  flag.value = value;
  flag.distance = span > 0.0 ? beyond / span : beyond;
  out.push_back(flag);
  return out;
}

std::vector<ExtrapolationFlag> DomainGuard::check_row(
    const ml::Dataset& ds, std::size_t row) const {
  std::vector<ExtrapolationFlag> out;
  for (const auto& r : ranges_) {
    if (!ds.has_column(r.name)) continue;
    const auto flags = check_value(r.name, ds.column(r.name)[row]);
    out.insert(out.end(), flags.begin(), flags.end());
  }
  return out;
}

// ---- GuardReport ----

Grade GuardReport::worst() const {
  Grade g = Grade::kA;
  for (const auto& p : predictions) g = worse(g, p.grade);
  return g;
}

std::size_t GuardReport::count(Grade g) const {
  std::size_t n = 0;
  for (const auto& p : predictions) {
    if (p.grade == g) ++n;
  }
  return n;
}

bool GuardReport::degraded() const {
  for (const auto& p : predictions) {
    if (p.grade != Grade::kA || p.extrapolated || !p.demotions.empty() ||
        !p.clamps.empty() || !p.notes.empty()) {
      return true;
    }
  }
  for (const auto& c : counters) {
    if (c.demotions > 0 || c.clamps > 0) return true;
  }
  return false;
}

std::string GuardReport::summary() const {
  std::ostringstream os;
  os << "guard: " << predictions.size() << " prediction(s) ("
     << count(Grade::kA) << " A, " << count(Grade::kB) << " B, "
     << count(Grade::kC) << " C)";
  return os.str();
}

std::vector<std::string> GuardReport::to_lines() const {
  std::vector<std::string> lines;
  for (const auto& p : predictions) {
    if (p.grade == Grade::kA && !p.extrapolated && p.demotions.empty() &&
        p.clamps.empty() && p.notes.empty()) {
      continue;
    }
    std::ostringstream os;
    os << "size " << p.size << " graded " << grade_letter(p.grade);
    if (p.extrapolated) {
      os << " (extrapolation:";
      for (const auto& f : p.flags) {
        os << ' ' << f.feature << '+' << std::round(f.distance * 100.0) / 100.0
           << " span";
      }
      os << ')';
    }
    lines.push_back(os.str());
    for (const auto& d : p.demotions) lines.push_back("  demoted " + d);
    for (const auto& c : p.clamps) lines.push_back("  clamped " + c);
    for (const auto& n : p.notes) lines.push_back("  " + n);
  }
  return lines;
}

Grade grade_prediction(const PredictionGuardRecord& rec,
                       const GuardOptions& options) {
  Grade g = Grade::kA;
  if (rec.interval_width > options.interval_c) {
    g = worse(g, Grade::kC);
  } else if (rec.interval_width > options.interval_b) {
    g = worse(g, Grade::kB);
  }
  if (!rec.demotions.empty() || !rec.notes.empty()) {
    g = worse(g, Grade::kB);
  }
  if (rec.extrapolated) {
    double max_distance = 0.0;
    for (const auto& f : rec.flags) {
      max_distance = std::max(max_distance, f.distance);
    }
    g = worse(g, max_distance > options.far ? Grade::kC : Grade::kB);
  }
  if (!rec.clamps.empty()) g = worse(g, Grade::kC);
  return g;
}

void DomainGuard::save(std::ostream& os) const {
  os.precision(17);
  os << "bf_hull 1\n";
  os << margin_ << ' ' << ranges_.size() << "\n";
  for (const auto& r : ranges_) {
    os << r.name << ' ' << r.lo << ' ' << r.hi << "\n";
  }
}

DomainGuard DomainGuard::load(std::istream& is) {
  read_format_version(is, "bf_hull", 1);
  DomainGuard g;
  std::size_t n = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> g.margin_ >> n),
               "malformed bf_hull record");
  BF_CHECK_MSG(n <= 100'000, "bf_hull: implausible range count");
  g.ranges_.resize(n);
  for (auto& r : g.ranges_) {
    BF_CHECK_MSG(static_cast<bool>(is >> r.name >> r.lo >> r.hi),
                 "bf_hull: truncated range");
    BF_CHECK_MSG(r.lo <= r.hi, "bf_hull: inverted range for " << r.name);
  }
  return g;
}

void save_options(std::ostream& os, const GuardOptions& options) {
  os.precision(17);
  os << "bf_guard_options 2\n";
  os << options.margin << ' ' << options.far << ' ' << options.interval_b
     << ' ' << options.interval_c << ' ' << options.demote_slack << ' '
     << options.monotone_floor << ' ' << options.cap_tolerance << ' '
     << options.cv_folds << "\n";
}

GuardOptions load_options(std::istream& is) {
  read_format_version(is, "bf_guard_options", 2);
  GuardOptions o;
  BF_CHECK_MSG(static_cast<bool>(is >> o.margin >> o.far >> o.interval_b >>
                                 o.interval_c >> o.demote_slack >>
                                 o.monotone_floor >> o.cap_tolerance >>
                                 o.cv_folds),
               "malformed bf_guard_options record");
  return o;
}

}  // namespace bf::guard
