// Physical caps for predicted counter values, derived from the
// architecture specs (gpusim/arch) and the counter registry's
// monotonicity hints. A counter model extrapolating a problem size can
// emit values no real GPU could produce — more DRAM transactions than
// the bus can move in the predicted time, ratio metrics above 1, IPC
// above the issue width. The guard layer clamps predictions to these
// caps and records every clamp (grade C: the model left its domain).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gpusim/arch.hpp"

namespace bf::guard {

/// Upper bound on one counter, with the physical law it comes from.
struct PhysicalCap {
  std::string counter;
  double max_value = 0.0;
  std::string reason;
};

/// Architecture-independent caps: ratio metrics live in [0, 1].
std::vector<PhysicalCap> ratio_caps();

/// Caps that need the architecture but no timing context (IPC vs issue
/// width, DRAM throughput vs memory bandwidth). Includes ratio_caps().
std::vector<PhysicalCap> static_caps(const gpusim::ArchSpec& arch);

/// The law by which a predicted execution time bounds a counter.
enum class TimeLaw {
  /// DRAM transactions: the bus moves at most bandwidth x time bytes, in
  /// l2_transaction_bytes-sized segments.
  kBusTransactions,
  /// Warp instructions: SMs x schedulers x dispatch units x clock x time.
  kIssueRate,
};

/// A counter bounded by the predicted execution time.
struct TimeCappedCounter {
  const char* counter;
  TimeLaw law;
};

/// Every time-capped counter, in the order its cap applies.
inline constexpr TimeCappedCounter kTimeCapped[] = {
    {"dram_read_transactions", TimeLaw::kBusTransactions},
    {"dram_write_transactions", TimeLaw::kBusTransactions},
    {"inst_executed", TimeLaw::kIssueRate},
    {"inst_issued", TimeLaw::kIssueRate},
};

/// The bounds one predicted execution time puts on the time-capped
/// counters.
struct TimeCaps {
  double max_transactions = 0.0;
  double max_issued = 0.0;

  double bound(TimeLaw law) const {
    return law == TimeLaw::kBusTransactions ? max_transactions : max_issued;
  }
};

/// The time caps of `arch` at a predicted time; nullopt unless the time
/// is finite and positive.
std::optional<TimeCaps> time_caps(const gpusim::ArchSpec& arch,
                                  double predicted_time_ms);

/// Reason text of a time cap at `bound`, e.g. "issue rate x predicted
/// time allows <= 2.358e+06 warp instructions".
std::string time_cap_reason(TimeLaw law, double bound);

/// Whether `value` violates `cap` by more than the relative `tolerance`
/// (well-fitted models sit within a few percent of hard caps; those are
/// not guard events). Non-finite values never do: the prediction guard
/// flags those.
bool exceeds_cap(double value, double cap, double tolerance);

/// One applied clamp as guard records report it:
/// "counter: from -> to (reason)".
std::string clamp_text(const std::string& counter, double from, double to,
                       const std::string& reason);

/// Clamp a predicted average board power (W) into the arch's physical
/// envelope [idle_w, tdp_w], tolerating relative violations up to
/// `tolerance`. Appends the clamp_text of each applied clamp to
/// `clamps`; non-finite inputs pass through untouched.
double clamp_power_to_envelope(const gpusim::ArchSpec& arch, double watts,
                               double tolerance,
                               std::vector<std::string>& clamps);

}  // namespace bf::guard
