// The declarative counter-invariant table.
//
// Every rule states a conservation law or architecture-model bound as
// `lhs REL rhs` over named counters and machine constants. Rules are
// evaluated against whatever counter names the data under validation
// carries — a rule referencing an absent counter is skipped, which is how
// per-generation availability (e.g. Kepler lacking l1_shared_bank_conflict)
// is handled without duplicating the table.
//
// To add a rule: append to build_rules() using the combinators below and
// add a corrupted-counter case to tests/check_test.cpp proving it fires.
// See docs/static_analysis.md.
#include <utility>

#include "check/check.hpp"
#include "common/error.hpp"

namespace bf::check {
namespace {

using gpusim::ArchSpec;

/// A named counter.
Expr c(std::string name) {
  Expr e;
  e.repr = name;
  e.eval = [name = std::move(name)](
               const CounterView& view,
               const ArchSpec&) -> std::optional<double> {
    return view(name);
  };
  return e;
}

std::string format_literal(double value);

/// A literal constant.
Expr lit(double value) {
  Expr e;
  e.repr = format_literal(value);
  e.eval = [value](const CounterView&, const ArchSpec&) {
    return std::optional<double>(value);
  };
  return e;
}

/// A machine constant pulled from the ArchSpec, e.g. warp_size.
Expr arch_const(std::string repr,
                std::function<double(const ArchSpec&)> get) {
  Expr e;
  e.repr = std::move(repr);
  e.eval = [get = std::move(get)](const CounterView&,
                                  const ArchSpec& arch) {
    return std::optional<double>(get(arch));
  };
  return e;
}

Expr combine(const char* op, Expr a, Expr b,
             std::function<double(double, double)> f) {
  Expr e;
  e.repr = a.repr + " " + op + " " + b.repr;
  e.eval = [a = std::move(a), b = std::move(b), f = std::move(f)](
               const CounterView& view,
               const ArchSpec& arch) -> std::optional<double> {
    const auto x = a.eval(view, arch);
    const auto y = b.eval(view, arch);
    if (!x || !y) return std::nullopt;
    return f(*x, *y);
  };
  return e;
}

Expr sum(Expr a, Expr b) {
  return combine("+", std::move(a), std::move(b),
                 [](double x, double y) { return x + y; });
}

Expr mul(Expr a, Expr b) {
  return combine("*", std::move(a), std::move(b),
                 [](double x, double y) { return x * y; });
}

Rule rule(std::string id, Expr lhs, Relation rel, Expr rhs,
          std::string description,
          std::function<bool(const ArchSpec&)> applies = nullptr) {
  Rule r;
  r.id = std::move(id);
  r.description = std::move(description);
  r.rel = rel;
  r.lhs = std::move(lhs);
  r.rhs = std::move(rhs);
  r.applies = std::move(applies);
  return r;
}

// ---- common arch constants ----

Expr warp_size() {
  return arch_const("warp_size", [](const ArchSpec& a) {
    return static_cast<double>(a.warp_size);
  });
}

bool l1_global_path(const ArchSpec& a) { return a.l1_caches_global_loads; }
bool l2_global_path(const ArchSpec& a) { return !a.l1_caches_global_loads; }

std::vector<Rule> build_rules() {
  std::vector<Rule> rules;

  // ---- non-negativity: every raw event and a few derived columns ----
  for (std::size_t i = 0; i < gpusim::kNumEvents; ++i) {
    const char* name = gpusim::event_name(static_cast<gpusim::Event>(i));
    rules.push_back(rule("nonneg_" + std::string(name), c(name),
                         Relation::kGe, lit(0.0),
                         "hardware event counts cannot be negative"));
  }
  for (const char* name :
       {"ipc", "gld_throughput", "gst_throughput", "l2_read_throughput",
        "l2_write_throughput", "dram_read_throughput",
        "dram_write_throughput", "power_avg_w", "time_ms", "size"}) {
    rules.push_back(rule("nonneg_" + std::string(name), c(name),
                         Relation::kGe, lit(0.0),
                         "derived metrics cannot be negative"));
  }

  // ---- instruction stream conservation ----
  rules.push_back(rule(
      "issued_ge_executed", c("inst_issued"), Relation::kGe,
      c("inst_executed"),
      "issue slots consumed include every executed instruction plus "
      "replays; fewer issues than executions is impossible"));
  rules.push_back(rule(
      "branch_le_executed", c("branch"), Relation::kLe, c("inst_executed"),
      "branches are a subset of the executed instruction stream"));
  rules.push_back(rule(
      "divergent_le_branch", c("divergent_branch"), Relation::kLe,
      c("branch"), "only executed branches can diverge"));
  rules.push_back(rule(
      "thread_inst_warp_bound", c("thread_inst_executed"), Relation::kLe,
      mul(c("inst_executed"), warp_size()),
      "a warp instruction activates at most warp_size lanes"));
  rules.push_back(rule(
      "flops_le_lanes", c("flop_count"), Relation::kLe,
      c("thread_inst_executed"),
      "each lane-level FLOP is carried by a lane-level instruction"));

  // ---- global memory conservation ----
  rules.push_back(rule(
      "gld_trans_ge_requests", c("global_load_transaction"), Relation::kGe,
      c("gld_request"),
      "every global load instruction produces at least one transaction "
      "(the paper's coalescing signal reads this ratio)"));
  rules.push_back(rule(
      "gld_trans_warp_bound", c("global_load_transaction"), Relation::kLe,
      mul(c("gld_request"), mul(lit(2.0), warp_size())),
      "per request, each of warp_size lanes touches at most two segments "
      "(one boundary crossing)"));
  rules.push_back(rule(
      "gst_trans_ge_requests", c("global_store_transaction"), Relation::kGe,
      c("gst_request"),
      "every global store instruction produces at least one transaction"));
  rules.push_back(rule(
      "gst_trans_warp_bound", c("global_store_transaction"), Relation::kLe,
      mul(c("gst_request"), mul(lit(2.0), warp_size())),
      "per request, each of warp_size lanes touches at most two segments "
      "(one boundary crossing)"));

  // ---- cache hierarchy conservation ----
  rules.push_back(rule(
      "l1_partitions_gld_trans",
      sum(c("l1_global_load_hit"), c("l1_global_load_miss")), Relation::kEq,
      c("global_load_transaction"),
      "on an L1-cached global-load path every transaction probes L1 and "
      "is classified as exactly one hit or miss",
      l1_global_path));
  rules.push_back(rule(
      "kepler_l1_quiescent",
      sum(c("l1_global_load_hit"), c("l1_global_load_miss")), Relation::kLe,
      lit(0.0),
      "Kepler (CC 3.5) reserves L1 for local data; global loads must "
      "report ~zero L1 activity",
      l2_global_path));
  rules.push_back(rule(
      "l2_reads_cover_l1_miss", c("l2_read_transactions"), Relation::kGe,
      mul(c("l1_global_load_miss"),
          arch_const("l1_line/l2_seg",
                     [](const ArchSpec& a) {
                       return static_cast<double>(a.l1_transaction_bytes) /
                              a.l2_transaction_bytes;
                     })),
      "each L1 miss refills a full L1 line through L2 read segments",
      l1_global_path));
  rules.push_back(rule(
      "l2_reads_cover_gld", c("l2_read_transactions"), Relation::kGe,
      c("global_load_transaction"),
      "with no L1 global path every load transaction is an L2 read",
      l2_global_path));
  rules.push_back(rule(
      "l2_accesses_le_reads",
      sum(c("l2_read_hit"), c("l2_read_miss")), Relation::kLe,
      c("l2_read_transactions"),
      "each L2 lookup (hit or miss) moves at least one read segment"));
  rules.push_back(rule(
      "dram_reads_cover_l2_miss", c("dram_read_transactions"), Relation::kGe,
      c("l2_read_miss"),
      "every L2 read miss is filled by at least one DRAM read segment"));
  rules.push_back(rule(
      "l2_writes_cover_stores", c("l2_write_transactions"), Relation::kGe,
      c("global_store_transaction"),
      "global stores write through to L2 (no L1 write-allocate on either "
      "generation)"));

  // ---- shared memory / bank conflict theory ----
  rules.push_back(rule(
      "shared_load_replay_bound", c("shared_load_replay"), Relation::kLe,
      mul(c("shared_load"),
          arch_const("(warp_size - 1)",
                     [](const ArchSpec& a) {
                       return static_cast<double>(a.warp_size - 1);
                     })),
      "a fully serialised (warp_size)-way bank conflict replays at most "
      "warp_size - 1 times per instruction"));
  rules.push_back(rule(
      "shared_store_replay_bound", c("shared_store_replay"), Relation::kLe,
      mul(c("shared_store"),
          arch_const("(warp_size - 1)",
                     [](const ArchSpec& a) {
                       return static_cast<double>(a.warp_size - 1);
                     })),
      "a fully serialised (warp_size)-way bank conflict replays at most "
      "warp_size - 1 times per instruction"));
  rules.push_back(rule(
      "bank_conflict_partition", c("l1_shared_bank_conflict"), Relation::kEq,
      sum(c("shared_load_replay"), c("shared_store_replay")),
      "the Fermi bank-conflict event is the sum of the Kepler-named "
      "load/store replay events (same hardware signal, split name)"));
  rules.push_back(rule(
      "bank_conflict_bound", c("l1_shared_bank_conflict"), Relation::kLe,
      mul(sum(c("shared_load"), c("shared_store")),
          arch_const("(warp_size - 1)",
                     [](const ArchSpec& a) {
                       return static_cast<double>(a.warp_size - 1);
                     })),
      "bank-conflict replays are bounded by full serialisation of every "
      "shared access"));

  // ---- scheduler / occupancy bounds ----
  rules.push_back(rule(
      "occupancy_warp_bound", c("active_warp_cycles"), Relation::kLe,
      mul(c("active_cycles"),
          arch_const("max_warps_per_sm",
                     [](const ArchSpec& a) {
                       return static_cast<double>(a.max_warps_per_sm);
                     })),
      "an SM can never hold more resident warps than the occupancy "
      "calculator's warp-slot limit"));
  rules.push_back(rule(
      "issued_le_slots", c("inst_issued"), Relation::kLe,
      c("issue_slots_total"),
      "the schedulers cannot issue more instructions than they had issue "
      "slots while the SM was active"));
  rules.push_back(rule(
      "active_le_elapsed_total", c("active_cycles"), Relation::kLe,
      mul(c("elapsed_cycles"),
          arch_const("sm_count",
                     [](const ArchSpec& a) {
                       return static_cast<double>(a.sm_count);
                     })),
      "no SM can be active for longer than the kernel's elapsed time"));

  // ---- derived-metric bounds (profiled data) ----
  for (const char* ratio :
       {"achieved_occupancy", "issue_slot_utilization",
        "warp_execution_efficiency", "gld_efficiency", "gst_efficiency"}) {
    rules.push_back(rule(std::string(ratio) + "_le_1", c(ratio),
                         Relation::kLe, lit(1.0),
                         "ratio metrics have a hard physical cap of 1"));
    rules.push_back(rule("nonneg_" + std::string(ratio), c(ratio),
                         Relation::kGe, lit(0.0),
                         "ratio metrics cannot be negative"));
  }
  rules.push_back(rule(
      "ipc_le_issue_width", c("ipc"), Relation::kLe,
      arch_const("wsched * dispatch",
                 [](const ArchSpec& a) {
                   return static_cast<double>(a.warp_schedulers_per_sm) *
                          a.dispatch_units_per_scheduler;
                 }),
      "per-SM IPC is capped by scheduler count times dispatch width"));
  rules.push_back(rule(
      "dram_bw_roofline",
      sum(c("dram_read_throughput"), c("dram_write_throughput")),
      Relation::kLe,
      arch_const("mem_bandwidth_gbs",
                 [](const ArchSpec& a) { return a.mem_bandwidth_gbs; }),
      "combined DRAM throughput cannot exceed the board's memory "
      "bandwidth (the engine's roofline)"));

  // ---- board power envelope (bf::power labels) ----
  rules.push_back(rule(
      "power_ge_idle", c("power_avg_w"), Relation::kGe,
      arch_const("idle_w", [](const ArchSpec& a) { return a.idle_w; }),
      "estimated board power can never dip below the arch's idle floor"));
  rules.push_back(rule(
      "power_le_tdp", c("power_avg_w"), Relation::kLe,
      arch_const("tdp_w", [](const ArchSpec& a) { return a.tdp_w; }),
      "estimated board power can never exceed the board's TDP"));
  // energy_j and power_total_w are validation-only mirrors the profiler
  // adds from one estimate_power call (absent in stored sweeps, so the
  // rule is skipped there); a ms-vs-s slip in the energy field would
  // miss by 1000x.
  rules.push_back(rule(
      "energy_eq_power_time", c("energy_j"), Relation::kEq,
      mul(c("power_total_w"), mul(c("time_ms"), lit(0.001))),
      "energy must equal average board power times elapsed time"));

  return rules;
}

std::string format_literal(double value) {
  // Rule literals are small integers; print them without a trailing ".0".
  const long long ll = static_cast<long long>(value);
  if (static_cast<double>(ll) == value) return std::to_string(ll);
  return std::to_string(value);
}

}  // namespace

const std::vector<Rule>& rule_table() {
  static const std::vector<Rule> table = build_rules();
  return table;
}

}  // namespace bf::check
