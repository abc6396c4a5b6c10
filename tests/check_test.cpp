// bf::check counter-invariant analysis.
//
// Two halves: (1) every rule in the table can fire — a deliberately
// corrupted CounterSet trips exactly the law it breaks; (2) the rules
// stay silent on real engine output across the full arch x kernel
// matrix, on profiled (noisy) metrics, and on stored sweep datasets.
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "common/error.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/engine.hpp"
#include "profiling/profiler.hpp"
#include "profiling/repository.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace bf {
namespace {

using check::Violation;
using gpusim::CounterSet;
using gpusim::Event;

/// A hand-built counter set satisfying every conservation law for the
/// given architecture (Fermi routes global loads through L1; Kepler must
/// report zero L1 global-load activity).
CounterSet consistent_counters(const gpusim::ArchSpec& arch) {
  CounterSet c;
  c.set(Event::kInstExecuted, 1000);
  c.set(Event::kInstIssued, 1100);
  c.set(Event::kThreadInstExecuted, 32000);
  c.set(Event::kFlopCount, 16000);
  c.set(Event::kBranch, 100);
  c.set(Event::kDivergentBranch, 10);
  c.set(Event::kGldRequest, 100);
  c.set(Event::kGlobalLoadTransaction, 400);
  if (arch.l1_caches_global_loads) {
    c.set(Event::kL1GlobalLoadHit, 300);
    c.set(Event::kL1GlobalLoadMiss, 100);
  }
  c.set(Event::kL2ReadTransactions, 400);
  c.set(Event::kL2ReadHit, 60);
  c.set(Event::kL2ReadMiss, 40);
  c.set(Event::kDramReadTransactions, 160);
  c.set(Event::kGstRequest, 50);
  c.set(Event::kGlobalStoreTransaction, 200);
  c.set(Event::kL2WriteTransactions, 200);
  c.set(Event::kDramWriteTransactions, 100);
  c.set(Event::kSharedLoad, 200);
  c.set(Event::kSharedStore, 100);
  c.set(Event::kSharedLoadReplay, 50);
  c.set(Event::kSharedStoreReplay, 20);
  c.set(Event::kSharedBankConflict, 70);
  c.set(Event::kActiveCycles, 10000);
  c.set(Event::kActiveWarpCycles, 300000);
  c.set(Event::kIssueSlotsTotal, 20000);
  c.set(Event::kElapsedCycles, 10000);
  c.set(Event::kGlobalLoadBytesRequested, 12800);
  c.set(Event::kGlobalStoreBytesRequested, 6400);
  return c;
}

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  for (const auto& v : vs) {
    if (v.rule == rule) return true;
  }
  return false;
}

TEST(CheckRules, ConsistentCountersAreClean) {
  for (const char* arch_name : {"gtx580", "gtx480", "k20m", "k40"}) {
    const auto& arch = gpusim::arch_by_name(arch_name);
    const auto violations = check::validate(consistent_counters(arch), arch);
    EXPECT_TRUE(violations.empty())
        << arch_name << ":\n"
        << check::to_string(violations);
  }
}

struct CorruptionCase {
  const char* rule;  // the rule expected to fire
  const char* arch;  // architecture to validate on
  std::function<void(CounterSet&)> corrupt;
};

TEST(CheckRules, EveryRuleFiresOnCorruptedCounters) {
  const std::vector<CorruptionCase> cases = {
      {"nonneg_inst_executed", "gtx580",
       [](CounterSet& c) { c.set(Event::kInstExecuted, -5); }},
      {"nonneg_dram_read_transactions", "k20m",
       [](CounterSet& c) { c.set(Event::kDramReadTransactions, -1); }},
      {"issued_ge_executed", "gtx580",
       [](CounterSet& c) { c.set(Event::kInstIssued, 900); }},
      {"branch_le_executed", "gtx580",
       [](CounterSet& c) { c.set(Event::kBranch, 2000); }},
      {"divergent_le_branch", "gtx580",
       [](CounterSet& c) { c.set(Event::kDivergentBranch, 150); }},
      {"thread_inst_warp_bound", "gtx580",
       [](CounterSet& c) { c.set(Event::kThreadInstExecuted, 33000); }},
      {"flops_le_lanes", "gtx580",
       [](CounterSet& c) { c.set(Event::kFlopCount, 32500); }},
      {"gld_trans_ge_requests", "gtx580",
       [](CounterSet& c) { c.set(Event::kGldRequest, 500); }},
      {"gld_trans_warp_bound", "gtx580",
       [](CounterSet& c) { c.set(Event::kGlobalLoadTransaction, 7000); }},
      {"gst_trans_ge_requests", "gtx580",
       [](CounterSet& c) { c.set(Event::kGstRequest, 300); }},
      {"gst_trans_warp_bound", "gtx580",
       [](CounterSet& c) { c.set(Event::kGlobalStoreTransaction, 4000); }},
      {"l1_partitions_gld_trans", "gtx580",
       [](CounterSet& c) { c.set(Event::kL1GlobalLoadHit, 307); }},
      {"kepler_l1_quiescent", "k20m",
       [](CounterSet& c) { c.set(Event::kL1GlobalLoadMiss, 50); }},
      {"l2_reads_cover_l1_miss", "gtx580",
       [](CounterSet& c) { c.set(Event::kL2ReadTransactions, 90); }},
      {"l2_reads_cover_gld", "k20m",
       [](CounterSet& c) { c.set(Event::kL2ReadTransactions, 90); }},
      {"l2_accesses_le_reads", "gtx580",
       [](CounterSet& c) { c.set(Event::kL2ReadHit, 1000); }},
      {"dram_reads_cover_l2_miss", "gtx580",
       [](CounterSet& c) { c.set(Event::kL2ReadMiss, 300); }},
      {"l2_writes_cover_stores", "gtx580",
       [](CounterSet& c) { c.set(Event::kL2WriteTransactions, 10); }},
      {"shared_load_replay_bound", "k20m",
       [](CounterSet& c) { c.set(Event::kSharedLoadReplay, 7000); }},
      {"shared_store_replay_bound", "k20m",
       [](CounterSet& c) { c.set(Event::kSharedStoreReplay, 4000); }},
      {"bank_conflict_partition", "gtx580",
       [](CounterSet& c) { c.set(Event::kSharedBankConflict, 71); }},
      {"bank_conflict_bound", "gtx580",
       [](CounterSet& c) {
         // Keep the partition law intact so only the bound fires.
         c.set(Event::kSharedLoadReplay, 9000);
         c.set(Event::kSharedStoreReplay, 1000);
         c.set(Event::kSharedBankConflict, 10000);
       }},
      {"occupancy_warp_bound", "gtx580",
       [](CounterSet& c) { c.set(Event::kActiveWarpCycles, 1e7); }},
      {"issued_le_slots", "gtx580",
       [](CounterSet& c) { c.set(Event::kIssueSlotsTotal, 500); }},
      {"active_le_elapsed_total", "gtx580",
       [](CounterSet& c) { c.set(Event::kElapsedCycles, 10); }},
  };

  for (const auto& tc : cases) {
    const auto& arch = gpusim::arch_by_name(tc.arch);
    CounterSet c = consistent_counters(arch);
    tc.corrupt(c);
    const auto violations = check::validate(c, arch);
    EXPECT_TRUE(has_rule(violations, tc.rule))
        << "expected rule '" << tc.rule << "' to fire on " << tc.arch
        << "; got:\n"
        << check::to_string(violations);
  }
}

TEST(CheckRules, RuleLookupAndRendering) {
  EXPECT_GE(check::rule_table().size(), 40u);
  const auto& rule = check::rule_by_id("issued_ge_executed");
  EXPECT_EQ(rule.expr(), "inst_issued >= inst_executed");
  EXPECT_THROW(check::rule_by_id("no_such_rule"), bf::Error);

  const auto& arch = gpusim::arch_by_name("gtx580");
  CounterSet c = consistent_counters(arch);
  c.set(Event::kInstIssued, 900);
  const auto violations = check::validate(c, arch);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(check::to_string(violations).find("issued_ge_executed"),
            std::string::npos);
  EXPECT_THROW(check::throw_if_errors(violations, "test data"), bf::Error);
  check::throw_if_errors({}, "clean data");  // must not throw
}

// ---- engine output stays clean across the full test matrix ----

struct MatrixEntry {
  const char* workload;
  double size;
};

TEST(CheckEngine, EngineCountersSatisfyInvariantsEverywhere) {
  const std::vector<MatrixEntry> kernels = {
      {"reduce1", 1 << 14}, {"matrixMul", 64},   {"needle", 128},
      {"vecAdd", 1 << 14},  {"stencil5", 64},
  };
  for (const char* arch_name : {"gtx580", "gtx480", "k20m", "k40"}) {
    const gpusim::Device device(gpusim::arch_by_name(arch_name));
    for (const auto& entry : kernels) {
      const auto workload = profiling::workload_by_name(entry.workload);
      const auto agg = workload.run(device, entry.size);
      const auto violations =
          check::validate(agg.counters, device.arch());
      EXPECT_TRUE(violations.empty())
          << entry.workload << " on " << arch_name << ":\n"
          << check::to_string(violations);
    }
  }
}

TEST(CheckEngine, ProfiledMetricsSatisfyInvariants) {
  profiling::Profiler profiler;
  for (const char* arch_name : {"gtx580", "k20m"}) {
    const gpusim::Device device(gpusim::arch_by_name(arch_name));
    const auto workload = profiling::workload_by_name("matrixMul");
    const auto result = profiler.profile(workload, device, 96);
    const auto violations =
        check::validate_metrics(result.counters, device.arch());
    EXPECT_TRUE(violations.empty())
        << arch_name << ":\n"
        << check::to_string(violations);
  }
}

TEST(CheckEngine, ProfilerValidateOptionAccepts) {
  profiling::ProfilerOptions options;
  options.validate = true;
  profiling::Profiler profiler(options);
  const gpusim::Device device(gpusim::arch_by_name("gtx580"));
  const auto workload = profiling::workload_by_name("vecAdd");
  EXPECT_NO_THROW(profiler.profile(workload, device, 1 << 14));
}

TEST(CheckEngine, ProfilerValidateCatchesRawCounterViolation) {
  // More L2 read misses than DRAM read segments: no derived metric
  // carries l2_read_miss, so only the raw-counter rules can see it.
  const profiling::Workload vec_add = profiling::workload_by_name("vecAdd");
  const profiling::Workload broken{
      "vecAdd", [&vec_add](const gpusim::Device& device, double size) {
        gpusim::AggregateResult agg = vec_add.run(device, size);
        agg.counters.set(
            Event::kL2ReadMiss,
            2.0 * agg.counters.get(Event::kDramReadTransactions) + 1.0);
        return agg;
      }};
  profiling::ProfilerOptions options;
  options.validate = true;
  profiling::Profiler profiler(options);
  const gpusim::Device device(gpusim::arch_by_name("gtx580"));
  try {
    profiler.profile(broken, device, 1 << 14);
    ADD_FAILURE() << "raw-counter violation passed validation";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dram_reads_cover_l2_miss"),
              std::string::npos)
        << e.what();
  }
}

// ---- datasets and the run repository ----

TEST(CheckDataset, SweepDatasetValidatesAndCorruptionIsCaught) {
  const gpusim::Device device(gpusim::arch_by_name("gtx580"));
  const auto workload = profiling::workload_by_name("reduce1");
  ml::Dataset ds = profiling::sweep(workload, device,
                                    {1 << 14, 1 << 15, 1 << 16});
  EXPECT_TRUE(check::validate_dataset(ds, device.arch()).empty());

  ds.mutable_column("achieved_occupancy")[1] = 1.5;
  const auto violations = check::validate_dataset(ds, device.arch());
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(has_rule(violations, "achieved_occupancy_le_1"))
      << check::to_string(violations);
  EXPECT_EQ(violations.front().row, 1);
}

TEST(CheckDataset, RepositoryValidatesOnLoad) {
  const std::string root =
      testing::TempDir() + "/bf_check_repo_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  const gpusim::Device device(gpusim::arch_by_name("k20m"));
  const auto workload = profiling::workload_by_name("vecAdd");
  ml::Dataset ds =
      profiling::sweep(workload, device, {1 << 14, 1 << 15});

  const profiling::RunRepository repo(root);
  repo.save("vecAdd", "k20m", ds);
  EXPECT_NO_THROW(repo.load("vecAdd", "k20m"));

  // Corrupt the stored sweep: DRAM throughput above the K20m's bandwidth.
  ml::Dataset bad = ds;
  bad.mutable_column("dram_read_throughput")[0] = 1e5;
  repo.save("vecAdd", "k20m", bad);
  EXPECT_THROW(repo.load("vecAdd", "k20m"), bf::Error);

  // Unknown arch keys and disabled validation both load as-is.
  repo.save("vecAdd", "futuregpu", bad);
  EXPECT_NO_THROW(repo.load("vecAdd", "futuregpu"));
  profiling::RepositoryOptions lax;
  lax.validate_on_load = false;
  const profiling::RunRepository unchecked(root, lax);
  EXPECT_NO_THROW(unchecked.load("vecAdd", "k20m"));
}

}  // namespace
}  // namespace bf
