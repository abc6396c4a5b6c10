// Tests for the profiling layer: counter registry, metric derivation,
// sweeps, and the run repository.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/engine.hpp"
#include "profiling/counter_registry.hpp"
#include "profiling/profiler.hpp"
#include "profiling/repository.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace bf::profiling {
namespace {

using gpusim::Device;
using gpusim::Generation;
using gpusim::gtx580;
using gpusim::kepler_k20m;

// ---- counter registry ----

TEST(CounterRegistry, Table1CountersPresent) {
  // Spot-check the paper's Table 1 names.
  for (const char* name :
       {"shared_replay_overhead", "shared_load", "shared_store",
        "inst_replay_overhead", "l1_global_load_hit", "l1_global_load_miss",
        "gld_request", "gst_request", "global_store_transaction",
        "gld_requested_throughput", "achieved_occupancy",
        "l2_read_throughput", "l2_write_transactions", "ipc",
        "issue_slot_utilization", "warp_execution_efficiency"}) {
    EXPECT_NO_THROW(counter_info(name)) << name;
  }
}

TEST(CounterRegistry, GenerationAvailabilityMatchesPaperSection7) {
  // "the absence of the Fermi metric l1_shared_bank_conflict on Kepler,
  // which in turn, has shared_load_replay and shared_store_replay
  // unknown to Fermi."
  EXPECT_TRUE(counter_available("l1_shared_bank_conflict",
                                Generation::kFermi));
  EXPECT_FALSE(counter_available("l1_shared_bank_conflict",
                                 Generation::kKepler));
  EXPECT_FALSE(counter_available("shared_load_replay", Generation::kFermi));
  EXPECT_TRUE(counter_available("shared_load_replay", Generation::kKepler));
  EXPECT_TRUE(counter_available("ipc", Generation::kFermi));
  EXPECT_TRUE(counter_available("ipc", Generation::kKepler));
}

TEST(CounterRegistry, UnknownCounterThrows) {
  EXPECT_THROW(counter_info("warp_bogosity"), Error);
}

TEST(CounterRegistry, CountersForGenerationDiffer) {
  const auto fermi = counters_for(Generation::kFermi);
  const auto kepler = counters_for(Generation::kKepler);
  EXPECT_NE(fermi, kepler);
  EXPECT_GT(fermi.size(), 20u);
  EXPECT_GT(kepler.size(), 20u);
}

// ---- metric derivation ----

TEST(Profiler, DerivedMetricsWithinPhysicalBounds) {
  const Device dev(gtx580());
  Profiler profiler;
  const auto r = profiler.profile(reduce_workload(2), dev, 1 << 18);
  const auto& m = r.counters;
  EXPECT_GT(m.at("ipc"), 0.0);
  EXPECT_LE(m.at("ipc"), 2.0);
  EXPECT_GT(m.at("achieved_occupancy"), 0.0);
  EXPECT_LE(m.at("achieved_occupancy"), 1.0);
  EXPECT_GE(m.at("warp_execution_efficiency"), 0.0);
  EXPECT_LE(m.at("warp_execution_efficiency"), 1.0);
  EXPECT_GE(m.at("inst_replay_overhead"), 0.0);
  EXPECT_LE(m.at("issue_slot_utilization"), 1.0);
  EXPECT_LE(m.at("gld_throughput"), 2000.0);  // GB/s sanity
  EXPECT_GT(m.at("power_avg_w"), 20.0);
  EXPECT_LT(m.at("power_avg_w"), 400.0);
}

TEST(Profiler, ArchFiltersCounters) {
  const Device fermi(gtx580());
  const Device kepler(kepler_k20m());
  Profiler profiler;
  const auto rf = profiler.profile(reduce_workload(1), fermi, 1 << 16);
  const auto rk = profiler.profile(reduce_workload(1), kepler, 1 << 16);
  EXPECT_TRUE(rf.counters.count("l1_shared_bank_conflict"));
  EXPECT_FALSE(rf.counters.count("shared_load_replay"));
  EXPECT_FALSE(rk.counters.count("l1_shared_bank_conflict"));
  EXPECT_TRUE(rk.counters.count("shared_load_replay"));
  EXPECT_EQ(rf.arch, "gtx580");
  EXPECT_EQ(rk.arch, "k20m");
}

TEST(Profiler, NoiseIsDeterministicPerSeed) {
  const Device dev(gtx580());
  ProfilerOptions a;
  a.seed = 5;
  ProfilerOptions b;
  b.seed = 5;
  Profiler pa(a);
  Profiler pb(b);
  const auto ra = pa.profile(matmul_workload(), dev, 128);
  const auto rb = pb.profile(matmul_workload(), dev, 128);
  EXPECT_DOUBLE_EQ(ra.time_ms, rb.time_ms);
  EXPECT_DOUBLE_EQ(ra.counters.at("ipc"), rb.counters.at("ipc"));
}

TEST(Profiler, ZeroNoiseReproducesSimulator) {
  const Device dev(gtx580());
  ProfilerOptions opt;
  opt.time_noise_sd = 0.0;
  opt.counter_noise_sd = 0.0;
  Profiler profiler(opt);
  const auto a = profiler.profile(vecadd_workload(), dev, 1 << 16);
  const auto b = profiler.profile(vecadd_workload(), dev, 1 << 16);
  EXPECT_DOUBLE_EQ(a.time_ms, b.time_ms);
}

TEST(Profiler, DeriveMetricsRejectsZeroTime) {
  gpusim::CounterSet c;
  EXPECT_THROW(Profiler::derive_metrics(gtx580(), c, 0.0), Error);
}

// ---- workloads ----

TEST(Workloads, RegistryLookup) {
  EXPECT_EQ(workload_by_name("reduce6").name, "reduce6");
  EXPECT_EQ(workload_by_name("matrixMul").name, "matrixMul");
  EXPECT_EQ(workload_by_name("needle").name, "needle");
  EXPECT_THROW(workload_by_name("bitcoin_miner"), Error);
  EXPECT_GE(all_workloads().size(), 13u);
}

TEST(Workloads, InvalidProblemSizeRejected) {
  const Device dev(gtx580());
  Profiler profiler;
  EXPECT_THROW(profiler.profile(reduce_workload(1), dev, 0.0), Error);
}

// ---- sweeps ----

TEST(Sweep, SchemaAndRowCount) {
  const Device dev(gtx580());
  const auto ds = sweep(reduce_workload(2), dev, {1 << 14, 1 << 15, 1 << 16});
  EXPECT_EQ(ds.num_rows(), 3u);
  EXPECT_TRUE(ds.has_column(kSizeColumn));
  EXPECT_TRUE(ds.has_column(kTimeColumn));
  EXPECT_TRUE(ds.has_column("ipc"));
  EXPECT_FALSE(ds.has_column("wsched"));
  // Sizes recorded in order.
  EXPECT_DOUBLE_EQ(ds.at(0, kSizeColumn), 1 << 14);
  EXPECT_DOUBLE_EQ(ds.at(2, kSizeColumn), 1 << 16);
}

TEST(Sweep, MachineCharacteristicsInjected) {
  const Device dev(kepler_k20m());
  SweepOptions opt;
  opt.machine_characteristics = true;
  const auto ds = sweep(vecadd_workload(), dev, {1 << 14, 1 << 16}, opt);
  EXPECT_TRUE(ds.has_column("wsched"));
  EXPECT_DOUBLE_EQ(ds.at(0, "wsched"), 4.0);
  EXPECT_DOUBLE_EQ(ds.at(1, "smp"), 13.0);
  EXPECT_DOUBLE_EQ(ds.at(0, "mbw"), 208.0);
}

TEST(Sweep, TimeIncreasesWithSize) {
  const Device dev(gtx580());
  const auto ds = sweep(matmul_workload(), dev, {64, 256, 512});
  const auto& t = ds.column(kTimeColumn);
  EXPECT_LT(t[0], t[1]);
  EXPECT_LT(t[1], t[2]);
}

TEST(Sweep, SizeHelpers) {
  const auto lin = linear_sizes(64, 320, 64);
  ASSERT_EQ(lin.size(), 5u);
  EXPECT_DOUBLE_EQ(lin.front(), 64.0);
  EXPECT_DOUBLE_EQ(lin.back(), 320.0);

  const auto log = log2_sizes(32, 2048, 7, 16);
  EXPECT_DOUBLE_EQ(log.front(), 32.0);
  EXPECT_DOUBLE_EQ(log.back(), 2048.0);
  for (const double v : log) {
    EXPECT_EQ(static_cast<long long>(v) % 16, 0);
  }
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_GT(log[i], log[i - 1]);
  }
  EXPECT_THROW(log2_sizes(100, 50, 5), Error);
  EXPECT_THROW(linear_sizes(10, 5, 1), Error);
}

TEST(Sweep, EmptySizesRejected) {
  const Device dev(gtx580());
  EXPECT_THROW(sweep(vecadd_workload(), dev, {}), Error);
}

// ---- the failure policy over stored runs ----

/// fnv1a64 over one sweep under heavy crash and timeout faults plus
/// counter dropout and noise spikes: its CSV, its report text and the
/// evaluated/fired counts of every armed point.
std::string armed_sweep_digest(const std::string& workload,
                               const std::string& arch,
                               const std::vector<double>& sizes,
                               std::uint64_t seed, SweepReport& report) {
  const fault::ScopedFaults faults(
      "profiler.run_crash:0.8,profiler.run_timeout:0.5,"
      "profiler.counter_dropout:0.02,profiler.noise_spike:0.2",
      seed);
  SweepOptions options;
  options.replicates = 3;
  options.max_attempts = 5;
  options.min_success_fraction = 0.5;
  const ml::Dataset ds =
      sweep(workload_by_name(workload), Device(gpusim::arch_by_name(arch)),
            sizes, options, &report);
  std::ostringstream os;
  ds.to_csv().write(os);
  os << report.to_text();
  for (const char* point :
       {fault::points::kProfilerRunCrash, fault::points::kProfilerRunTimeout,
        fault::points::kProfilerCounterDropout,
        fault::points::kProfilerNoiseSpike}) {
    const fault::PointStats s = fault::stats(point);
    os << point << ' ' << s.evaluated << ' ' << s.fired << '\n';
  }
  return to_hex64(fnv1a64(os.str()));
}

// The digests were taken from a sweep that re-ran the workload for every
// attempt. Simulating each size once must leave the retries, replicates,
// fault draws, MAD rejection and partial-sweep gate byte-identical.
TEST(Sweep, FaultArmedSweepsMatchReference) {
  SweepReport reduce;
  EXPECT_EQ(armed_sweep_digest("reduce1", "gtx580",
                               {16384, 32768, 65536, 131072, 262144, 524288},
                               5, reduce),
            "ba02a664746918cf");
  SweepReport needle;
  EXPECT_EQ(armed_sweep_digest("needle", "k20m", log2_sizes(64, 1024, 6, 16),
                               2, needle),
            "561c1c5279b5806c");
  for (const SweepReport* r : {&reduce, &needle}) {
    EXPECT_GT(r->retried_attempts, 0u);
    EXPECT_GT(r->sizes_failed, 0u);
    EXPECT_GT(r->sizes_ok, r->sizes_failed);
  }
}

TEST(Sweep, SimulatesEachSizeOnce) {
  // Crashes force retries and every size has three replicates, yet each
  // attempt re-measures the size's one stored run.
  const fault::ScopedFaults faults("profiler.run_crash:0.3", 42);
  const Workload inner = workload_by_name("reduce1");
  std::atomic<int> calls{0};
  Workload counted;
  counted.name = inner.name;
  counted.run = [&](const Device& device, double size) {
    ++calls;
    return inner.run(device, size);
  };
  SweepOptions options;
  options.replicates = 3;
  options.max_attempts = 10;
  SweepReport report;
  const std::vector<double> sizes = {16384, 32768, 65536, 131072};
  const ml::Dataset ds =
      sweep(counted, Device(gtx580()), sizes, options, &report);
  EXPECT_EQ(ds.num_rows(), sizes.size());
  EXPECT_GT(report.retried_attempts, 0u);
  EXPECT_EQ(calls.load(), static_cast<int>(sizes.size()));
}

/// reduce1, except that its run throws `error` at `bad_size`.
template <typename Exception>
Workload throwing_at(double bad_size, const Exception& error) {
  const Workload inner = reduce_workload(1);
  Workload w;
  w.name = inner.name;
  w.run = [inner, bad_size, error](const Device& device, double size) {
    if (size == bad_size) throw error;
    return inner.run(device, size);
  };
  return w;
}

TEST(Sweep, ErrorInsideRunFailsOnlyThatSize) {
  const std::string message = "device lost at size 32768";
  SweepOptions options;
  options.min_success_fraction = 0.5;
  SweepReport report;
  const ml::Dataset ds =
      sweep(throwing_at(32768, Error(message)), Device(gtx580()),
            {16384, 32768, 65536, 131072}, options, &report);
  EXPECT_EQ(ds.column(kSizeColumn),
            (std::vector<double>{16384, 65536, 131072}));
  EXPECT_EQ(report.sizes_ok, 3u);
  EXPECT_EQ(report.sizes_failed, 1u);
  ASSERT_EQ(report.sizes.size(), 4u);
  const SizeOutcome& lost = report.sizes[1];
  EXPECT_FALSE(lost.ok);
  EXPECT_EQ(lost.attempts, options.max_attempts);
  EXPECT_EQ(lost.errors, std::vector<std::string>(
                             static_cast<std::size_t>(options.max_attempts),
                             message));
}

TEST(Sweep, NonLibraryExceptionInsideRunPropagates) {
  SweepOptions options;
  options.min_success_fraction = 0.5;
  EXPECT_THROW(sweep(throwing_at(32768, std::logic_error("kernel bug")),
                     Device(gtx580()), {16384, 32768, 65536}, options),
               std::logic_error);
}

// ---- repository ----

class RepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("bf_repo_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::filesystem::path root_;
};

TEST_F(RepositoryTest, SaveLoadRoundTrip) {
  const RunRepository repo(root_.string());
  ml::Dataset ds;
  ds.add_column("size", {1, 2});
  ds.add_column("time_ms", {0.5, 1.5});
  repo.save("reduce1", "gtx580", ds);
  EXPECT_TRUE(repo.contains("reduce1", "gtx580"));
  const auto back = repo.load("reduce1", "gtx580");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back->at(1, "time_ms"), 1.5);
}

TEST_F(RepositoryTest, MissingKeyIsNullopt) {
  const RunRepository repo(root_.string());
  EXPECT_FALSE(repo.load("nothing", "here").has_value());
  EXPECT_FALSE(repo.contains("nothing", "here"));
}

TEST_F(RepositoryTest, GetOrCollectCaches) {
  const RunRepository repo(root_.string());
  int calls = 0;
  const auto produce = [&] {
    ++calls;
    ml::Dataset ds;
    ds.add_column("x", {1});
    return ds;
  };
  (void)repo.get_or_collect("w", "a", produce);
  (void)repo.get_or_collect("w", "a", produce);
  EXPECT_EQ(calls, 1);
}

TEST_F(RepositoryTest, KeysEnumerated) {
  const RunRepository repo(root_.string());
  ml::Dataset ds;
  ds.add_column("x", {1});
  repo.save("needle", "k20m", ds);
  repo.save("matrixMul", "gtx580", ds);
  const auto keys = repo.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].first, "matrixMul");
  EXPECT_EQ(keys[1].second, "k20m");
}

}  // namespace
}  // namespace bf::profiling
