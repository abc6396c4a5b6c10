// Chaos suite: the pipeline under deterministic fault injection.
//
// Exercises bf::fault end to end — registry semantics, the sweep failure
// policy (retry/replicates/partial results), missing-value resolution,
// repository storage faults — and the headline robustness property: an
// analysis under 5% crash + 5% counter-dropout faults completes and ranks
// the same top bottleneck counters as the fault-free run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "guard/guard.hpp"
#include "ml/dataset.hpp"
#include "ml/flat_forest.hpp"
#include "profiling/repository.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"
#include "forest_reference.hpp"
#include "net_test_util.hpp"
#include "serve/artifact.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace bf {
namespace {

namespace fs = std::filesystem;

// Every test disarms on entry and exit so a failure cannot leak armed
// faults into neighbouring cases (the registry is process-global).
class Chaos : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

std::vector<double> test_sizes() {
  return {16384, 32768, 65536, 131072, 262144, 524288};
}

ml::Dataset run_sweep(const profiling::SweepOptions& options,
                      profiling::SweepReport* report = nullptr) {
  const profiling::Workload workload =
      profiling::workload_by_name("reduce1");
  const gpusim::Device device(gpusim::arch_by_name("gtx580"));
  return profiling::sweep(workload, device, test_sizes(), options, report);
}

std::string csv_text(const ml::Dataset& ds) {
  std::ostringstream os;
  ds.to_csv().write(os);
  return os.str();
}

// ---- registry semantics ----

TEST_F(Chaos, UnarmedRegistryIsInert) {
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(fault::should_fire(fault::points::kProfilerRunCrash));
  EXPECT_EQ(fault::stats(fault::points::kProfilerRunCrash).evaluated, 0u);
  EXPECT_EQ(fault::summary(), "fault injection: off");
}

TEST_F(Chaos, RateOneAlwaysFiresRateZeroNeverDoes) {
  fault::arm("p.always", 1.0);
  fault::arm("p.never", 0.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(fault::should_fire("p.always"));
    EXPECT_FALSE(fault::should_fire("p.never"));
  }
  EXPECT_EQ(fault::stats("p.always").fired, 20u);
  EXPECT_EQ(fault::stats("p.never").fired, 0u);
  EXPECT_EQ(fault::stats("p.never").evaluated, 20u);
}

TEST_F(Chaos, MaxFiresCapsThePoint) {
  fault::arm("p.capped", 1.0, 3);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (fault::should_fire("p.capped")) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fault::stats("p.capped").evaluated, 10u);
}

TEST_F(Chaos, SameSeedSameSpecSameFireSequence) {
  const auto draw = [](std::uint64_t seed) {
    fault::reseed(seed);
    fault::configure("p.a:0.3");
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) fires.push_back(fault::should_fire("p.a"));
    return fires;
  };
  const auto first = draw(42);
  const auto again = draw(42);
  const auto other = draw(43);
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other);
}

TEST_F(Chaos, PointStreamsAreIndependent) {
  // The fire sequence of p.a must not change when another point is armed
  // and evaluated between its draws.
  fault::reseed(7);
  fault::configure("p.a:0.5");
  std::vector<bool> alone;
  for (int i = 0; i < 100; ++i) alone.push_back(fault::should_fire("p.a"));

  fault::reseed(7);
  fault::configure("p.a:0.5,p.b:0.5");
  std::vector<bool> interleaved;
  for (int i = 0; i < 100; ++i) {
    (void)fault::should_fire("p.b");
    interleaved.push_back(fault::should_fire("p.a"));
    (void)fault::should_fire("p.b");
  }
  EXPECT_EQ(alone, interleaved);
}

TEST_F(Chaos, MalformedSpecsThrow) {
  EXPECT_THROW(fault::configure("nocolon"), Error);
  EXPECT_THROW(fault::configure("p.a:notanumber"), Error);
  EXPECT_THROW(fault::configure("p.a:1.5"), Error);   // rate out of range
  EXPECT_THROW(fault::configure("p.a:-0.1"), Error);
  EXPECT_THROW(fault::configure("p.a:0.5:2:9"), Error);  // too many fields
  EXPECT_THROW(fault::configure(":0.5"), Error);  // empty point name
}

TEST_F(Chaos, SpecWhitespaceAndEmptyEntriesTolerated) {
  fault::configure(" p.a : 0.5 : 2 , , p.b:1 ");
  EXPECT_TRUE(fault::active());
  EXPECT_TRUE(fault::should_fire("p.b"));
  const auto all = fault::all_stats();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "p.a");
  EXPECT_EQ(all[1].first, "p.b");
}

TEST_F(Chaos, ResetDisarmsEverything) {
  fault::configure("p.a:1");
  ASSERT_TRUE(fault::should_fire("p.a"));
  fault::reset();
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(fault::should_fire("p.a"));
}

TEST_F(Chaos, EnvironmentConfigurationWorks) {
  ASSERT_EQ(setenv("BF_FAULTS", "p.env:1.0:2", 1), 0);
  ASSERT_EQ(setenv("BF_FAULT_SEED", "99", 1), 0);
  fault::configure_from_env();
  unsetenv("BF_FAULTS");
  unsetenv("BF_FAULT_SEED");
  EXPECT_TRUE(fault::active());
  EXPECT_TRUE(fault::should_fire("p.env"));
  EXPECT_TRUE(fault::should_fire("p.env"));
  EXPECT_FALSE(fault::should_fire("p.env"));  // max_fires reached
}

// ---- zero cost when off ----

TEST_F(Chaos, FaultFreeSweepIsBitIdenticalToDisarmedSweep) {
  const profiling::SweepOptions options;
  const std::string off = csv_text(run_sweep(options));

  // Armed-but-rate-zero exercises every injection-point call site without
  // firing; the dataset must be byte-for-byte identical.
  fault::configure("profiler.run_crash:0,profiler.counter_dropout:0");
  const std::string armed_zero = csv_text(run_sweep(options));
  EXPECT_EQ(off, armed_zero);
  // The points were really evaluated (one crash check per run).
  EXPECT_GE(fault::stats(fault::points::kProfilerRunCrash).evaluated,
            test_sizes().size());
}

// ---- sweep failure policy ----

TEST_F(Chaos, RetryRecoversFromTransientCrashes) {
  fault::reseed(42);
  fault::configure("profiler.run_crash:0.4");
  profiling::SweepOptions options;
  options.max_attempts = 10;
  profiling::SweepReport report;
  const ml::Dataset ds = run_sweep(options, &report);

  EXPECT_EQ(ds.num_rows(), test_sizes().size());
  EXPECT_EQ(report.sizes_ok, test_sizes().size());
  EXPECT_EQ(report.sizes_failed, 0u);
  EXPECT_GT(report.retried_attempts, 0u);  // faults actually fired
  EXPECT_TRUE(report.degraded());
}

TEST_F(Chaos, CounterDropoutBecomesNaNCells) {
  fault::reseed(42);
  fault::configure("profiler.counter_dropout:0.2");
  profiling::SweepReport report;
  const ml::Dataset ds = run_sweep({}, &report);

  EXPECT_EQ(ds.num_rows(), test_sizes().size());
  EXPECT_TRUE(ds.has_missing());
  EXPECT_EQ(ds.missing_count(), report.missing_cells);
  EXPECT_GT(report.missing_cells, 0u);
  // The response and the problem size are never dropped by this point.
  for (const double t : ds.column(profiling::kTimeColumn)) {
    EXPECT_TRUE(std::isfinite(t));
  }
}

TEST_F(Chaos, PartialSweepPolicyKeepsSurvivingSizes) {
  // The first three sizes crash hard (no retry); the rest succeed.
  fault::configure("profiler.run_crash:1.0:3");
  profiling::SweepOptions options;
  options.max_attempts = 1;
  options.min_success_fraction = 0.5;
  profiling::SweepReport report;
  const ml::Dataset ds = run_sweep(options, &report);

  EXPECT_EQ(ds.num_rows(), 3u);
  EXPECT_EQ(report.sizes_ok, 3u);
  EXPECT_EQ(report.sizes_failed, 3u);
  ASSERT_EQ(report.sizes.size(), 6u);
  EXPECT_FALSE(report.sizes[0].ok);
  EXPECT_EQ(report.sizes[0].errors.size(), 1u);
  EXPECT_TRUE(report.sizes[5].ok);

  // A stricter policy refuses the same partial result.
  fault::reset();
  fault::configure("profiler.run_crash:1.0:3");
  options.min_success_fraction = 0.9;
  EXPECT_THROW(run_sweep(options), Error);
}

TEST_F(Chaos, MedianOfReplicatesAbsorbsNoiseSpikes) {
  const ml::Dataset clean = run_sweep({});

  // One replicate per size spikes 4x; the median over 5 replicates must
  // stay within ordinary run-to-run measurement noise of the clean sweep
  // (a leaked spike would inflate the row by ~60%).
  fault::configure("profiler.noise_spike:0.2");
  profiling::SweepOptions options;
  options.replicates = 5;
  const ml::Dataset ds = run_sweep(options);

  ASSERT_EQ(ds.num_rows(), clean.num_rows());
  const auto& spiked_t = ds.column(profiling::kTimeColumn);
  const auto& clean_t = clean.column(profiling::kTimeColumn);
  for (std::size_t i = 0; i < clean_t.size(); ++i) {
    EXPECT_NEAR(spiked_t[i], clean_t[i], 0.05 * clean_t[i])
        << "row " << i;
  }
}

TEST_F(Chaos, PowerLabelSpikeInflatesExactlyOneLabel) {
  const ml::Dataset clean = run_sweep({});

  // A single power-rail sensor glitch (rate 1, one fire): only the first
  // size's power label is hit, and the fault path multiplies the jittered
  // label bit-exactly by 5. Every other cell is untouched — the fault
  // registry draws from its own stream, not the profiler's.
  fault::configure("power.label.spike:1.0:1");
  const ml::Dataset spiked = run_sweep({});

  ASSERT_EQ(spiked.num_rows(), clean.num_rows());
  const auto& clean_p = clean.column(profiling::kPowerColumn);
  const auto& spiked_p = spiked.column(profiling::kPowerColumn);
  EXPECT_EQ(spiked_p[0], 5.0 * clean_p[0]);
  for (std::size_t i = 1; i < clean_p.size(); ++i) {
    EXPECT_EQ(spiked_p[i], clean_p[i]) << "row " << i;
  }
  const auto& clean_t = clean.column(profiling::kTimeColumn);
  const auto& spiked_t = spiked.column(profiling::kTimeColumn);
  for (std::size_t i = 0; i < clean_t.size(); ++i) {
    EXPECT_EQ(spiked_t[i], clean_t[i]) << "row " << i;
  }
}

TEST_F(Chaos, MedianOfReplicatesRejectsPowerLabelSpike) {
  profiling::SweepOptions options;
  options.replicates = 3;
  // Keep all three replicates: time-MAD rejection can drop one (the
  // times differ only by tiny noise, so the MAD cut is arbitrary) and a
  // two-element median averages — which would let half the spike leak.
  options.outlier_mad_threshold = 0.0;
  const ml::Dataset clean = run_sweep(options);

  // The glitch hits one replicate of the first size; a 5x outlier is the
  // maximum of three, so the per-cell median discards it — the spike may
  // shift which clean replicate supplies the middle power value, but the
  // aggregate stays within run-to-run noise (a leak would be ~+130%).
  fault::configure("power.label.spike:1.0:1");
  const ml::Dataset spiked = run_sweep(options);
  ASSERT_EQ(spiked.num_rows(), clean.num_rows());
  for (const auto& name : clean.column_names()) {
    const auto& c = clean.column(name);
    const auto& s = spiked.column(name);
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (name == profiling::kPowerColumn) {
        EXPECT_NEAR(s[i], c[i], 0.02 * c[i]) << name << " row " << i;
      } else {
        EXPECT_EQ(s[i], c[i]) << name << " row " << i;
      }
    }
  }

  // And the rejected label would have been physically impossible: the
  // aggregated power column stays inside the board envelope.
  const auto arch = gpusim::arch_by_name("gtx580");
  for (const double w : spiked.column(profiling::kPowerColumn)) {
    EXPECT_GE(w, arch.idle_w * 0.5);
    EXPECT_LE(w, arch.tdp_w * 1.05);
  }
}

TEST_F(Chaos, SweepReportIsDeterministic) {
  const auto collect = [] {
    fault::reseed(1234);
    fault::configure(
        "profiler.run_crash:0.2,profiler.counter_dropout:0.1");
    profiling::SweepOptions options;
    options.max_attempts = 5;
    options.min_success_fraction = 0.5;
    profiling::SweepReport report;
    const ml::Dataset ds = run_sweep(options, &report);
    return csv_text(ds) + "\n" + report.to_text();
  };
  EXPECT_EQ(collect(), collect());
}

// ---- degraded data through the statistical stages ----

TEST_F(Chaos, ResolveMissingRepairsDropoutDamage) {
  fault::reseed(42);
  fault::configure("profiler.counter_dropout:0.2");
  ml::Dataset ds = run_sweep({});
  fault::reset();
  ASSERT_TRUE(ds.has_missing());

  const ml::MissingValueReport report = ds.resolve_missing(
      0.5, 0.5, {profiling::kTimeColumn, profiling::kSizeColumn});
  EXPECT_FALSE(ds.has_missing());
  EXPECT_FALSE(report.empty());
  EXPECT_FALSE(report.to_lines().empty());
  EXPECT_TRUE(ds.has_column(profiling::kTimeColumn));
  EXPECT_TRUE(ds.has_column(profiling::kSizeColumn));
}

// ---- repository storage faults ----

class ChaosRepo : public Chaos {
 protected:
  void SetUp() override {
    Chaos::SetUp();
    dir_ = fs::temp_directory_path() /
           ("bf_chaos_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    Chaos::TearDown();
  }

  ml::Dataset small_dataset() const {
    ml::Dataset ds;
    ds.add_column("size", {64, 128, 256});
    ds.add_column("time_ms", {1.0, 2.0, 4.0});
    return ds;
  }

  fs::path dir_;
};

TEST_F(ChaosRepo, TornWriteIsQuarantinedAndRecollected) {
  const profiling::RunRepository repo(dir_.string());
  fault::configure("repo.torn_write:1.0:1");
  repo.save("needle", "gtx580", small_dataset());
  fault::reset();

  // The entry on disk is truncated; the checksum footer catches it.
  EXPECT_FALSE(repo.load("needle", "gtx580").has_value());
  EXPECT_TRUE(fs::exists(dir_ / "needle__gtx580.csv.quarantined"));

  int produced = 0;
  const auto ds = repo.get_or_collect("needle", "gtx580", [&] {
    ++produced;
    return small_dataset();
  });
  EXPECT_EQ(produced, 1);
  EXPECT_EQ(ds.num_rows(), 3u);
  EXPECT_EQ(repo.load("needle", "gtx580")->num_rows(), 3u);
}

TEST_F(ChaosRepo, BitrotIsCaughtByTheChecksum) {
  const profiling::RunRepository repo(dir_.string());
  fault::configure("repo.bitrot:1.0:1");
  repo.save("needle", "gtx580", small_dataset());
  fault::reset();

  EXPECT_FALSE(repo.load("needle", "gtx580").has_value());
  EXPECT_TRUE(fs::exists(dir_ / "needle__gtx580.csv.quarantined"));
}

TEST_F(ChaosRepo, UnarmedSaveLoadRoundTripsExactly) {
  const profiling::RunRepository repo(dir_.string());
  repo.save("needle", "gtx580", small_dataset());
  const auto loaded = repo.load("needle", "gtx580");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(csv_text(*loaded), csv_text(small_dataset()));
}

// ---- the headline property ----

core::PipelineConfig reduce1_config() {
  core::PipelineConfig config;
  config.workload = profiling::workload_by_name("reduce1");
  config.arch = gpusim::arch_by_name("gtx580");
  config.sizes = profiling::log2_sizes(1 << 14, 1 << 24, 40, 256);
  config.model.forest.n_trees = 300;
  // The robustness policy a production collection would run with:
  // 3 replicates per size (so a single dropped-out replicate is healed
  // by the median instead of imputed) and a 50% partial-sweep floor.
  config.sweep.replicates = 3;
  config.sweep.min_success_fraction = 0.5;
  return config;
}

std::vector<std::string> top_counters(const core::AnalysisOutcome& outcome,
                                      std::size_t k) {
  std::vector<std::string> names;
  const auto& findings = outcome.report.findings;  // importance-ordered
  for (std::size_t i = 0; i < findings.size() && i < k; ++i) {
    names.push_back(findings[i].counter);
  }
  return names;
}

std::vector<core::Pattern> top_patterns(
    const core::AnalysisOutcome& outcome, std::size_t k) {
  std::vector<core::Pattern> patterns;
  const auto& ranked = outcome.report.ranked_patterns;
  for (std::size_t i = 0; i < ranked.size() && i < k; ++i) {
    patterns.push_back(ranked[i].first);
  }
  return patterns;
}

TEST_F(Chaos, AnalysisUnderFaultsRanksTheSameTopBottlenecks) {
  const core::AnalysisOutcome baseline =
      core::run_analysis(reduce1_config());
  ASSERT_GE(baseline.report.findings.size(), 2u);
  EXPECT_TRUE(baseline.warnings.empty());
  EXPECT_FALSE(baseline.sweep_report.degraded());

  // The headline robustness property: 5% of runs crash and 5% of counter
  // readings drop out, yet the analysis completes (no throw) and the two
  // most important bottleneck counters — and the dominant performance
  // pattern — match the fault-free run.
  const fault::ScopedFaults faults(
      "profiler.run_crash:0.05,profiler.counter_dropout:0.05", 1);
  const core::AnalysisOutcome faulty =
      core::run_analysis(reduce1_config());

  ASSERT_GE(faulty.report.findings.size(), 2u);
  EXPECT_EQ(top_counters(faulty, 2), top_counters(baseline, 2));
  EXPECT_EQ(top_patterns(faulty, 1), top_patterns(baseline, 1));
  // The faults really fired; this was not a vacuous comparison.
  EXPECT_GT(fault::stats(fault::points::kProfilerRunCrash).fired +
                fault::stats(fault::points::kProfilerCounterDropout).fired,
            0u);
}

// ---- ML-layer faults ----

TEST_F(Chaos, ForestNanFeatureFaultIsRepairedWithTrainingMedian) {
  // A corrupted feature must take the same repair path a real dropped
  // counter takes: replaced by the training median, never an arbitrary
  // tree descent on NaN comparisons.
  linalg::Matrix x(60, 2);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = static_cast<double>((i * 7) % 13);
    y[i] = 5.0 * x(i, 0) + 0.5 * x(i, 1);
  }
  ml::RandomForest rf;
  ml::ForestParams params;
  params.n_trees = 60;
  params.seed = 7;
  rf.fit(x, y, {"a", "b"}, params);

  const auto flat = ml::FlatForest::freeze(rf);

  const std::vector<double> query = {50.0, 4.0};
  const double clean = flat.predict_row(query.data());

  std::vector<double> nan_query = query;
  nan_query[0] = std::numeric_limits<double>::quiet_NaN();
  const double repaired_reference =
      ml::reference_predict(rf, nan_query.data());

  fault::configure("ml.forest.nan_feature:1.0");
  const double faulted = flat.predict_row(query.data());
  fault::reset();

  EXPECT_EQ(faulted, repaired_reference);
  EXPECT_NE(faulted, clean);  // the fault really corrupted the feature
}

TEST_F(Chaos, GuardedPredictionSurvivesModelDivergence) {
  // The robustness headline for the guard layer: with counter models
  // randomly diverging (output blown up 1e6x at the exit point), the
  // guarded reduce1 prediction demotes along the fallback chain and
  // still grades at least B in hull, while a query far beyond the
  // training sizes is flagged as extrapolated.
  const gpusim::Device device(gpusim::arch_by_name("gtx580"));
  const ml::Dataset sweep_ds = profiling::sweep(
      profiling::workload_by_name("reduce1"), device,
      profiling::log2_sizes(1 << 14, 1 << 22, 16, 256));
  core::ProblemScalingOptions pso;
  pso.model.forest.n_trees = 120;
  pso.arch = gpusim::arch_by_name("gtx580");
  const auto predictor = core::ProblemScalingPredictor::build(sweep_ds, pso);

  // Arm the divergence only for the predict phase: the fit above is
  // clean, the queries below run against a 20% per-call blow-up rate.
  const fault::ScopedFaults faults("ml.counter_model.diverge:0.2", 11);

  for (const double s : {65536.0, 262144.0, 1048576.0}) {
    const auto rec = predictor.predict_guarded(s);
    EXPECT_NE(rec.grade, guard::Grade::kC) << "size " << s;
    EXPECT_FALSE(rec.extrapolated) << "size " << s;
    EXPECT_TRUE(std::isfinite(rec.value)) << "size " << s;
    EXPECT_GT(rec.value, 0.0) << "size " << s;
  }

  const auto far = predictor.predict_guarded(4.0 * (1 << 22));
  EXPECT_TRUE(far.extrapolated);

  // The divergence really fired; the demotion chain was exercised.
  EXPECT_GT(fault::stats(fault::points::kCounterModelDiverge).fired, 0u);
}

// ---- the serving layer under storage faults ----

class ChaosServe : public Chaos {
 protected:
  // A tiny but real predictor: the smallest reduce1 model that still
  // exercises every serialized section. Built once per process — the
  // reload tests re-export it with varying provenance to change the
  // bundle checksum without retraining.
  static const core::ProblemScalingPredictor& predictor() {
    static const core::ProblemScalingPredictor p = [] {
      const gpusim::Device dev(gpusim::arch_by_name("gtx580"));
      const ml::Dataset sweep_ds = profiling::sweep(
          profiling::workload_by_name("reduce1"), dev,
          profiling::log2_sizes(1 << 14, 1 << 20, 8, 256));
      core::ProblemScalingOptions pso;
      pso.model.forest.n_trees = 30;
      pso.arch = gpusim::arch_by_name("gtx580");
      return core::ProblemScalingPredictor::build(sweep_ds, pso);
    }();
    return p;
  }

  void export_reduce1(std::size_t trained_rows = 8) const {
    serve::export_model((dir_ / "reduce1.bfmodel").string(), "reduce1",
                        "reduce1", "gtx580", trained_rows, predictor());
  }

  void SetUp() override {
    Chaos::SetUp();
    dir_ = fs::temp_directory_path() /
           ("bf_chaos_serve_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    export_reduce1();
  }
  void TearDown() override {
    fs::remove_all(dir_);
    Chaos::TearDown();
  }
  fs::path dir_;
};

TEST_F(ChaosServe, BitrotQuarantinesBundleAndServerDegrades) {
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  serve::Server server(options);

  // Every load sees one flipped payload byte: the checksum must catch
  // it, the bundle is quarantined, and the server answers with an error
  // reply instead of dying or caching garbage.
  std::string error_reply;
  {
    const fault::ScopedFaults faults("serve.artifact.bitrot:1.0");
    error_reply =
        server.handle_line(R"({"model":"reduce1","size":65536,"id":7})");
    EXPECT_GT(fault::stats(fault::points::kServeArtifactBitrot).fired, 0u);
  }
  const auto parsed = serve::parse_json(error_reply);
  EXPECT_FALSE(parsed.find("ok")->boolean);
  EXPECT_NE(parsed.find("error")->str.find("checksum"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir_ / "reduce1.bfmodel"));
  EXPECT_TRUE(fs::exists(dir_ / "reduce1.bfmodel.quarantined"));

  // The cache stayed consistent: nothing resident, the failure counted,
  // and later requests still answer (with a clean miss error, since the
  // bundle is gone from disk).
  EXPECT_TRUE(server.registry().resident().empty());
  EXPECT_EQ(server.registry().stats().failures, 1u);
  const auto again = serve::parse_json(
      server.handle_line(R"({"model":"reduce1","size":65536})"));
  EXPECT_FALSE(again.find("ok")->boolean);
}

TEST_F(ChaosServe, TransientLoadFailureRecoversOnRetry) {
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  // Zero backoff: the immediate retry must reach the disk instead of
  // fast-failing inside the supervision window.
  options.reload.backoff_initial_ms = 0;
  serve::Server server(options);

  {
    // One injected I/O failure, then the fault budget is spent.
    const fault::ScopedFaults faults("serve.cache.load_fail:1.0:1");
    const auto reply = serve::parse_json(
        server.handle_line(R"({"model":"reduce1","size":65536})"));
    EXPECT_FALSE(reply.find("ok")->boolean);
  }
  // Graceful degradation is transient: the failed entry was dropped, so
  // the same request now loads the (intact) bundle and succeeds.
  const auto reply = serve::parse_json(
      server.handle_line(R"({"model":"reduce1","size":65536})"));
  EXPECT_TRUE(reply.find("ok")->boolean);
  EXPECT_GT(reply.find("predicted_ms")->number, 0.0);
  EXPECT_EQ(server.registry().stats().failures, 1u);
  EXPECT_EQ(server.registry().stats().loads, 2u);
}

TEST_F(ChaosServe, InjectedReloadCorruptionRollsBackAndQuarantines) {
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  options.reload.backoff_initial_ms = 0;
  serve::Server server(options);
  const auto first = serve::parse_json(
      server.handle_line(R"({"model":"reduce1","size":65536})"));
  ASSERT_TRUE(first.find("ok")->boolean);
  const double baseline = first.find("predicted_ms")->number;

  // A new bundle lands on disk, but its staged read is corrupted by the
  // injected fault: the reload must roll back, quarantine the file, and
  // keep generation 1 serving bit-identical predictions.
  export_reduce1(9);
  {
    const fault::ScopedFaults faults("serve.reload.corrupt:1.0:1");
    const auto reply = serve::parse_json(
        server.handle_line(R"({"cmd":"reload","model":"reduce1"})"));
    EXPECT_TRUE(reply.find("ok")->boolean);
    EXPECT_EQ(reply.find("status")->str, "rolled_back");
    EXPECT_EQ(reply.find("generation")->number, 1.0);
    EXPECT_GT(fault::stats(fault::points::kServeReloadCorrupt).fired, 0u);
  }
  EXPECT_FALSE(fs::exists(dir_ / "reduce1.bfmodel"));
  EXPECT_TRUE(fs::exists(dir_ / "reduce1.bfmodel.quarantined"));

  const auto again = serve::parse_json(
      server.handle_line(R"({"model":"reduce1","size":65536})"));
  EXPECT_TRUE(again.find("ok")->boolean);
  EXPECT_EQ(again.find("generation")->number, 1.0);
  EXPECT_EQ(again.find("predicted_ms")->number, baseline);

  const auto stats = serve::parse_json(
      server.handle_line(R"({"cmd":"stats"})"));
  EXPECT_EQ(stats.find("rollbacks")->number, 1.0);
  ASSERT_EQ(stats.find("models")->array.size(), 1u);
  EXPECT_EQ(stats.find("models")->array[0].find("rollbacks")->number, 1.0);
}

TEST_F(ChaosServe, InjectedCanaryFailureKeepsOldGenerationThenRecovers) {
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  options.reload.backoff_initial_ms = 0;
  serve::Server server(options);
  ASSERT_TRUE(serve::parse_json(
                  server.handle_line(R"({"model":"reduce1","size":65536})"))
                  .find("ok")
                  ->boolean);

  // The staged bundle parses fine but flunks golden-probe validation.
  export_reduce1(9);
  {
    const fault::ScopedFaults faults("serve.reload.canary_fail:1.0:1");
    const auto reply = serve::parse_json(
        server.handle_line(R"({"cmd":"reload","model":"reduce1"})"));
    EXPECT_EQ(reply.find("status")->str, "rolled_back");
    EXPECT_NE(reply.find("error")->str.find("canary"), std::string::npos);
    EXPECT_GT(fault::stats(fault::points::kServeReloadCanaryFail).fired, 0u);
  }
  EXPECT_TRUE(fs::exists(dir_ / "reduce1.bfmodel.quarantined"));
  const auto pinned = serve::parse_json(
      server.handle_line(R"({"model":"reduce1","size":65536})"));
  EXPECT_EQ(pinned.find("generation")->number, 1.0);

  // The rollback is transient: a healthy re-export promotes cleanly.
  export_reduce1(10);
  const auto reply = serve::parse_json(
      server.handle_line(R"({"cmd":"reload","model":"reduce1"})"));
  EXPECT_EQ(reply.find("status")->str, "promoted");
  EXPECT_EQ(reply.find("generation")->number, 2.0);
}

TEST_F(ChaosServe, NetDisconnectFaultDropsOneConnectionOnly) {
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  serve::Server server(options);
  serve::NetServerOptions net_options;
  net_options.unix_path = (dir_ / "chaos.sock").string();
  net_options.workers = 1;
  serve::testutil::RunningNetServer running(server, net_options);

  // The armed point forces the victim's parsed request to drop its
  // connection — the "peer vanished mid-stream" path, deterministically.
  {
    const fault::ScopedFaults faults("serve.net.disconnect:1.0:1");
    serve::testutil::TestClient victim =
        serve::testutil::TestClient::connect_unix(net_options.unix_path);
    ASSERT_TRUE(victim.send_line(
        R"({"model":"reduce1","size":65536,"id":"victim"})"));
    EXPECT_TRUE(victim.eof_within());
    EXPECT_GT(fault::stats(fault::points::kServeNetDisconnect).fired, 0u);
  }

  // The server survived and other connections see correct replies.
  serve::testutil::TestClient client =
      serve::testutil::TestClient::connect_unix(net_options.unix_path);
  ASSERT_TRUE(client.send_line(
      R"({"model":"reduce1","size":65536,"id":"ok"})"));
  std::string reply;
  ASSERT_TRUE(client.read_line(reply));
  const auto parsed = serve::parse_json(reply);
  EXPECT_TRUE(parsed.find("ok")->boolean) << reply;
  EXPECT_EQ(parsed.find("id")->str, "ok");
  EXPECT_EQ(running.counters().disconnects.load(), 1u);
  EXPECT_EQ(running.stop(), 0);
}

TEST_F(ChaosServe, NetStallFaultDelaysButEveryReplyArrives) {
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  serve::Server server(options);
  serve::NetServerOptions net_options;
  net_options.unix_path = (dir_ / "chaos.sock").string();
  net_options.workers = 1;
  serve::testutil::RunningNetServer running(server, net_options);

  const fault::ScopedFaults faults("serve.net.stall:1.0:3");
  serve::testutil::TestClient client =
      serve::testutil::TestClient::connect_unix(net_options.unix_path);
  for (const std::string id : {"s1", "s2"}) {
    ASSERT_TRUE(client.send_line(
        "{\"model\":\"reduce1\",\"size\":65536,\"id\":\"" + id + "\"}"));
    std::string reply;
    ASSERT_TRUE(client.read_line(reply)) << "stall swallowed reply " << id;
    const auto parsed = serve::parse_json(reply);
    EXPECT_TRUE(parsed.find("ok")->boolean) << reply;
    EXPECT_EQ(parsed.find("id")->str, id);
  }
  EXPECT_GT(fault::stats(fault::points::kServeNetStall).fired, 0u);
  EXPECT_EQ(running.stop(), 0);
}

// ---- size-grid hygiene (rides along with the failure policy) ----

TEST(SizeGrids, Log2SizesDeduplicatesAfterRounding) {
  // Coarse rounding collapses neighbouring log-spaced points; the result
  // must be strictly increasing with no repeated sizes.
  const auto sizes = profiling::log2_sizes(1000, 4000, 10, 1024);
  ASSERT_FALSE(sizes.empty());
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LT(sizes[i - 1], sizes[i]);
  }
  EXPECT_LT(sizes.size(), 10u);  // duplicates were really removed
}

}  // namespace
}  // namespace bf
