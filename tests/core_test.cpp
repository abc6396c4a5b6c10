// Tests for the BlackForest core: model fitting/validation, PCA
// refinement, counter models, problem/hardware scaling predictors,
// bottleneck analysis and the end-to-end pipeline.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/bottleneck.hpp"
#include "core/counter_models.hpp"
#include "core/model.hpp"
#include "core/pca_refine.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "profiling/workloads.hpp"

namespace bf::core {
namespace {

using gpusim::Device;
using profiling::kSizeColumn;
using profiling::kTimeColumn;

/// Small cached sweeps (collected once per process) so the many tests
/// below stay fast.
const ml::Dataset& reduce1_sweep() {
  static const ml::Dataset ds = [] {
    const Device dev(gpusim::gtx580());
    return profiling::sweep(profiling::reduce_workload(1), dev,
                            profiling::log2_sizes(1 << 13, 1 << 20, 40, 256));
  }();
  return ds;
}

const ml::Dataset& reduce2_sweep() {
  static const ml::Dataset ds = [] {
    const Device dev(gpusim::gtx580());
    return profiling::sweep(profiling::reduce_workload(2), dev,
                            profiling::log2_sizes(1 << 13, 1 << 20, 40, 256));
  }();
  return ds;
}

const ml::Dataset& matmul_sweep() {
  static const ml::Dataset ds = [] {
    const Device dev(gpusim::gtx580());
    return profiling::sweep(profiling::matmul_workload(), dev,
                            profiling::log2_sizes(32, 512, 18, 16));
  }();
  return ds;
}

ModelOptions fast_model() {
  ModelOptions opt;
  opt.forest.n_trees = 120;
  return opt;
}

// ---- BlackForestModel ----

TEST(BlackForestModel, FitsAndValidates) {
  const auto model = BlackForestModel::fit(reduce1_sweep(), fast_model());
  EXPECT_GT(model.pct_var_explained(), 70.0);
  EXPECT_GT(model.test_explained_variance(), 0.5);
  EXPECT_GT(model.forest().n_trees(), 0u);
  // time_ms must not leak into the predictors.
  for (const auto& p : model.predictors()) {
    EXPECT_NE(p, kTimeColumn);
  }
  EXPECT_EQ(model.train_data().num_rows() + model.test_data().num_rows(),
            reduce1_sweep().num_rows());
}

TEST(BlackForestModel, ConstantColumnsDropped) {
  ml::Dataset ds = reduce2_sweep();
  // reduce2 has zero bank conflicts everywhere: the counter must be
  // dropped ("vanishes from the analysis", paper §5.3).
  const auto model = BlackForestModel::fit(ds, fast_model());
  const auto& preds = model.predictors();
  EXPECT_EQ(std::find(preds.begin(), preds.end(), "l1_shared_bank_conflict"),
            preds.end());
}

TEST(BlackForestModel, ExcludeOptionRespected) {
  ModelOptions opt = fast_model();
  opt.exclude = {"power_avg_w", "ipc"};
  const auto model = BlackForestModel::fit(reduce1_sweep(), opt);
  for (const auto& p : model.predictors()) {
    EXPECT_NE(p, "power_avg_w");
    EXPECT_NE(p, "ipc");
  }
}

TEST(BlackForestModel, RefitWithSubsetKeepsPower) {
  const auto model = BlackForestModel::fit(reduce1_sweep(), fast_model());
  const auto top = model.top_variables(6);
  const auto reduced = model.refit_with(top);
  EXPECT_EQ(reduced.predictors().size(), 6u);
  // The paper's stage-3 check: a handful of variables retains most of
  // the predictive power.
  EXPECT_GT(reduced.pct_var_explained(),
            0.8 * model.pct_var_explained());
}

TEST(BlackForestModel, PredictOnNamedColumns) {
  const auto model = BlackForestModel::fit(reduce1_sweep(), fast_model());
  const auto pred = model.predict(model.test_data());
  EXPECT_EQ(pred.size(), model.test_data().num_rows());
  for (const double v : pred) EXPECT_GT(v, 0.0);
}

TEST(BlackForestModel, MissingResponseRejected) {
  ml::Dataset ds;
  ds.add_column("x", {1, 2, 3});
  EXPECT_THROW(BlackForestModel::fit(ds, fast_model()), Error);
}

// ---- PCA refinement ----

TEST(PcaRefine, FacetClassification) {
  EXPECT_EQ(counter_facet("gld_request"), Facet::kMemoryIntensity);
  EXPECT_EQ(counter_facet("ipc"), Facet::kParallelism);
  EXPECT_EQ(counter_facet("warp_execution_efficiency"),
            Facet::kSimdEfficiency);
  EXPECT_EQ(counter_facet("l2_read_throughput"), Facet::kMemoryThroughput);
  EXPECT_EQ(counter_facet("size"), Facet::kProblem);
  EXPECT_EQ(counter_facet("mystery_counter"), Facet::kOther);
}

TEST(PcaRefine, ComponentsCoverVarianceTarget) {
  const auto refinement = pca_refine(reduce1_sweep());
  EXPECT_GE(refinement.components.size(), 1u);
  EXPECT_LE(refinement.components.size(), 6u);
  // The paper reports >= 96-97% for the reduce kernels with 4 PCs; we
  // only require the configured cap to land in a sane band.
  EXPECT_GT(refinement.variance_covered, 0.8);
  for (const auto& comp : refinement.components) {
    EXPECT_FALSE(comp.label.empty());
    EXPECT_GE(comp.variance_share, 0.0);
  }
  // Shares sorted descending (PC1 is the biggest).
  for (std::size_t i = 1; i < refinement.components.size(); ++i) {
    EXPECT_GE(refinement.components[i - 1].variance_share,
              refinement.components[i].variance_share - 1e-9);
  }
}

TEST(PcaRefine, StrongLoadingsNonEmptyForLeadComponent) {
  const auto refinement = pca_refine(reduce1_sweep());
  EXPECT_FALSE(refinement.components.front().loadings.empty());
}

TEST(PcaRefine, ExclusionsHonoured) {
  PcaRefineOptions opt;
  opt.exclude = {kSizeColumn};
  const auto refinement = pca_refine(reduce1_sweep(), opt);
  for (const auto& comp : refinement.components) {
    for (const auto& [name, _] : comp.loadings) {
      EXPECT_NE(name, kSizeColumn);
    }
  }
}

// ---- counter models ----

TEST(CounterModels, PowerLawCounterRecovered) {
  // Synthetic counter = 3 * size^2 (exact power law).
  ml::Dataset ds;
  std::vector<double> sizes;
  std::vector<double> counter;
  for (int i = 4; i <= 12; ++i) {
    const double s = std::exp2(i);
    sizes.push_back(s);
    counter.push_back(3.0 * s * s);
  }
  ds.add_column("size", sizes);
  ds.add_column("c", counter);
  const auto models = CounterModels::fit(ds, {"c"});
  ASSERT_EQ(models.info().size(), 1u);
  EXPECT_GT(models.info()[0].r2, 0.999);
  // Extrapolate one octave: must stay within a few percent.
  const auto pred = models.predict(std::exp2(13));
  const double expected = 3.0 * std::exp2(26);
  EXPECT_NEAR(pred[0].second / expected, 1.0, 0.05);
}

TEST(CounterModels, SaturatingCounterViaMars) {
  // A throughput-style counter that rises then saturates.
  ml::Dataset ds;
  std::vector<double> sizes;
  std::vector<double> counter;
  for (int i = 0; i < 30; ++i) {
    const double s = 64.0 * (i + 1);
    sizes.push_back(s);
    counter.push_back(150.0 * s / (s + 500.0));
  }
  ds.add_column("size", sizes);
  ds.add_column("tp", counter);
  const auto models = CounterModels::fit(ds, {"tp"});
  EXPECT_GT(models.info()[0].r2, 0.98);
}

TEST(CounterModels, PredictSchema) {
  const auto& ds = matmul_sweep();
  const auto models =
      CounterModels::fit(ds, {"gst_request", "gld_request", kSizeColumn});
  const auto at64 = models.predict(64);
  const auto at128 = models.predict(128);
  // One (counter, value) pair per modelled counter, in fit order; the
  // size input needs no model and is not echoed back.
  ASSERT_EQ(at64.size(), 2u);
  ASSERT_EQ(at128.size(), 2u);
  EXPECT_EQ(at64[0].first, "gst_request");
  EXPECT_EQ(at64[1].first, "gld_request");
  // gst_request for MM is (n/16)^2 blocks * 8 warps: quadratic growth.
  EXPECT_GT(at128[0].second, 3.0 * at64[0].second);
}

TEST(CounterModels, InfoQualityOnRealSweep) {
  const auto& ds = matmul_sweep();
  const auto models = CounterModels::fit(
      ds, {"gld_request", "gst_request", "inst_executed"});
  EXPECT_GT(models.average_r2(), 0.95);
  for (const auto& info : models.info()) {
    EXPECT_GE(info.residual_deviance, 0.0);
  }
}

TEST(CounterModels, EmptyInputsRejected) {
  ml::Dataset ds;
  ds.add_column("size", {1, 2, 3, 4});
  ds.add_column("c", {1, 2, 3, 4});
  EXPECT_THROW(CounterModels::fit(ds, {}), Error);
}

// ---- problem scaling ----

TEST(ProblemScaling, MatMulPredictionsTrackMeasurements) {
  ProblemScalingOptions opt;
  opt.model.forest.n_trees = 150;
  opt.model.exclude = {"power_avg_w", "flop_sp_efficiency"};
  const auto pred = ProblemScalingPredictor::build(matmul_sweep(), opt);

  const Device dev(gpusim::gtx580());
  profiling::Profiler prof;
  const std::vector<double> sizes{96, 192, 384};
  std::vector<double> measured;
  for (const double s : sizes) {
    measured.push_back(
        prof.profile(profiling::matmul_workload(), dev, s).time_ms);
  }
  const auto series = pred.validate(sizes, measured);
  EXPECT_GT(series.explained_variance, 0.9);
  EXPECT_LT(series.median_abs_pct_error, 60.0);
}

TEST(ProblemScaling, RetainedSetIncludesSize) {
  const auto pred = ProblemScalingPredictor::build(matmul_sweep());
  const auto& retained = pred.retained();
  EXPECT_NE(std::find(retained.begin(), retained.end(), kSizeColumn),
            retained.end());
  EXPECT_LE(retained.size(), 7u);  // top_k + size
}

TEST(ProblemScaling, GuardedQueriesRejectSizesThatAreNotFinitePositive) {
  ProblemScalingOptions opt;
  opt.model.forest.n_trees = 20;
  opt.arch = gpusim::gtx580();
  const auto pred = ProblemScalingPredictor::build(reduce1_sweep(), opt);
  // A NaN size would otherwise pass the hull check unflagged.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf, -5.0, 0.0}) {
    EXPECT_THROW((void)pred.predict_guarded(bad), Error) << bad;
    EXPECT_THROW((void)pred.validate({65536.0, bad}, {1.0, 1.0}), Error)
        << bad;
  }
  EXPECT_GT(pred.predict_guarded(65536.0).value, 0.0);
}

TEST(ProblemScaling, LoadRejectsAForestTheQueryPlanCannotFill) {
  ProblemScalingOptions opt;
  opt.model.forest.n_trees = 20;
  opt.arch = gpusim::gtx580();
  const auto pred = ProblemScalingPredictor::build(reduce1_sweep(), opt);
  std::ostringstream os;
  pred.save(os);
  const std::string text = os.str();
  {
    std::istringstream is(text);
    EXPECT_EQ(ProblemScalingPredictor::load(is).predict_guarded(65536.0).value,
              pred.predict_guarded(65536.0).value);
  }
  // A modelled counter the reduced forest does not take as a predictor.
  const std::size_t models = text.find("bf_counter_models 3\nentries ");
  ASSERT_NE(models, std::string::npos);
  std::string renamed = text;
  const std::size_t entry =
      renamed.find('\n', renamed.find("\nentries ", models) + 1) + 1;
  renamed.replace(entry, renamed.find(' ', entry) - entry, "no_such_counter");
  std::istringstream is(renamed);
  try {
    (void)ProblemScalingPredictor::load(is);
    ADD_FAILURE() << "loaded a forest the query plan cannot fill";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "does not take generated feature 'no_such"),
              std::string::npos)
        << e.what();
  }
}

TEST(ProblemScaling, ReducedModelKeepsPower) {
  const auto pred = ProblemScalingPredictor::build(matmul_sweep());
  EXPECT_GT(pred.reduced_model().pct_var_explained(),
            0.7 * pred.full_model().pct_var_explained());
}

// ---- hardware scaling ----

const ml::Dataset& nw_sweep(const gpusim::ArchSpec& arch) {
  static std::map<std::string, ml::Dataset> cache;
  const auto it = cache.find(arch.name);
  if (it != cache.end()) return it->second;
  const Device dev(arch);
  profiling::SweepOptions opt;
  opt.machine_characteristics = true;
  opt.profiler.seed = arch.name == "gtx580" ? 10 : 20;
  return cache
      .emplace(arch.name,
               profiling::sweep(profiling::nw_workload(), dev,
                                profiling::linear_sizes(64, 1536, 64), opt))
      .first->second;
}

TEST(HardwareScaling, ImportanceSimilarityBounds) {
  const auto a = BlackForestModel::fit(nw_sweep(gpusim::gtx580()),
                                       fast_model());
  EXPECT_DOUBLE_EQ(
      HardwareScalingPredictor::importance_similarity(a, a, 5), 1.0);
}

TEST(HardwareScaling, NwCrossGenerationUsesMixedVariables) {
  HardwareScalingOptions opt;
  opt.model.forest.n_trees = 150;
  const auto result = HardwareScalingPredictor::predict(
      nw_sweep(gpusim::gtx580()), nw_sweep(gpusim::kepler_k20m()), opt);
  // Fermi's top set contains cache counters Kepler doesn't care about:
  // the similarity test must trigger the paper's workaround.
  EXPECT_LT(result.similarity, 0.9);
  EXPECT_FALSE(result.source_top.empty());
  EXPECT_FALSE(result.target_top.empty());
  EXPECT_FALSE(result.variables.empty());
  // Predictions exist for every target test row and are positive.
  EXPECT_FALSE(result.series.predicted_ms.empty());
  for (const double v : result.series.predicted_ms) EXPECT_GT(v, 0.0);
  // Shape claim (Fig 8c): usable but imperfect accuracy.
  EXPECT_GT(result.series.explained_variance, 0.3);
}

TEST(HardwareScaling, MixedVariablesRestrictedToCommonCounters) {
  HardwareScalingOptions opt;
  opt.model.forest.n_trees = 100;
  opt.similarity_threshold = 1.01;  // force the mixed path
  const auto result = HardwareScalingPredictor::predict(
      nw_sweep(gpusim::gtx580()), nw_sweep(gpusim::kepler_k20m()), opt);
  EXPECT_TRUE(result.used_mixed_variables);
  for (const auto& v : result.variables) {
    EXPECT_NE(v, "l1_shared_bank_conflict");
    EXPECT_NE(v, "shared_load_replay");
    EXPECT_NE(v, "shared_store_replay");
  }
}

TEST(HardwareScaling, RequiresMachineCharacteristics) {
  // Sweeps without Table 2 columns must be rejected loudly.
  const Device dev(gpusim::gtx580());
  const auto plain = profiling::sweep(
      profiling::vecadd_workload(), dev, {1 << 14, 1 << 15, 1 << 16});
  EXPECT_THROW(
      HardwareScalingPredictor::predict(plain, plain, {}), Error);
}

// ---- bottleneck analysis ----

TEST(Bottleneck, PatternClassification) {
  EXPECT_EQ(classify_counter("l1_shared_bank_conflict"),
            Pattern::kSharedBankConflicts);
  EXPECT_EQ(classify_counter("l1_global_load_miss"),
            Pattern::kUncoalescedAccess);
  EXPECT_EQ(classify_counter("divergent_branch"),
            Pattern::kBranchDivergence);
  EXPECT_EQ(classify_counter("achieved_occupancy"), Pattern::kLowOccupancy);
  EXPECT_EQ(classify_counter("dram_read_throughput"),
            Pattern::kMemoryBandwidth);
  EXPECT_EQ(classify_counter("size"), Pattern::kProblemScale);
  EXPECT_EQ(classify_counter("unknown_thing"), Pattern::kUnclassified);
}

TEST(Bottleneck, EveryPatternHasNameAndRemedy) {
  for (int p = 0; p <= static_cast<int>(Pattern::kUnclassified); ++p) {
    EXPECT_GT(std::string(pattern_name(static_cast<Pattern>(p))).size(), 3u);
    EXPECT_GT(std::string(pattern_remedy(static_cast<Pattern>(p))).size(),
              10u);
  }
}

TEST(Bottleneck, Reduce1ReportFlagsConflictRelatedCounters) {
  const auto model = BlackForestModel::fit(reduce1_sweep(), fast_model());
  const auto report =
      analyze_bottlenecks(model, "reduce1", "gtx580", {});
  EXPECT_FALSE(report.findings.empty());
  EXPECT_FALSE(report.ranked_patterns.empty());
  // reduce1's conflict machinery must surface somewhere in the findings'
  // pattern mix (via the shared_* counters or the conflict counter).
  bool has_shared = false;
  for (const auto& [pattern, mass] : report.ranked_patterns) {
    (void)mass;
    if (pattern == Pattern::kSharedBankConflicts) has_shared = true;
  }
  EXPECT_TRUE(has_shared);
  const std::string text = to_text(report);
  EXPECT_NE(text.find("reduce1"), std::string::npos);
  EXPECT_NE(text.find("%IncMSE"), std::string::npos);
}

TEST(Bottleneck, FindingsSortedByImportance) {
  const auto model = BlackForestModel::fit(reduce1_sweep(), fast_model());
  const auto report = analyze_bottlenecks(model, "r", "a", {});
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    EXPECT_GE(report.findings[i - 1].importance,
              report.findings[i].importance);
  }
}

// ---- pipeline ----

TEST(Pipeline, EndToEndWithRepositoryCache) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("bf_pipe_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  PipelineConfig cfg;
  cfg.workload = profiling::reduce_workload(2);
  cfg.arch = gpusim::gtx580();
  cfg.sizes = profiling::log2_sizes(1 << 13, 1 << 18, 25, 256);
  cfg.model.forest.n_trees = 100;
  cfg.repository_root = root.string();

  const auto first = run_analysis(cfg);
  EXPECT_GT(first.data.num_rows(), 20u);
  EXPECT_GT(first.model.pct_var_explained(), 50.0);
  EXPECT_FALSE(first.report.findings.empty());
  EXPECT_GE(first.pca.components.size(), 1u);

  // Second run loads from the repository: identical data.
  const auto second = run_analysis(cfg);
  EXPECT_EQ(second.data.num_rows(), first.data.num_rows());
  EXPECT_DOUBLE_EQ(second.data.at(0, kTimeColumn),
                   first.data.at(0, kTimeColumn));
  std::filesystem::remove_all(root);
}

TEST(Pipeline, EmptySizesRejected) {
  PipelineConfig cfg;
  cfg.workload = profiling::vecadd_workload();
  cfg.arch = gpusim::gtx580();
  EXPECT_THROW(run_analysis(cfg), Error);
}

}  // namespace
}  // namespace bf::core
