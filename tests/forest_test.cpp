// Tests for the random-forest regressor: OOB statistics, permutation
// importance, partial dependence (on the frozen engine), determinism.
// Predictions are checked through the test-local reference walk of the
// training trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "forest_reference.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"
#include "ml/metrics.hpp"

namespace bf::ml {
namespace {

/// Synthetic regression problem: y = 5*x0 + noise; x1 is pure noise.
struct Synthetic {
  linalg::Matrix x;
  std::vector<double> y;
};

Synthetic make_synthetic(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Synthetic s{linalg::Matrix(n, 2), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    s.x(i, 0) = rng.uniform(0, 10);
    s.x(i, 1) = rng.uniform(0, 10);
    s.y[i] = 5.0 * s.x(i, 0) + rng.normal(0.0, 0.5);
  }
  return s;
}

ForestParams fast_params() {
  ForestParams p;
  p.n_trees = 80;
  p.seed = 77;
  return p;
}

TEST(RandomForest, FitsSignalWell) {
  const auto data = make_synthetic(200, 1);
  RandomForest rf;
  rf.fit(data.x, data.y, {"signal", "noise"}, fast_params());
  EXPECT_GT(rf.pct_var_explained(), 90.0);
  const auto pred = reference_predict(rf, data.x);
  EXPECT_GT(r2(data.y, pred), 0.97);
}

TEST(RandomForest, PredictionsBoundedByResponseRange) {
  const auto data = make_synthetic(150, 2);
  RandomForest rf;
  rf.fit(data.x, data.y, {"signal", "noise"}, fast_params());
  const auto [lo, hi] = std::minmax_element(data.y.begin(), data.y.end());
  // Tree leaves average training responses, so forest output can never
  // leave the observed range — the RF extrapolation property the paper's
  // hardware-scaling section wrestles with.
  linalg::Matrix probe(1, 2);
  probe(0, 0) = 100.0;  // far outside training range
  probe(0, 1) = -50.0;
  const double far = reference_predict(rf, probe.row_ptr(0));
  EXPECT_GE(far, *lo);
  EXPECT_LE(far, *hi);
}

TEST(RandomForest, ImportanceRanksSignalAboveNoise) {
  const auto data = make_synthetic(200, 3);
  RandomForest rf;
  rf.fit(data.x, data.y, {"signal", "noise"}, fast_params());
  const auto imp = rf.importance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_EQ(imp[0].name, "signal");
  EXPECT_GT(imp[0].pct_inc_mse, imp[1].pct_inc_mse);
  EXPECT_GT(imp[0].mean_inc_mse, 0.0);
  EXPECT_GT(imp[0].inc_node_purity, imp[1].inc_node_purity);
}

TEST(RandomForest, TopVariables) {
  const auto data = make_synthetic(150, 4);
  RandomForest rf;
  rf.fit(data.x, data.y, {"signal", "noise"}, fast_params());
  const auto top = rf.top_variables(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], "signal");
  EXPECT_EQ(rf.top_variables(10).size(), 2u);
}

TEST(RandomForest, ImportanceDisabledThrows) {
  const auto data = make_synthetic(60, 5);
  ForestParams p = fast_params();
  p.importance = false;
  RandomForest rf;
  rf.fit(data.x, data.y, {"a", "b"}, p);
  EXPECT_THROW(rf.importance(), Error);
}

TEST(RandomForest, OobPredictionsCoverMostRows) {
  const auto data = make_synthetic(100, 6);
  RandomForest rf;
  rf.fit(data.x, data.y, {"a", "b"}, fast_params());
  const auto& oob = rf.oob_predictions();
  ASSERT_EQ(oob.size(), 100u);
  std::size_t covered = 0;
  for (const double v : oob) {
    if (!std::isnan(v)) ++covered;
  }
  // With 80 trees each row is OOB for ~37% of trees.
  EXPECT_EQ(covered, 100u);
  EXPECT_GT(rf.oob_mse(), 0.0);
}

TEST(RandomForest, DeterministicForSeed) {
  const auto data = make_synthetic(80, 7);
  RandomForest a;
  RandomForest b;
  a.fit(data.x, data.y, {"s", "n"}, fast_params());
  b.fit(data.x, data.y, {"s", "n"}, fast_params());
  linalg::Matrix probe(1, 2);
  probe(0, 0) = 3.0;
  probe(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(reference_predict(a, probe.row_ptr(0)),
                   reference_predict(b, probe.row_ptr(0)));
  EXPECT_DOUBLE_EQ(a.oob_mse(), b.oob_mse());
  const auto ia = a.importance();
  const auto ib = b.importance();
  for (std::size_t i = 0; i < ia.size(); ++i) {
    EXPECT_EQ(ia[i].name, ib[i].name);
    EXPECT_DOUBLE_EQ(ia[i].pct_inc_mse, ib[i].pct_inc_mse);
  }
}

TEST(RandomForest, ThreadedTrainingMatchesSerial) {
  const auto data = make_synthetic(80, 8);
  ForestParams serial = fast_params();
  ForestParams threaded = fast_params();
  threaded.threads = 4;
  RandomForest a;
  RandomForest b;
  a.fit(data.x, data.y, {"s", "n"}, serial);
  b.fit(data.x, data.y, {"s", "n"}, threaded);
  // Per-tree RNGs are derived before dispatch, so the forests must be
  // identical regardless of the thread count.
  EXPECT_DOUBLE_EQ(a.oob_mse(), b.oob_mse());
  linalg::Matrix probe(1, 2);
  probe(0, 0) = 5.0;
  probe(0, 1) = 5.0;
  EXPECT_DOUBLE_EQ(reference_predict(a, probe.row_ptr(0)),
                   reference_predict(b, probe.row_ptr(0)));
}

TEST(RandomForest, PartialDependenceTracksMonotoneSignal) {
  const auto data = make_synthetic(200, 9);
  RandomForest rf;
  rf.fit(data.x, data.y, {"signal", "noise"}, fast_params());
  const auto frozen = FlatForest::freeze(rf);
  const auto curve = frozen.partial_dependence(data.x, "signal", 15);
  ASSERT_EQ(curve.size(), 15u);
  // y rises with the signal: the curve must increase overall.
  EXPECT_GT(curve.back().y, curve.front().y + 10.0);
  // Grid spans the observed feature range.
  EXPECT_NEAR(curve.front().x, 0.0, 0.5);
  EXPECT_NEAR(curve.back().x, 10.0, 0.5);
  // Noise has a comparatively flat curve.
  const auto flat = frozen.partial_dependence(data.x, "noise", 15);
  const double signal_span =
      std::fabs(curve.back().y - curve.front().y);
  double flat_span = 0.0;
  for (const auto& p : flat) {
    flat_span = std::max(flat_span, std::fabs(p.y - flat.front().y));
  }
  EXPECT_LT(flat_span, 0.25 * signal_span);
}

TEST(RandomForest, PartialDependenceUnknownFeatureThrows) {
  const auto data = make_synthetic(60, 10);
  RandomForest rf;
  rf.fit(data.x, data.y, {"a", "b"}, fast_params());
  EXPECT_THROW(FlatForest::freeze(rf).partial_dependence(data.x, "zzz"),
               Error);
}

TEST(RandomForest, InputValidation) {
  RandomForest rf;
  linalg::Matrix x(4, 2);
  const std::vector<double> y{1, 2, 3};
  EXPECT_THROW(rf.fit(x, y, {"a", "b"}, fast_params()), Error);
  const std::vector<double> y4{1, 2, 3, 4};
  EXPECT_THROW(rf.fit(x, y4, {"a"}, fast_params()), Error);
  EXPECT_THROW(FlatForest::freeze(rf), Error);  // unfitted
}

class ForestParamSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ForestParamSweep, OobErrorReasonableAcrossParams) {
  const auto [n_trees, mtry] = GetParam();
  const auto data = make_synthetic(150, 11);
  ForestParams p;
  p.n_trees = n_trees;
  p.mtry = mtry;
  p.seed = 31;
  RandomForest rf;
  rf.fit(data.x, data.y, {"signal", "noise"}, p);
  // Even modest forests explain the dominant linear signal.
  EXPECT_GT(rf.pct_var_explained(), 75.0);
  // OOB MSE is on the scale of the noise, far below response variance.
  EXPECT_LT(rf.oob_mse(), variance(data.y) * 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    Params, ForestParamSweep,
    ::testing::Combine(::testing::Values(25u, 100u, 300u),
                       ::testing::Values(0u, 1u, 2u)));

class ForestTreeGrowth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestTreeGrowth, MoreTreesNeverExplode) {
  const auto data = make_synthetic(100, 12);
  ForestParams p;
  p.n_trees = GetParam();
  p.seed = 5;
  RandomForest rf;
  rf.fit(data.x, data.y, {"s", "n"}, p);
  EXPECT_EQ(rf.n_trees(), GetParam());
  EXPECT_LT(rf.oob_mse(), variance(data.y));
}

INSTANTIATE_TEST_SUITE_P(TreeCounts, ForestTreeGrowth,
                         ::testing::Values(1u, 5u, 50u, 200u));

}  // namespace
}  // namespace bf::ml
