// Tests for the random-forest regressor: OOB statistics, permutation
// importance, partial dependence (on the frozen engine), determinism.
// Predictions are checked through the test-local reference walk of the
// training trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/counter_models.hpp"
#include "forest_reference.hpp"
#include "ml/dataset.hpp"
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

TEST(RandomForest, FitsInsidePoolTasksMatchMainThreadFits) {
  // Trees and counter models are fitted on ThreadPool::global(). Four
  // whole fits run from inside pool tasks, so each one's parallel_for is
  // nested in another; every result must match a fit made on the main
  // thread bit for bit, whatever the pool's schedule.
  const auto data = make_synthetic(120, 8);
  Dataset sweep;
  std::vector<double> sizes, quad, sat, noisy;
  Rng rng(5);
  for (int i = 0; i < 24; ++i) {
    const double s = std::exp2(6.0 + 0.5 * i);
    sizes.push_back(s);
    quad.push_back(3.0 * s * s);
    sat.push_back(150.0 * s / (s + 500.0));
    noisy.push_back(s * rng.uniform(0.8, 1.2));
  }
  sweep.add_column("size", sizes);
  sweep.add_column("quad", quad);
  sweep.add_column("sat", sat);
  sweep.add_column("noisy", noisy);

  const auto forest_fit = [&] {
    RandomForest rf;
    rf.fit(data.x, data.y, {"s", "n"}, fast_params());
    std::ostringstream os;
    os.precision(17);  // round-trips every double
    FlatForest::freeze(rf).save(os);
    os << rf.oob_mse();
    for (const auto& v : rf.importance()) {
      os << ' ' << v.name << ' ' << v.pct_inc_mse << ' ' << v.mean_inc_mse
         << ' ' << v.inc_node_purity;
    }
    return os.str();
  };
  const auto counter_fit = [&] {
    std::ostringstream os;
    core::CounterModels::fit(sweep, {"quad", "sat", "noisy"}).save(os);
    return os.str();
  };
  const std::string forest_main = forest_fit();
  const std::string counters_main = counter_fit();
  std::vector<std::string> forests(4);
  std::vector<std::string> counters(4);
  ThreadPool::global().parallel_for(0, 4, [&](std::size_t i) {
    forests[i] = forest_fit();
    counters[i] = counter_fit();
  });
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(forests[i], forest_main) << "nested fit " << i;
    EXPECT_EQ(counters[i], counters_main) << "nested fit " << i;
  }
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

TEST(RandomForest, RejectsNonFiniteTrainingCells) {
  // A NaN feature breaks the split search's ordering, and a NaN response
  // or an infinite feature fits into NaN or meaningless statistics. The
  // fit refuses each before any tree grows and names the column and row.
  Rng rng(12);
  const std::vector<std::string> names = {"c0", "c1", "c2", "c3", "c4",
                                          "c5"};
  linalg::Matrix x(40, 6);
  std::vector<double> y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 6; ++j) x(i, j) = rng.uniform(0, 10);
    y[i] = 2.0 * x(i, 0) + x(i, 3) + rng.normal(0.0, 0.5);
  }
  struct Bad {
    bool response;
    std::size_t column;
    double value;
    std::string names;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Bad& bad : {Bad{false, 3, nan, "feature c3"},
                         Bad{true, 0, nan, "response"},
                         Bad{false, 5, inf, "feature c5"}}) {
    linalg::Matrix bx = x;
    std::vector<double> by = y;
    (bad.response ? by[17] : bx(17, bad.column)) = bad.value;
    RandomForest rf;
    try {
      rf.fit(bx, by, names, fast_params());
      ADD_FAILURE() << "fit accepted a non-finite " << bad.names;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(bad.names), std::string::npos) << what;
      EXPECT_NE(what.find("row 17"), std::string::npos) << what;
    }
  }
}

TEST(RandomForest, FitMatchesReferenceForest) {
  // The hardware-scaling shape in miniature: two-valued machine-like
  // columns, a constant column no split can test, a four-valued counter
  // and continuous counters, 43 rows. Every importance field, OOB
  // prediction and OOB statistic must equal the serial reference fit
  // (index-sort trees, copied-row permutation importance, re-walked OOB
  // votes) bit for bit.
  Rng rng(31);
  const std::size_t n = 43;
  const std::size_t p = 10;
  linalg::Matrix x(n, p);
  std::vector<double> y(n);
  std::vector<std::string> names;
  for (std::size_t j = 0; j < p; ++j) names.push_back("v" + std::to_string(j));
  for (std::size_t i = 0; i < n; ++i) {
    const bool second = i >= 23;
    x(i, 0) = second ? 1.0 : 0.0;
    x(i, 1) = second ? 3.0 : 1.5;
    x(i, 2) = 7.0;
    x(i, 3) = std::floor(rng.uniform(0.0, 4.0));
    for (std::size_t j = 4; j < p; ++j) x(i, j) = rng.uniform(0.0, 100.0);
    y[i] = x(i, 4) * (1.0 + x(i, 0)) + 10.0 * x(i, 3) + rng.normal(0.0, 1.0);
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  struct Shape {
    std::size_t min_node_size;
    std::size_t mtry;
    bool importance;
  };
  for (const Shape& shape :
       {Shape{5, 0, true}, Shape{2, 0, true}, Shape{1, p, true},
        Shape{2, 3, false}}) {
    ForestParams params;
    params.n_trees = 40;
    params.seed = 99 + shape.min_node_size;
    params.min_node_size = shape.min_node_size;
    params.mtry = shape.mtry;
    params.importance = shape.importance;
    RandomForest rf;
    rf.fit(x, y, names, params);
    const ReferenceForestFit ref = reference_forest_fit(x, y, names, params);
    ASSERT_EQ(rf.oob_predictions().size(), n);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(bits(rf.oob_predictions()[r]), bits(ref.oob_predictions[r]))
          << "row " << r;
    }
    EXPECT_EQ(bits(rf.oob_mse()), bits(ref.oob_mse));
    EXPECT_EQ(bits(rf.pct_var_explained()), bits(ref.pct_var_explained));
    if (!shape.importance) continue;
    const auto got = rf.importance();
    ASSERT_EQ(got.size(), ref.importance.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].name, ref.importance[k].name);
      EXPECT_EQ(bits(got[k].pct_inc_mse), bits(ref.importance[k].pct_inc_mse));
      EXPECT_EQ(bits(got[k].mean_inc_mse),
                bits(ref.importance[k].mean_inc_mse));
      EXPECT_EQ(bits(got[k].inc_node_purity),
                bits(ref.importance[k].inc_node_purity));
    }
  }
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
