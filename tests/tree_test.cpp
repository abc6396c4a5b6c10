// Tests for the CART regression tree.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "forest_reference.hpp"
#include "ml/metrics.hpp"
#include "ml/tree.hpp"

namespace bf::ml {
namespace {

linalg::Matrix column_matrix(const std::vector<double>& x) {
  linalg::Matrix m(x.size(), 1);
  for (std::size_t i = 0; i < x.size(); ++i) m(i, 0) = x[i];
  return m;
}

TEST(RegressionTree, ConstantResponseSingleLeaf) {
  const auto x = column_matrix({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  const std::vector<double> y(10, 3.5);
  RegressionTree tree;
  Rng rng(1);
  tree.fit(x, y, TreeParams{}, rng);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(x)[0], 3.5);
}

TEST(RegressionTree, RecoversStepFunction) {
  // y = 0 for x < 5.5, 10 for x >= 5.5 — one split should nail it.
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    y.push_back(i < 10 ? 0.0 : 10.0);
  }
  const auto x = column_matrix(xs);
  RegressionTree tree;
  Rng rng(2);
  TreeParams params;
  params.min_node_size = 5;
  tree.fit(x, y, params, rng);
  const auto pred = tree.predict(x);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(pred[i], y[i]);
  }
}

TEST(RegressionTree, MinNodeSizeRespected) {
  std::vector<double> xs;
  std::vector<double> y;
  Rng noise(3);
  for (int i = 0; i < 40; ++i) {
    xs.push_back(i);
    y.push_back(i + noise.normal());
  }
  const auto x = column_matrix(xs);
  TreeParams params;
  params.min_node_size = 10;
  RegressionTree tree;
  Rng rng(4);
  tree.fit(x, y, params, rng);
  // 40 samples with min node 10 allows at most 4 leaves.
  EXPECT_LE(tree.leaf_count(), 4u);
}

TEST(RegressionTree, MaxDepthLimits) {
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(i);
    y.push_back(i);
  }
  const auto x = column_matrix(xs);
  TreeParams params;
  params.min_node_size = 1;
  params.max_depth = 3;
  RegressionTree tree;
  Rng rng(5);
  tree.fit(x, y, params, rng);
  EXPECT_LE(tree.depth(), 4u);  // root at depth 1, three splits below
  EXPECT_LE(tree.leaf_count(), 8u);
}

TEST(RegressionTree, PredictionIsTrainMeanPerLeaf) {
  // With a giant min_node_size the tree is a single leaf: the mean.
  const auto x = column_matrix({1, 2, 3, 4});
  const std::vector<double> y{1, 2, 3, 10};
  TreeParams params;
  params.min_node_size = 100;
  RegressionTree tree;
  Rng rng(6);
  tree.fit(x, y, params, rng);
  EXPECT_DOUBLE_EQ(tree.predict(x)[0], 4.0);
}

TEST(RegressionTree, ImpurityImportanceOnInformativeFeature) {
  // Feature 0 is pure noise, feature 1 determines the response.
  Rng rng(7);
  linalg::Matrix x(60, 2);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = static_cast<double>(i);
    y[i] = (i < 30) ? 0.0 : 5.0;
  }
  RegressionTree tree;
  Rng fit_rng(8);
  tree.fit(x, y, TreeParams{}, fit_rng);
  const auto imp = tree.impurity_importance(2);
  EXPECT_GT(imp[1], imp[0]);
  EXPECT_GT(imp[1], 0.0);
}

TEST(RegressionTree, BootstrapSampleFit) {
  const auto x = column_matrix({1, 2, 3, 4, 5, 6, 7, 8});
  const std::vector<double> y{1, 1, 1, 1, 9, 9, 9, 9};
  // Sample only the low half (with repetition): tree must predict ~1.
  RegressionTree tree;
  Rng rng(9);
  tree.fit(x, y, {0, 1, 2, 3, 0, 1, 2, 3}, TreeParams{}, rng);
  EXPECT_DOUBLE_EQ(tree.predict_row(x.row_ptr(7)), 1.0);
}

TEST(RegressionTree, SplitSearchMatchesIndexSortReference) {
  // Heavy ties: each column draws from its own small value set (one value
  // makes it constant; signed zeros compare equal), and every fit takes a
  // bootstrap sample, so rows repeat. The responses are continuous, so
  // the order of a tie group changes the bits of the sums that score a
  // split. n runs on both sides of std::sort's 16-element insertion
  // cutoff. Each fit must grow the index-sort reference's nodes bit for
  // bit and draw the same random numbers.
  const std::vector<std::vector<double>> value_sets = {
      {3.0}, {0.0, 1.0}, {-0.0, 0.0, 2.5, 7.0}, {1, 2, 3, 4, 5}, {}};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t fits = 0;
  std::size_t splits = 0;
  for (std::size_t n = 2; n <= 60; ++n) {
    Rng design(1000 + n);
    const std::size_t p = 2 + n % 4;
    linalg::Matrix x(n, p);
    for (std::size_t j = 0; j < p; ++j) {
      const auto& set = value_sets[(j + n) % value_sets.size()];
      for (std::size_t i = 0; i < n; ++i) {
        x(i, j) = set.empty() ? design.uniform(-1.0, 1.0)
                              : set[design.uniform_index(set.size())];
      }
    }
    std::vector<double> y(n);
    for (double& v : y) v = design.normal(0.0, 10.0);
    for (std::size_t min_node = 1; min_node <= 6; ++min_node) {
      for (std::size_t mtry = 1; mtry <= p; ++mtry) {
        TreeParams params;
        params.min_node_size = min_node;
        params.mtry = mtry;
        Rng rng(n * 100 + min_node * 10 + mtry);
        const std::vector<std::size_t> sample = rng.bootstrap_indices(n);
        Rng tree_rng = rng;
        Rng ref_rng = rng;
        RegressionTree tree;
        tree.fit(x, y, sample, params, tree_rng);
        ReferenceTree ref;
        ref.fit(x, y, sample, params, ref_rng);
        ++fits;
        ASSERT_EQ(tree.node_count(), ref.nodes.size())
            << "n " << n << " min node " << min_node << " mtry " << mtry;
        std::vector<double> purity(p, 0.0);
        for (std::size_t i = 0; i < ref.nodes.size(); ++i) {
          const auto got = tree.node_view(static_cast<std::int32_t>(i));
          const ReferenceNode& want = ref.nodes[i];
          EXPECT_EQ(got.left, want.left);
          EXPECT_EQ(got.right, want.right);
          EXPECT_EQ(got.feature, want.feature);
          EXPECT_EQ(bits(got.threshold), bits(want.threshold));
          EXPECT_EQ(bits(got.value), bits(want.value));
          if (want.left != -1) {
            purity[static_cast<std::size_t>(want.feature)] += want.sse_decrease;
            ++splits;
          }
        }
        const std::vector<double> got_purity = tree.impurity_importance(p);
        for (std::size_t f = 0; f < p; ++f) {
          EXPECT_EQ(bits(got_purity[f]), bits(purity[f]));
        }
        EXPECT_EQ(tree_rng(), ref_rng());
      }
    }
  }
  EXPECT_GT(fits, 1000u);
  EXPECT_GT(splits, 3 * fits);
}

TEST(RegressionTree, PruneCollapsesNoiseSplits) {
  // Step signal plus noise: a deep tree overfits; pruning with an alpha
  // between the noise-split gains and the signal-split gain must keep
  // the step and drop the noise.
  Rng noise(21);
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    xs.push_back(i);
    y.push_back((i < 40 ? 0.0 : 100.0) + noise.normal(0.0, 1.0));
  }
  const auto x = column_matrix(xs);
  TreeParams params;
  params.min_node_size = 2;
  RegressionTree tree;
  Rng rng(22);
  tree.fit(x, y, params, rng);
  const std::size_t leaves_before = tree.leaf_count();
  ASSERT_GT(leaves_before, 2u);  // overfit as expected

  const std::size_t collapsed = tree.prune(/*alpha=*/500.0);
  EXPECT_GT(collapsed, 0u);
  EXPECT_LT(tree.leaf_count(), leaves_before);
  EXPECT_GE(tree.leaf_count(), 2u);  // the step split survives
  // Predictions still recover the step.
  const double lo[1] = {10.0};
  const double hi[1] = {70.0};
  EXPECT_NEAR(tree.predict_row(lo), 0.0, 2.0);
  EXPECT_NEAR(tree.predict_row(hi), 100.0, 2.0);
}

TEST(RegressionTree, PruneEverythingGivesSingleLeaf) {
  std::vector<double> xs;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    xs.push_back(i);
    y.push_back(i);
  }
  const auto x = column_matrix(xs);
  TreeParams params;
  params.min_node_size = 2;
  RegressionTree tree;
  Rng rng(23);
  tree.fit(x, y, params, rng);
  tree.prune(1e12);  // absurd alpha: nothing is worth keeping
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_NEAR(tree.predict_row(std::vector<double>{5.0}.data()), 14.5,
              1e-9);
}

TEST(RegressionTree, PruneZeroAlphaIsNoop) {
  std::vector<double> xs;
  std::vector<double> y;
  Rng noise(24);
  for (int i = 0; i < 40; ++i) {
    xs.push_back(i);
    y.push_back(noise.normal());
  }
  const auto x = column_matrix(xs);
  RegressionTree tree;
  Rng rng(25);
  tree.fit(x, y, TreeParams{}, rng);
  const std::size_t leaves = tree.leaf_count();
  EXPECT_EQ(tree.prune(0.0), 0u);
  EXPECT_EQ(tree.leaf_count(), leaves);
}

TEST(RegressionTree, UnfittedPredictThrows) {
  RegressionTree tree;
  const double row[1] = {0.0};
  EXPECT_THROW(tree.predict_row(row), Error);
}

class TreeParamSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TreeParamSweep, FitQualityImprovesWithFinerLeaves) {
  const auto [min_node, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  linalg::Matrix x(120, 2);
  std::vector<double> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    x(i, 1) = rng.uniform(0, 10);
    y[i] = std::sin(x(i, 0)) + 0.3 * x(i, 1);
  }
  TreeParams params;
  params.min_node_size = static_cast<std::size_t>(min_node);
  RegressionTree tree;
  Rng fit_rng(11);
  tree.fit(x, y, params, fit_rng);
  const double fit_mse = mse(y, tree.predict(x));

  // Training error is bounded by the response variance (a single-leaf
  // tree achieves exactly that), and shrinks with smaller min_node.
  EXPECT_LE(fit_mse, variance(y) + 1e-12);
  if (min_node <= 2) {
    EXPECT_LT(fit_mse, 0.1 * variance(y));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, TreeParamSweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 10, 25),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace bf::ml
