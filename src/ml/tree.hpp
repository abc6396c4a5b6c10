// CART regression tree (Breiman et al.), the base learner of the random
// forest. Splits greedily minimise the within-node sum of squared errors
// (paper eq. 3); leaves predict the node mean (paper eq. 1).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace bf::ml {

struct TreeParams {
  /// Minimum observations in a node for it to be split further. The paper
  /// quotes the classic default of 5 for regression.
  std::size_t min_node_size = 5;
  /// Maximum tree depth (0 = unlimited). Forests grow unpruned trees.
  std::size_t max_depth = 0;
  /// Number of candidate features per split; 0 = use all features
  /// (plain CART). Random forests pass mtry ~ p/3.
  std::size_t mtry = 0;
};

class RegressionTree {
 public:
  /// Fit on rows `sample` (with multiplicity — a bootstrap sample) of the
  /// design matrix. `rng` drives the per-node feature subsampling.
  void fit(const linalg::Matrix& x, const std::vector<double>& y,
           const std::vector<std::size_t>& sample, const TreeParams& params,
           Rng& rng);

  /// Convenience: fit on all rows.
  void fit(const linalg::Matrix& x, const std::vector<double>& y,
           const TreeParams& params, Rng& rng);

  double predict_row(const double* row) const;
  std::vector<double> predict(const linalg::Matrix& x) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  std::size_t depth() const;
  bool fitted() const { return !nodes_.empty(); }

  /// Sum over internal nodes of the SSE decrease attributed to each
  /// feature — the "impurity" flavour of variable importance.
  std::vector<double> impurity_importance(std::size_t num_features) const;

  /// Read-only view of one node, for freezing the tree into flat
  /// inference layouts (ml::FlatForest) without exposing the node table.
  struct NodeView {
    std::int32_t left = -1;     ///< -1 for leaves
    std::int32_t right = -1;
    std::int32_t feature = -1;
    double threshold = 0.0;
    double value = 0.0;
  };
  NodeView node_view(std::int32_t id) const;

  /// Cost-complexity (weakest-link) pruning, as §4.1.1 of the paper
  /// describes for standalone trees: repeatedly collapse the internal
  /// node whose subtree buys the least SSE per leaf until every remaining
  /// subtree earns at least `alpha` SSE per pruned leaf. Forests use
  /// unpruned trees; this is for single-tree modelling and for the
  /// pruning-ablation tests. Returns the number of collapsed nodes.
  std::size_t prune(double alpha);

 private:
  struct Node {
    // Internal nodes: feature/threshold and child links.
    // Leaves: left == -1 and `value` holds the prediction.
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    double sse_decrease = 0.0;
  };

  /// `pairs` is the fit's one split-search buffer: (feature value,
  /// response) of the node's rows.
  std::int32_t build_node(const linalg::Matrix& x,
                          const std::vector<double>& y,
                          std::vector<std::size_t>& rows, std::size_t begin,
                          std::size_t end, std::size_t depth,
                          const TreeParams& params, Rng& rng,
                          std::vector<std::pair<double, double>>& pairs);

  std::vector<Node> nodes_;
};

}  // namespace bf::ml
