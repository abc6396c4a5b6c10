#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace bf::ml {
namespace {

struct SplitCandidate {
  bool valid = false;
  std::size_t feature = 0;
  double threshold = 0.0;
  double sse_after = 0.0;  // combined SSE of the two children
};

// Best split of rows[begin,end) on one feature (classic CART scan). The
// node's (feature value, response) pairs are gathered into `pairs` and
// sorted on the value alone with `<`: std::sort then makes the comparisons
// and moves an index sort on the same keys would, so ties keep that order
// and the prefix sums below are built in it. A feature constant over the
// node has no boundary between distinct values and returns no candidate.
SplitCandidate best_split_on_feature(
    const linalg::Matrix& x, const std::vector<double>& y,
    const std::vector<std::size_t>& rows, std::size_t begin, std::size_t end,
    std::size_t feature, std::size_t min_node_size,
    std::vector<std::pair<double, double>>& pairs) {
  const std::size_t n = end - begin;
  const std::size_t stride = x.cols();
  const double* const col = x.row_ptr(0) + feature;
  pairs.resize(n);
  bool constant = true;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = rows[begin + i];
    pairs[i] = {col[r * stride], y[r]};
    constant = constant && pairs[i].first == pairs[0].first;
  }
  SplitCandidate best;
  if (constant) return best;
  std::sort(pairs.begin(), pairs.end(),
            [](const std::pair<double, double>& a,
               const std::pair<double, double>& b) {
              return a.first < b.first;
            });

  double total_sum = 0.0;
  for (const auto& pr : pairs) total_sum += pr.second;

  double left_sum = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    left_sum += pairs[i].second;
    const std::size_t n_left = i + 1;
    const std::size_t n_right = n - n_left;
    // Can only split between distinct feature values.
    const double v_here = pairs[i].first;
    const double v_next = pairs[i + 1].first;
    if (v_here == v_next) continue;
    if (n_left < min_node_size || n_right < min_node_size) continue;

    // SSE(child) = sum(y^2) - n*mean^2; the sum(y^2) terms are common to
    // every candidate split so comparing -n*mean^2 suffices. We track the
    // negative explained part for comparability.
    const double right_sum = total_sum - left_sum;
    const double gain = left_sum * left_sum / static_cast<double>(n_left) +
                        right_sum * right_sum / static_cast<double>(n_right);
    if (!best.valid || gain > best.sse_after) {
      best.valid = true;
      best.feature = feature;
      best.threshold = 0.5 * (v_here + v_next);
      best.sse_after = gain;  // NB: larger is better here (explained sum)
    }
  }
  return best;
}

double node_sse(const std::vector<double>& y,
                const std::vector<std::size_t>& rows, std::size_t begin,
                std::size_t end) {
  double sum = 0.0;
  double sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    sum += y[rows[i]];
    sq += y[rows[i]] * y[rows[i]];
  }
  const double n = static_cast<double>(end - begin);
  return sq - sum * sum / n;
}

}  // namespace

void RegressionTree::fit(const linalg::Matrix& x, const std::vector<double>& y,
                         const std::vector<std::size_t>& sample,
                         const TreeParams& params, Rng& rng) {
  BF_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  BF_CHECK_MSG(!sample.empty(), "empty training sample");
  BF_CHECK_MSG(x.cols() > 0, "no features");
  nodes_.clear();
  std::vector<std::size_t> rows = sample;
  std::vector<std::pair<double, double>> pairs;
  build_node(x, y, rows, 0, rows.size(), 0, params, rng, pairs);
}

void RegressionTree::fit(const linalg::Matrix& x, const std::vector<double>& y,
                         const TreeParams& params, Rng& rng) {
  std::vector<std::size_t> all(x.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  fit(x, y, all, params, rng);
}

std::int32_t RegressionTree::build_node(
    const linalg::Matrix& x, const std::vector<double>& y,
    std::vector<std::size_t>& rows, std::size_t begin, std::size_t end,
    std::size_t depth, const TreeParams& params, Rng& rng,
    std::vector<std::pair<double, double>>& pairs) {
  const std::size_t n = end - begin;
  const std::int32_t node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();

  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += y[rows[i]];
  nodes_[node_id].value = sum / static_cast<double>(n);

  const bool depth_ok = params.max_depth == 0 || depth < params.max_depth;
  if (n < 2 * params.min_node_size || !depth_ok) {
    return node_id;  // leaf
  }

  // Candidate features: either all of them or a random subset of mtry.
  const std::size_t p = x.cols();
  std::vector<std::size_t> features;
  if (params.mtry == 0 || params.mtry >= p) {
    features.resize(p);
    std::iota(features.begin(), features.end(), std::size_t{0});
  } else {
    features = rng.sample_without_replacement(p, params.mtry);
  }

  SplitCandidate best;
  for (std::size_t f : features) {
    const SplitCandidate cand = best_split_on_feature(
        x, y, rows, begin, end, f, params.min_node_size, pairs);
    if (cand.valid && (!best.valid || cand.sse_after > best.sse_after)) {
      best = cand;
    }
  }
  if (!best.valid) return node_id;  // all candidate features constant here

  // Record the impurity decrease: SSE(parent) - SSE(children).
  const double parent_sse = node_sse(y, rows, begin, end);
  const double explained = best.sse_after - sum * sum / static_cast<double>(n);
  nodes_[node_id].sse_decrease = std::max(0.0, explained);
  // `explained` equals SSE(parent) - SSE(children) because the sum-of-y^2
  // terms cancel; keep parent_sse computed for the numerical guard below.
  if (nodes_[node_id].sse_decrease <= 1e-12 * std::max(1.0, parent_sse)) {
    nodes_[node_id].sse_decrease = 0.0;
    return node_id;  // no meaningful improvement
  }

  // Partition rows in place around the threshold.
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return x(r, best.feature) <= best.threshold; });
  const std::size_t mid =
      static_cast<std::size_t>(mid_it - rows.begin());
  BF_CHECK(mid > begin && mid < end);

  nodes_[node_id].feature = static_cast<std::int32_t>(best.feature);
  nodes_[node_id].threshold = best.threshold;
  const std::int32_t left =
      build_node(x, y, rows, begin, mid, depth + 1, params, rng, pairs);
  const std::int32_t right =
      build_node(x, y, rows, mid, end, depth + 1, params, rng, pairs);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double RegressionTree::predict_row(const double* row) const {
  BF_CHECK_MSG(fitted(), "predict on unfitted tree");
  std::int32_t id = 0;
  while (nodes_[static_cast<std::size_t>(id)].left != -1) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    id = (row[n.feature] <= n.threshold) ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(id)].value;
}

RegressionTree::NodeView RegressionTree::node_view(std::int32_t id) const {
  BF_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
               "node id out of range");
  const Node& n = nodes_[static_cast<std::size_t>(id)];
  return NodeView{n.left, n.right, n.feature, n.threshold, n.value};
}

std::vector<double> RegressionTree::predict(const linalg::Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = predict_row(x.row_ptr(r));
  }
  return out;
}

std::size_t RegressionTree::leaf_count() const {
  // Traverse from the root: pruning can leave unreachable nodes in the
  // table, which must not be counted.
  if (nodes_.empty()) return 0;
  std::size_t count = 0;
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const Node& n = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    if (n.left == -1) {
      ++count;
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  return count;
}

std::size_t RegressionTree::depth() const {
  // Iterative depth computation over the implicit tree structure.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.left != -1) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

std::size_t RegressionTree::prune(double alpha) {
  BF_CHECK_MSG(fitted(), "prune on unfitted tree");
  BF_CHECK_MSG(alpha >= 0.0, "alpha must be non-negative");

  // For each node, the total SSE decrease and leaf count of its subtree.
  const std::size_t n = nodes_.size();
  std::vector<double> subtree_gain(n, 0.0);
  std::vector<std::size_t> subtree_leaves(n, 1);
  // Children always have larger indices than their parent (preorder
  // construction), so one reverse sweep suffices.
  for (std::size_t i = n; i-- > 0;) {
    const Node& node = nodes_[i];
    if (node.left == -1) continue;
    const auto l = static_cast<std::size_t>(node.left);
    const auto r = static_cast<std::size_t>(node.right);
    subtree_gain[i] = node.sse_decrease + subtree_gain[l] + subtree_gain[r];
    subtree_leaves[i] = subtree_leaves[l] + subtree_leaves[r];
  }

  // Weakest-link: collapse any internal node whose subtree earns less
  // than alpha per leaf it would remove. Collapsing a parent subsumes
  // its descendants, so marking is done top-down.
  std::size_t collapsed = 0;
  std::vector<bool> dead(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i] || nodes_[i].left == -1) continue;
    const double per_leaf =
        subtree_gain[i] /
        static_cast<double>(subtree_leaves[i] - 1);
    if (per_leaf < alpha) {
      // Collapse: mark the whole subtree dead and turn i into a leaf.
      std::vector<std::size_t> stack{i};
      while (!stack.empty()) {
        const std::size_t j = stack.back();
        stack.pop_back();
        if (nodes_[j].left != -1) {
          stack.push_back(static_cast<std::size_t>(nodes_[j].left));
          stack.push_back(static_cast<std::size_t>(nodes_[j].right));
        }
        if (j != i) {
          dead[j] = true;
          ++collapsed;
          // Neutralise so impurity_importance never credits dead nodes.
          nodes_[j].left = -1;
          nodes_[j].right = -1;
          nodes_[j].feature = -1;
          nodes_[j].sse_decrease = 0.0;
        }
      }
      nodes_[i].left = -1;
      nodes_[i].right = -1;
      nodes_[i].feature = -1;
      nodes_[i].sse_decrease = 0.0;
      ++collapsed;
    }
  }
  // Dead nodes stay in the table (unreachable); predict_row never visits
  // them, and FlatForest::freeze drops them.
  return collapsed;
}

std::vector<double> RegressionTree::impurity_importance(
    std::size_t num_features) const {
  std::vector<double> imp(num_features, 0.0);
  for (const auto& node : nodes_) {
    if (node.left != -1) {
      BF_CHECK(static_cast<std::size_t>(node.feature) < num_features);
      imp[static_cast<std::size_t>(node.feature)] += node.sse_decrease;
    }
  }
  return imp;
}

}  // namespace bf::ml
