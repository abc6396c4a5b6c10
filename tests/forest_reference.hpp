// Reference forest prediction for tests: the training trees walked one
// after another, their leaves summed in tree order over a row whose
// non-finite features are replaced by the training medians. This is the
// arithmetic ml::FlatForest must reproduce bit for bit.
//
// Reference training for tests: a CART fit whose split search sorts the
// node's row indices on x(row, f) and reads every value through them, and
// a serial forest fit that measures permutation importance on a copied row
// per (feature, OOB row) and re-walks every tree for the OOB votes. This
// is the arithmetic ml::RegressionTree and ml::RandomForest must
// reproduce bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"
#include "ml/metrics.hpp"
#include "ml/tree.hpp"

namespace bf::ml {

/// Per-tree leaf values of one median-repaired row, in tree order.
inline std::vector<double> reference_tree_values(const RandomForest& rf,
                                                 const double* row) {
  std::vector<double> repaired(row, row + rf.feature_names().size());
  for (std::size_t f = 0; f < repaired.size(); ++f) {
    if (!std::isfinite(repaired[f])) repaired[f] = rf.feature_medians()[f];
  }
  std::vector<double> values;
  for (std::size_t t = 0; t < rf.n_trees(); ++t) {
    values.push_back(rf.tree(t).predict_row(repaired.data()));
  }
  return values;
}

inline double reference_predict(const RandomForest& rf, const double* row) {
  double acc = 0.0;
  for (const double v : reference_tree_values(rf, row)) acc += v;
  return acc / static_cast<double>(rf.n_trees());
}

inline std::vector<double> reference_predict(const RandomForest& rf,
                                             const linalg::Matrix& x) {
  std::vector<double> out;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out.push_back(reference_predict(rf, x.row_ptr(r)));
  }
  return out;
}

/// The alpha band of per-tree values around `mean`: linear interpolation
/// between the order statistics at alpha/2 and 1-alpha/2.
inline PredictionInterval reference_band(std::vector<double> values,
                                         double mean, double alpha) {
  std::sort(values.begin(), values.end());
  const auto q = [&values](double p) {
    const double pos = p * static_cast<double>(values.size() - 1);
    const auto i = static_cast<std::size_t>(pos);
    if (i + 1 >= values.size()) return values.back();
    const double frac = pos - static_cast<double>(i);
    return values[i] * (1.0 - frac) + values[i + 1] * frac;
  };
  return {mean, q(alpha / 2.0), q(1.0 - alpha / 2.0)};
}

inline PredictionInterval reference_interval(const RandomForest& rf,
                                             const double* row,
                                             double alpha) {
  return reference_band(reference_tree_values(rf, row),
                        reference_predict(rf, row), alpha);
}

/// One node of a reference tree, in the training tree's preorder.
struct ReferenceNode {
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int32_t feature = -1;
  double threshold = 0.0;
  double value = 0.0;
  double sse_decrease = 0.0;
};

/// The index-sort CART fit: the same nodes, split rules and random draws
/// RegressionTree::fit must produce.
class ReferenceTree {
 public:
  void fit(const linalg::Matrix& x, const std::vector<double>& y,
           const std::vector<std::size_t>& sample, const TreeParams& params,
           Rng& rng) {
    nodes.clear();
    std::vector<std::size_t> rows = sample;
    build(x, y, rows, 0, rows.size(), 0, params, rng);
  }

  double predict_row(const double* row) const {
    std::size_t id = 0;
    while (nodes[id].left != -1) {
      const ReferenceNode& n = nodes[id];
      id = static_cast<std::size_t>(row[n.feature] <= n.threshold ? n.left
                                                                  : n.right);
    }
    return nodes[id].value;
  }

  std::vector<ReferenceNode> nodes;

 private:
  struct Split {
    bool valid = false;
    std::size_t feature = 0;
    double threshold = 0.0;
    double sse_after = 0.0;
  };

  static Split best_split(const linalg::Matrix& x, const std::vector<double>& y,
                          const std::vector<std::size_t>& rows,
                          std::size_t begin, std::size_t end,
                          std::size_t feature, std::size_t min_node_size) {
    const std::size_t n = end - begin;
    std::vector<std::size_t> order(
        rows.begin() + static_cast<std::ptrdiff_t>(begin),
        rows.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return x(a, feature) < x(b, feature);
    });
    double total_sum = 0.0;
    for (std::size_t r : order) total_sum += y[r];
    Split best;
    double left_sum = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_sum += y[order[i]];
      const std::size_t n_left = i + 1;
      const std::size_t n_right = n - n_left;
      const double v_here = x(order[i], feature);
      const double v_next = x(order[i + 1], feature);
      if (v_here == v_next) continue;
      if (n_left < min_node_size || n_right < min_node_size) continue;
      const double right_sum = total_sum - left_sum;
      const double gain =
          left_sum * left_sum / static_cast<double>(n_left) +
          right_sum * right_sum / static_cast<double>(n_right);
      if (!best.valid || gain > best.sse_after) {
        best = {true, feature, 0.5 * (v_here + v_next), gain};
      }
    }
    return best;
  }

  std::int32_t build(const linalg::Matrix& x, const std::vector<double>& y,
                     std::vector<std::size_t>& rows, std::size_t begin,
                     std::size_t end, std::size_t depth,
                     const TreeParams& params, Rng& rng) {
    const std::size_t n = end - begin;
    const auto id = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += y[rows[i]];
    nodes[id].value = sum / static_cast<double>(n);
    const bool depth_ok = params.max_depth == 0 || depth < params.max_depth;
    if (n < 2 * params.min_node_size || !depth_ok) return id;

    const std::size_t p = x.cols();
    std::vector<std::size_t> features;
    if (params.mtry == 0 || params.mtry >= p) {
      features.resize(p);
      std::iota(features.begin(), features.end(), std::size_t{0});
    } else {
      features = rng.sample_without_replacement(p, params.mtry);
    }
    Split best;
    for (std::size_t f : features) {
      const Split cand =
          best_split(x, y, rows, begin, end, f, params.min_node_size);
      if (cand.valid && (!best.valid || cand.sse_after > best.sse_after)) {
        best = cand;
      }
    }
    if (!best.valid) return id;

    double psum = 0.0;
    double sq = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      psum += y[rows[i]];
      sq += y[rows[i]] * y[rows[i]];
    }
    const double parent_sse = sq - psum * psum / static_cast<double>(n);
    const double explained =
        best.sse_after - sum * sum / static_cast<double>(n);
    nodes[id].sse_decrease = std::max(0.0, explained);
    if (nodes[id].sse_decrease <= 1e-12 * std::max(1.0, parent_sse)) {
      nodes[id].sse_decrease = 0.0;
      return id;
    }
    const auto mid_it = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(begin),
        rows.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t r) { return x(r, best.feature) <= best.threshold; });
    const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
    nodes[id].feature = static_cast<std::int32_t>(best.feature);
    nodes[id].threshold = best.threshold;
    const std::int32_t left =
        build(x, y, rows, begin, mid, depth + 1, params, rng);
    const std::int32_t right =
        build(x, y, rows, mid, end, depth + 1, params, rng);
    nodes[id].left = left;
    nodes[id].right = right;
    return id;
  }
};

/// What a reference forest fit reports.
struct ReferenceForestFit {
  std::vector<double> oob_predictions;
  double oob_mse = 0.0;
  double pct_var_explained = 0.0;
  std::vector<VariableImportance> importance;  ///< as RandomForest sorts it
};

/// RandomForest::fit done serially: the same per-tree random streams, the
/// index-sort trees, permutation importance on a copied row for every
/// (feature, OOB row), and OOB votes from a second walk of every tree.
inline ReferenceForestFit reference_forest_fit(
    const linalg::Matrix& x, const std::vector<double>& y,
    const std::vector<std::string>& names, const ForestParams& params) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  TreeParams tp;
  tp.min_node_size = params.min_node_size;
  tp.max_depth = params.max_depth;
  tp.mtry = params.mtry != 0 ? params.mtry : std::max<std::size_t>(1, p / 3);
  Rng master(params.seed);
  std::vector<Rng> rngs;
  for (std::size_t t = 0; t < params.n_trees; ++t) {
    rngs.push_back(master.split());
  }

  std::vector<ReferenceTree> trees(params.n_trees);
  std::vector<std::vector<std::size_t>> oob(params.n_trees);
  std::vector<double> imp_sum(p, 0.0);
  std::vector<double> imp_sq(p, 0.0);
  std::size_t imp_trees = 0;
  for (std::size_t t = 0; t < params.n_trees; ++t) {
    Rng rng = rngs[t];
    const std::vector<std::size_t> sample = rng.bootstrap_indices(n);
    std::vector<bool> in_bag(n, false);
    for (std::size_t r : sample) in_bag[r] = true;
    for (std::size_t r = 0; r < n; ++r) {
      if (!in_bag[r]) oob[t].push_back(r);
    }
    trees[t].fit(x, y, sample, tp, rng);
    if (!params.importance || oob[t].empty()) continue;
    std::vector<double> oob_true;
    std::vector<double> oob_pred;
    for (std::size_t r : oob[t]) {
      oob_true.push_back(y[r]);
      oob_pred.push_back(trees[t].predict_row(x.row_ptr(r)));
    }
    const double base = mse(oob_true, oob_pred);
    std::vector<double> row(p);
    std::vector<std::size_t> perm(oob[t].size());
    for (std::size_t f = 0; f < p; ++f) {
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      rng.shuffle(perm);
      double acc = 0.0;
      for (std::size_t i = 0; i < oob[t].size(); ++i) {
        const double* src = x.row_ptr(oob[t][i]);
        std::copy(src, src + p, row.begin());
        row[f] = x(oob[t][perm[i]], f);
        const double d = y[oob[t][i]] - trees[t].predict_row(row.data());
        acc += d * d;
      }
      const double inc = acc / static_cast<double>(oob[t].size()) - base;
      imp_sum[f] += inc;
      imp_sq[f] += inc * inc;
    }
    ++imp_trees;
  }

  ReferenceForestFit out;
  std::vector<double> oob_sum(n, 0.0);
  std::vector<std::size_t> oob_count(n, 0);
  for (std::size_t t = 0; t < params.n_trees; ++t) {
    for (std::size_t r : oob[t]) {
      oob_sum[r] += trees[t].predict_row(x.row_ptr(r));
      oob_count[r] += 1;
    }
  }
  out.oob_predictions.assign(n, std::numeric_limits<double>::quiet_NaN());
  std::vector<double> covered_true;
  std::vector<double> covered_pred;
  for (std::size_t r = 0; r < n; ++r) {
    if (oob_count[r] == 0) continue;
    out.oob_predictions[r] = oob_sum[r] / static_cast<double>(oob_count[r]);
    covered_true.push_back(y[r]);
    covered_pred.push_back(out.oob_predictions[r]);
  }
  if (!covered_true.empty()) {
    out.oob_mse = mse(covered_true, covered_pred);
    const double var = variance(y);
    out.pct_var_explained =
        var > 0.0 ? 100.0 * (1.0 - out.oob_mse / var) : 0.0;
  }

  if (!params.importance) return out;
  std::vector<double> mean(p, 0.0);
  std::vector<double> sd(p, 0.0);
  std::vector<double> purity(p, 0.0);
  if (imp_trees > 0) {
    const double nt = static_cast<double>(imp_trees);
    for (std::size_t f = 0; f < p; ++f) {
      mean[f] = imp_sum[f] / nt;
      sd[f] = std::sqrt(std::max(0.0, imp_sq[f] / nt - mean[f] * mean[f]));
    }
    for (const ReferenceTree& tree : trees) {
      std::vector<double> tree_purity(p, 0.0);
      for (const ReferenceNode& node : tree.nodes) {
        if (node.left != -1) {
          tree_purity[static_cast<std::size_t>(node.feature)] +=
              node.sse_decrease;
        }
      }
      for (std::size_t f = 0; f < p; ++f) purity[f] += tree_purity[f];
    }
  }
  const double root_nt = std::sqrt(static_cast<double>(params.n_trees));
  out.importance.resize(p);
  for (std::size_t f = 0; f < p; ++f) {
    out.importance[f].name = names[f];
    out.importance[f].mean_inc_mse = mean[f];
    const double se = sd[f] / root_nt;
    out.importance[f].pct_inc_mse = se > 1e-30 ? mean[f] / se : 0.0;
    out.importance[f].inc_node_purity = purity[f];
  }
  std::sort(out.importance.begin(), out.importance.end(),
            [](const VariableImportance& a, const VariableImportance& b) {
              return a.pct_inc_mse > b.pct_inc_mse;
            });
  return out;
}

}  // namespace bf::ml
