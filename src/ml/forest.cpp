#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ml/metrics.hpp"

namespace bf::ml {
namespace {

// Per-tree training artefacts gathered before cross-tree aggregation.
struct TreeFitResult {
  RegressionTree tree;
  std::vector<std::size_t> oob_rows;
  // The tree's prediction for each OOB row, in oob_rows order.
  std::vector<double> oob_pred;
  // OOB MSE increase per permuted feature.
  std::vector<double> perm_increase;
};

/// Which of the `p` features a split of `tree` tests.
std::vector<bool> split_features(const RegressionTree& tree, std::size_t p) {
  std::vector<bool> tested(p, false);
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const RegressionTree::NodeView node =
        tree.node_view(static_cast<std::int32_t>(i));
    if (node.left != -1) tested[static_cast<std::size_t>(node.feature)] = true;
  }
  return tested;
}

TreeFitResult fit_one_tree(const linalg::Matrix& x,
                           const std::vector<double>& y,
                           const TreeParams& tree_params, bool importance,
                           Rng rng) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  TreeFitResult out;

  const std::vector<std::size_t> sample = rng.bootstrap_indices(n);
  std::vector<bool> in_bag(n, false);
  for (std::size_t r : sample) in_bag[r] = true;
  for (std::size_t r = 0; r < n; ++r) {
    if (!in_bag[r]) out.oob_rows.push_back(r);
  }

  out.tree.fit(x, y, sample, tree_params, rng);

  const std::size_t n_oob = out.oob_rows.size();
  out.oob_pred.reserve(n_oob);
  for (std::size_t r : out.oob_rows) {
    out.oob_pred.push_back(out.tree.predict_row(x.row_ptr(r)));
  }
  if (!importance || n_oob == 0) return out;

  // Baseline OOB error for this tree.
  std::vector<double> oob_true;
  oob_true.reserve(n_oob);
  for (std::size_t r : out.oob_rows) oob_true.push_back(y[r]);
  const double oob_mse = mse(oob_true, out.oob_pred);

  // Permute each feature among the OOB rows and re-measure, walking a
  // once-copied block of the OOB rows with the donor value patched in at
  // the feature. A feature no split tests cannot move a prediction: its
  // permuted MSE is the baseline bit for bit (the same subtractions in the
  // same order over the same divisor), so its walks are skipped. Its
  // shuffle is still drawn, so later features get the same permutations.
  const std::vector<bool> tested = split_features(out.tree, p);
  std::vector<double> block(n_oob * p);
  for (std::size_t i = 0; i < n_oob; ++i) {
    const double* src = x.row_ptr(out.oob_rows[i]);
    std::copy(src, src + p, block.data() + i * p);
  }
  out.perm_increase.assign(p, 0.0);
  std::vector<std::size_t> perm(n_oob);
  for (std::size_t f = 0; f < p; ++f) {
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    rng.shuffle(perm);
    double permuted_mse = oob_mse;
    if (tested[f]) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n_oob; ++i) {
        double* row = block.data() + i * p;
        const double own = row[f];
        row[f] = x(out.oob_rows[perm[i]], f);
        const double d = y[out.oob_rows[i]] - out.tree.predict_row(row);
        row[f] = own;
        acc += d * d;
      }
      permuted_mse = acc / static_cast<double>(n_oob);
    }
    out.perm_increase[f] = permuted_mse - oob_mse;
  }
  return out;
}

/// Per-column median of the training matrix (the flat engine's NaN-repair
/// values).
std::vector<double> column_medians(const linalg::Matrix& x) {
  const std::size_t n = x.rows();
  std::vector<double> medians(x.cols(), 0.0);
  std::vector<double> col(n);
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t r = 0; r < n; ++r) col[r] = x(r, f);
    std::sort(col.begin(), col.end());
    medians[f] = n % 2 == 1 ? col[n / 2] : 0.5 * (col[n / 2 - 1] + col[n / 2]);
  }
  return medians;
}

}  // namespace

void RandomForest::fit(const linalg::Matrix& x, const std::vector<double>& y,
                       std::vector<std::string> feature_names,
                       const ForestParams& params) {
  BF_CHECK_MSG(x.rows() == y.size(), "X/y row mismatch");
  BF_CHECK_MSG(x.rows() >= 2, "need at least 2 training rows");
  BF_CHECK_MSG(feature_names.size() == x.cols(),
               "feature_names size mismatch: " << feature_names.size()
                                               << " vs " << x.cols()
                                               << " columns");
  BF_CHECK_MSG(params.n_trees >= 1, "need at least one tree");

  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  // The split search orders rows by value and the OOB error sums squared
  // residuals: a NaN or infinite cell has no place in either.
  for (std::size_t r = 0; r < n; ++r) {
    BF_CHECK_MSG(std::isfinite(y[r]),
                 "non-finite response " << y[r] << " at row " << r);
    for (std::size_t f = 0; f < p; ++f) {
      BF_CHECK_MSG(std::isfinite(x(r, f)), "non-finite value "
                                               << x(r, f) << " of feature "
                                               << feature_names[f]
                                               << " at row " << r);
    }
  }
  feature_names_ = std::move(feature_names);
  has_importance_ = params.importance;

  TreeParams tree_params;
  tree_params.min_node_size = params.min_node_size;
  tree_params.max_depth = params.max_depth;
  tree_params.mtry =
      params.mtry != 0 ? params.mtry : std::max<std::size_t>(1, p / 3);

  Rng master(params.seed);
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(params.n_trees);
  for (std::size_t t = 0; t < params.n_trees; ++t) {
    tree_rngs.push_back(master.split());
  }

  // Each tree owns its RNG and result slot, and the results are
  // aggregated in tree order below, so the forest does not depend on how
  // the pool schedules the trees.
  std::vector<TreeFitResult> results(params.n_trees);
  ThreadPool::global().parallel_for(0, params.n_trees, [&](std::size_t t) {
    results[t] =
        fit_one_tree(x, y, tree_params, params.importance, tree_rngs[t]);
  });

  // Aggregate trees, OOB votes and importance.
  trees_.clear();
  trees_.reserve(params.n_trees);
  std::vector<double> oob_sum(n, 0.0);
  std::vector<std::size_t> oob_count(n, 0);
  std::vector<double> imp_sum(p, 0.0);
  std::vector<double> imp_sq(p, 0.0);
  std::size_t imp_trees = 0;

  for (auto& res : results) {
    for (std::size_t i = 0; i < res.oob_rows.size(); ++i) {
      oob_sum[res.oob_rows[i]] += res.oob_pred[i];
      oob_count[res.oob_rows[i]] += 1;
    }
    if (!res.perm_increase.empty()) {
      for (std::size_t f = 0; f < p; ++f) {
        imp_sum[f] += res.perm_increase[f];
        imp_sq[f] += res.perm_increase[f] * res.perm_increase[f];
      }
      ++imp_trees;
    }
    trees_.push_back(std::move(res.tree));
  }

  oob_predictions_.assign(n, std::numeric_limits<double>::quiet_NaN());
  std::vector<double> covered_true;
  std::vector<double> covered_pred;
  for (std::size_t r = 0; r < n; ++r) {
    if (oob_count[r] == 0) continue;
    oob_predictions_[r] = oob_sum[r] / static_cast<double>(oob_count[r]);
    covered_true.push_back(y[r]);
    covered_pred.push_back(oob_predictions_[r]);
  }
  if (!covered_true.empty()) {
    oob_mse_ = mse(covered_true, covered_pred);
    const double var = variance(y);
    pct_var_explained_ = var > 0.0 ? 100.0 * (1.0 - oob_mse_ / var) : 0.0;
  } else {
    oob_mse_ = 0.0;
    pct_var_explained_ = 0.0;
  }

  imp_mean_.assign(p, 0.0);
  imp_sd_.assign(p, 0.0);
  imp_purity_.assign(p, 0.0);
  if (params.importance && imp_trees > 0) {
    const double nt = static_cast<double>(imp_trees);
    for (std::size_t f = 0; f < p; ++f) {
      imp_mean_[f] = imp_sum[f] / nt;
      const double var_f =
          std::max(0.0, imp_sq[f] / nt - imp_mean_[f] * imp_mean_[f]);
      imp_sd_[f] = std::sqrt(var_f);
    }
    for (const auto& tree : trees_) {
      const auto purity = tree.impurity_importance(p);
      for (std::size_t f = 0; f < p; ++f) imp_purity_[f] += purity[f];
    }
  }
  feature_medians_ = column_medians(x);
}

std::vector<VariableImportance> RandomForest::importance() const {
  BF_CHECK_MSG(fitted(), "importance on unfitted forest");
  BF_CHECK_MSG(has_importance_,
               "forest was fitted with importance disabled");
  const std::size_t p = feature_names_.size();
  std::vector<VariableImportance> out(p);
  const double nt = std::sqrt(static_cast<double>(trees_.size()));
  for (std::size_t f = 0; f < p; ++f) {
    out[f].name = feature_names_[f];
    out[f].mean_inc_mse = imp_mean_[f];
    // R's %IncMSE: mean increase scaled by its standard error over trees.
    const double se = imp_sd_[f] / nt;
    out[f].pct_inc_mse = se > 1e-30 ? imp_mean_[f] / se : 0.0;
    out[f].inc_node_purity = imp_purity_[f];
  }
  std::sort(out.begin(), out.end(),
            [](const VariableImportance& a, const VariableImportance& b) {
              return a.pct_inc_mse > b.pct_inc_mse;
            });
  return out;
}

std::vector<std::string> RandomForest::top_variables(std::size_t k) const {
  const auto imp = importance();
  std::vector<std::string> out;
  for (std::size_t i = 0; i < imp.size() && i < k; ++i) {
    out.push_back(imp[i].name);
  }
  return out;
}

}  // namespace bf::ml
