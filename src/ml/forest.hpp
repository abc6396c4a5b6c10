// Random-forest regression (Breiman 2001), the core model of BlackForest.
//
// Mirrors the semantics of the R randomForest package the paper uses:
//  - n_trees unpruned CART trees grown on bootstrap samples,
//  - mtry features considered per split (default max(1, p/3) for regression),
//  - out-of-bag (OOB) predictions, OOB MSE and "% variance explained",
//  - permutation variable importance (%IncMSE), computed tree by tree as
//    the forest is constructed (paper §4.1.1).
//
// The forest is training-only: it fits, scores and is frozen. Every
// prediction, interval and partial-dependence query runs on the frozen
// ml::FlatForest.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "ml/tree.hpp"

namespace bf::ml {

struct ForestParams {
  std::size_t n_trees = 500;
  /// Features tried per split; 0 = regression default max(1, p/3).
  std::size_t mtry = 0;
  std::size_t min_node_size = 5;
  std::size_t max_depth = 0;
  /// Whether to compute permutation importance during fit.
  bool importance = true;
  std::uint64_t seed = 42;
};

/// Per-variable importance record.
struct VariableImportance {
  std::string name;
  /// Mean increase in OOB MSE when the variable is permuted, divided by its
  /// standard error over trees — R's "%IncMSE" statistic.
  double pct_inc_mse = 0.0;
  /// Raw mean increase in OOB MSE (unnormalised).
  double mean_inc_mse = 0.0;
  /// Total SSE decrease at splits on this variable (IncNodePurity).
  double inc_node_purity = 0.0;
};

class RandomForest {
 public:
  /// Fit the forest. Feature names are kept for reporting; pass one name
  /// per column of x. Throws bf::Error naming the column and row of the
  /// first NaN or infinite cell of x or y.
  void fit(const linalg::Matrix& x, const std::vector<double>& y,
           std::vector<std::string> feature_names, const ForestParams& params);

  /// OOB mean squared error (the forest's internal generalisation
  /// estimate). Rows never out-of-bag are excluded.
  double oob_mse() const { return oob_mse_; }

  /// randomForest's "% Var explained": 100 * (1 - oob_mse / Var(y)).
  double pct_var_explained() const { return pct_var_explained_; }

  /// OOB prediction per training row (NaN for rows never OOB).
  const std::vector<double>& oob_predictions() const {
    return oob_predictions_;
  }

  /// Importance table sorted by descending %IncMSE. Requires
  /// params.importance at fit time.
  std::vector<VariableImportance> importance() const;

  /// Names of the top-k variables by %IncMSE.
  std::vector<std::string> top_variables(std::size_t k) const;

  /// Per-feature training medians (the flat engine's NaN-repair values).
  const std::vector<double>& feature_medians() const {
    return feature_medians_;
  }

  std::size_t n_trees() const { return trees_.size(); }
  /// The t-th training-side tree (freeze input for ml::FlatForest).
  const RegressionTree& tree(std::size_t t) const { return trees_.at(t); }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  bool fitted() const { return !trees_.empty(); }

 private:
  std::vector<RegressionTree> trees_;
  std::vector<std::string> feature_names_;
  std::vector<double> feature_medians_;
  std::vector<double> oob_predictions_;
  double oob_mse_ = 0.0;
  double pct_var_explained_ = 0.0;
  // Permutation importance accumulators (per feature).
  std::vector<double> imp_mean_;
  std::vector<double> imp_sd_;
  std::vector<double> imp_purity_;
  bool has_importance_ = false;
};

}  // namespace bf::ml
