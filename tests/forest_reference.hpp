// Reference forest prediction for tests: the training trees walked one
// after another, their leaves summed in tree order over a row whose
// non-finite features are replaced by the training medians. This is the
// arithmetic ml::FlatForest must reproduce bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"

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

}  // namespace bf::ml
