// Flat-forest inference engine: the entire forest frozen into one
// contiguous structure-of-arrays node table, herring/FIL-style. It is the
// only inference engine: every prediction, per-tree interval and
// partial-dependence query runs here, while ml::RandomForest only fits.
//
// The training-side RandomForest keeps per-tree std::vector<Node> objects
// of 40-byte AoS nodes. FlatForest freezes a fitted forest into one
// contiguous table of 16-byte node records shared by every tree:
//
//   left     int32   left-child index; the right child is always
//                    left + 1 (children are allocated as adjacent
//                    pairs). Leaves pack the leaf flag into the sign:
//                    left == -1.
//   feature  int32   split feature (leaves store 0, a valid index, so
//                    the stepping kernel may load unconditionally)
//   tv       double  split threshold for internal nodes, the leaf
//                    value for leaves (they are never both needed)
//
// plus a per-tree root-index table. Nodes are laid out depth-first:
// child pairs are allocated as the left spine unwinds, so a subtree is
// one small contiguous region. One node costs 16 bytes instead of 40, a
// visit touches a single cache line, and the branchy child select
// becomes the branchless step
//
//   i = node.left + (row[node.feature] > node.tv)
//
// which is the exact negation of the training tree's
// `row[f] <= thr ? left : right` for the finite values a sanitized row
// contains. Walks run as a compacted list of interleaved lanes: the
// dependent-load latency of one lane hides behind the others, and a
// lane that reaches its leaf is dropped from the list instead of
// spinning until the deepest lane finishes.
//
// Predictions equal a walk of the training trees: per-tree leaf values
// are summed sequentially in tree order (`acc += v; acc / n_trees`), and
// non-finite features are repaired with the per-feature training medians
// first (the ml.forest.nan_feature fault point is consulted once per
// sanitized row).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/forest.hpp"

namespace bf::ml {

/// A forest prediction with an empirical uncertainty band (paper §7:
/// "Integrating confidence intervals into the partial dependence plots
/// would help interpretation and confidence in the outcome").
struct PredictionInterval {
  double mean = 0.0;
  double lo = 0.0;  ///< lower quantile of the per-tree predictions
  double hi = 0.0;  ///< upper quantile of the per-tree predictions
};

/// One point of a partial-dependence curve.
struct PartialDependencePoint {
  double x = 0.0;  ///< value the predictor is clamped to
  double y = 0.0;  ///< average model prediction over the rows
};

/// A partial-dependence point with the same band.
struct PartialDependenceInterval {
  double x = 0.0;
  PredictionInterval y;
};

/// Caller-provided scratch for the allocation-free prediction paths.
/// Reuse one instance across calls; the buffers grow to the forest's
/// size once and are then recycled.
struct ForestScratch {
  /// Repaired-row buffer for NaN-feature median repair.
  std::vector<double> repaired;
  /// Per-tree leaf values (quantile input for intervals).
  std::vector<double> tree_values;
  /// Lane state of the compacted interleaved tree walk (tree id and
  /// current node packed per lane).
  std::vector<std::int64_t> walk_lanes;
  /// Band selection buffer (see quantile_band).
  std::vector<double> band;
};

/// The alpha band of the non-empty per-tree `values` around `mean`: the
/// linear-interpolation quantiles at alpha/2 and 1 - alpha/2 of their
/// ascending order, equal bit for bit to reading them off a full sort.
/// Thresholds picked from a strided sample keep only the values at or
/// beyond them in one branch-free pass, and the quantiles are selected
/// among those; when the sample left too few, or the band is too wide
/// for that to pay, the quantiles are selected over all values.
/// `values` is left reordered; `buffer` is reusable scratch.
PredictionInterval quantile_band(std::vector<double>& values, double mean,
                                 double alpha, std::vector<double>& buffer);

/// One frozen node: 16 bytes, naturally aligned, so a visit touches
/// exactly one cache line.
struct FlatNode {
  std::int32_t left = -1;   ///< left child; -1 marks a leaf
  std::int32_t feature = 0;  ///< split feature (0 on leaves, still valid)
  double tv = 0.0;           ///< threshold (internal) or value (leaf)
};

class FlatForest {
 public:
  /// Freeze a fitted forest into the flat layout (pruned-dead nodes are
  /// dropped in the process).
  static FlatForest freeze(const RandomForest& forest);

  /// Predict one row.
  double predict_row(const double* row, ForestScratch& scratch) const;
  /// Convenience overload that allocates its own scratch.
  double predict_row(const double* row) const;

  /// Batched prediction over the rows of `x`. The forest is split into
  /// L2-sized tiles of consecutive trees and every block of rows is
  /// streamed through a tile while its nodes are cache-resident, so the
  /// node table is pulled from outer memory once per call instead of
  /// once per row. Per-row sums are still accumulated in ascending tree
  /// order, so results match predict_row exactly.
  void predict(const linalg::Matrix& x, std::vector<double>& out,
               ForestScratch& scratch) const;
  std::vector<double> predict(const linalg::Matrix& x) const;

  /// Prediction with an empirical interval: [lo, hi] are the alpha/2 and
  /// 1-alpha/2 quantiles of the per-tree predictions (alpha = 0.1 gives
  /// an 80% band). Wide bands flag extrapolation or sparse regions.
  /// After the call scratch.tree_values holds the per-tree leaf values,
  /// reordered.
  PredictionInterval predict_interval(const double* row, double alpha,
                                      ForestScratch& scratch) const;
  PredictionInterval predict_interval(const double* row,
                                      double alpha = 0.1) const;
  std::vector<PredictionInterval> predict_intervals(const linalg::Matrix& x,
                                                    double alpha = 0.1) const;

  /// Partial dependence of the response on `feature` (paper §4.1.1):
  /// over `grid_points` values spanning the feature's range in `rows`,
  /// the average prediction over `rows` with the feature clamped to each
  /// value. Callers pass the matrix the forest was fitted on. Grid points
  /// run on the shared pool; the fault point of each clamped row is drawn
  /// before they fan out, in (grid point, row) order.
  std::vector<PartialDependencePoint> partial_dependence(
      const linalg::Matrix& rows, const std::string& feature,
      std::size_t grid_points = 25) const;

  /// Partial dependence with a per-grid-point band (the paper's §7
  /// "confidence intervals in the partial dependence plots"): per tree,
  /// the average leaf value over the clamped rows; the band is the
  /// quantiles of those per-tree averages. Grid points run on the shared
  /// pool.
  std::vector<PartialDependenceInterval> partial_dependence_interval(
      const linalg::Matrix& rows, const std::string& feature,
      std::size_t grid_points = 25, double alpha = 0.1) const;

  std::size_t n_trees() const { return roots_.size(); }
  std::size_t node_count() const { return nodes_.size(); }
  bool fitted() const { return !roots_.empty(); }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::vector<double>& feature_medians() const {
    return feature_medians_;
  }

  /// Serialise the frozen form ("bf_flat_forest 2"): features, repair
  /// medians, root table and the node arrays. This is what .bfmodel
  /// bundles store.
  void save(std::ostream& os) const;
  static FlatForest load(std::istream& is);

 private:
  /// Repair a query row: replaces non-finite features (and, when
  /// `corrupt` is set, feature 0, as an armed ml.forest.nan_feature point
  /// corrupts it) with training medians, into a raw buffer of
  /// feature-count capacity, which may be `row` itself. Returns the row to
  /// predict from (`row` itself when clean). Callers draw `corrupt` from
  /// the fault point, once per sanitized row.
  const double* sanitize_row(const double* row, double* buffer,
                             bool corrupt) const;

  /// Column index of `feature`, after checking the shared preconditions
  /// of the partial-dependence queries.
  std::size_t pd_feature(const linalg::Matrix& rows,
                         const std::string& feature,
                         std::size_t grid_points) const;

  /// Per-tree leaf values for one sanitized row: every tree is a lane in
  /// one compacted walk list (scratch provides the lane state).
  void tree_leaf_values(const double* row, double* out,
                        ForestScratch& scratch) const;
  /// Forest means of `n_rows` sanitized rows (row-major, one feature
  /// vector each) into out[0, n_rows): the tiled block kernel behind the
  /// batched predict.
  void predict_block(const double* rows, std::size_t n_rows,
                     double* out) const;
  /// Walk trees [t0, t1) for `n` sanitized rows (row-major, stride `p`)
  /// and add each tree's leaf value into acc[k], in tree order.
  void accumulate_block(const double* rows, std::size_t p, std::size_t n,
                        std::size_t t0, std::size_t t1, double* acc) const;

  std::vector<std::int32_t> roots_;
  std::vector<FlatNode> nodes_;
  std::vector<std::string> feature_names_;
  std::vector<double> feature_medians_;
};

}  // namespace bf::ml
