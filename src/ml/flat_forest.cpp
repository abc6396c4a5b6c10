#include "ml/flat_forest.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"

namespace bf::ml {
namespace {

/// Rows per block of the batched kernel: small enough that the lane
/// state stays in registers/L1, large enough that one tree's nodes are
/// reused across the whole block.
constexpr std::size_t kRowBlock = 32;

/// Trees per tile of the batched kernel, measured in nodes: a tile is
/// sized to sit in L2, and every probe row is streamed through a tile
/// before the next tile's nodes are touched. The forest is therefore
/// pulled out of L3/DRAM once per predict() call instead of once per
/// row block — the blocking that makes batched prediction compute-bound
/// on forests much bigger than the cache.
constexpr std::size_t kTreeTileNodes = 48 * 1024;

/// Lane state of a compacted walk: which lane (tree for the single-row
/// kernel, row for the block kernel) in the low half, its current node
/// in the high half. One 8-byte load per step recovers both.
inline std::int64_t pack_lane(std::int32_t lane, std::int32_t node) {
  return static_cast<std::int64_t>(static_cast<std::uint32_t>(lane)) |
         (static_cast<std::int64_t>(node) << 32);
}

/// The alpha band of the non-empty per-tree `values` around `mean`: the
/// linear-interpolation quantiles of their ascending order. Only the two
/// order statistics each quantile reads are placed (rank i by
/// nth_element, rank i + 1 as the minimum above it), so the doubles are
/// those of a full sort while `values` is left only partially ordered.
PredictionInterval band(std::vector<double>& values, double mean,
                        double alpha) {
  // values[from..) holds exactly the ranks from `from` up; the quantiles
  // are read in ascending order, so each selection runs over that tail.
  std::size_t from = 0;
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    const auto rank_i = values.begin() + static_cast<std::ptrdiff_t>(i);
    if (i >= from) {
      std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(from),
                       rank_i, values.end());
    }
    from = i + 1;
    if (i + 1 >= values.size()) return *rank_i;
    return *rank_i * (1.0 - frac) +
           *std::min_element(rank_i + 1, values.end()) * frac;
  };
  PredictionInterval out;
  out.mean = mean;
  out.lo = quantile(alpha / 2.0);
  out.hi = quantile(1.0 - alpha / 2.0);
  return out;
}

/// Smallest and largest value of column `f`.
std::pair<double, double> column_range(const linalg::Matrix& rows,
                                       std::size_t f) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    lo = std::min(lo, rows(r, f));
    hi = std::max(hi, rows(r, f));
  }
  return {lo, hi};
}

/// The g-th of `grid_points` evenly spaced values spanning [lo, hi].
double grid_value(double lo, double hi, std::size_t g,
                  std::size_t grid_points) {
  return lo + (hi - lo) * static_cast<double>(g) /
                  static_cast<double>(grid_points - 1);
}

}  // namespace

FlatForest FlatForest::freeze(const RandomForest& forest) {
  BF_CHECK_MSG(forest.fitted(), "freeze on unfitted forest");
  FlatForest out;
  out.feature_names_ = forest.feature_names();
  out.feature_medians_ = forest.feature_medians();
  BF_CHECK_MSG(out.feature_medians_.size() == out.feature_names_.size(),
               "medians/features size mismatch");

  std::size_t upper = 0;
  for (std::size_t t = 0; t < forest.n_trees(); ++t) {
    upper += forest.tree(t).node_count();
  }
  BF_CHECK_MSG(upper < static_cast<std::size_t>(
                           std::numeric_limits<std::int32_t>::max()),
               "forest too large for the flat int32 layout");
  out.nodes_.reserve(upper);
  out.roots_.reserve(forest.n_trees());

  const auto alloc_node = [&out]() {
    const auto idx = static_cast<std::int32_t>(out.nodes_.size());
    out.nodes_.push_back(FlatNode{});
    return idx;
  };

  // Stack of (source node, destination slot) work items, consumed
  // depth-first. A node's children are allocated as an adjacent pair the
  // moment the node is placed, which keeps right == left + 1.
  std::vector<std::pair<std::int32_t, std::int32_t>> work;
  for (std::size_t t = 0; t < forest.n_trees(); ++t) {
    const RegressionTree& tree = forest.tree(t);
    out.roots_.push_back(alloc_node());
    work.emplace_back(0, out.roots_.back());
    while (!work.empty()) {
      const auto [src, dst] = work.back();
      work.pop_back();
      const RegressionTree::NodeView view = tree.node_view(src);
      FlatNode& node = out.nodes_[static_cast<std::size_t>(dst)];
      if (view.left == -1) {
        // Leaf: flag packed in the sign of left, feature 0 kept a valid
        // index so the stepping kernel loads unconditionally.
        node.left = -1;
        node.feature = 0;
        node.tv = view.value;
        continue;
      }
      const std::int32_t l = alloc_node();
      const std::int32_t r = alloc_node();
      BF_CHECK(r == l + 1);
      // alloc_node may have reallocated the table; re-resolve the slot.
      FlatNode& placed = out.nodes_[static_cast<std::size_t>(dst)];
      placed.left = l;
      placed.feature = view.feature;
      placed.tv = view.threshold;
      work.emplace_back(view.right, r);
      work.emplace_back(view.left, l);
    }
  }
  return out;
}

const double* FlatForest::sanitize_row(const double* row,
                                       double* buffer) const {
  const std::size_t p = feature_medians_.size();
  // Injected corruption: one feature becomes NaN before the trees see
  // it, exercising the same repair path real dropped counters take.
  if (fault::should_fire(fault::points::kForestNanFeature)) {
    std::copy(row, row + p, buffer);
    buffer[0] = std::numeric_limits<double>::quiet_NaN();
    row = buffer;
  }
  for (std::size_t f = 0; f < p; ++f) {
    if (std::isfinite(row[f])) continue;
    if (row != buffer) {
      std::copy(row, row + p, buffer);
      row = buffer;
    }
    buffer[f] = feature_medians_[f];
  }
  return row;
}

void FlatForest::tree_leaf_values(const double* row, double* out,
                                  ForestScratch& scratch) const {
  const FlatNode* const nodes = nodes_.data();
  const std::size_t nt = roots_.size();
  scratch.walk_lanes.resize(nt);
  std::int64_t* const lane = scratch.walk_lanes.data();

  // Every tree is one lane of the shared walk, compacted each round: a
  // lane visits its leaf exactly once (the visit that writes the lane's
  // final value) and is then dropped from the list, so a shallow tree
  // never spins while a deep one finishes.
  std::size_t n_active = 0;
  for (std::size_t t = 0; t < nt; ++t) {
    lane[n_active++] = pack_lane(static_cast<std::int32_t>(t), roots_[t]);
  }
  while (n_active > 0) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < n_active; ++j) {
      const std::int64_t e = lane[j];
      const auto t = static_cast<std::int32_t>(e);
      const auto i = static_cast<std::int32_t>(e >> 32);
      const FlatNode node = nodes[i];
      const std::int32_t nxt =
          node.left + (row[node.feature] > node.tv ? 1 : 0);
      // Unconditional: internal visits store a threshold that a later
      // visit of the same lane overwrites; the lane's last visit is its
      // leaf, whose tv is the leaf value.
      out[t] = node.tv;
      lane[w] = pack_lane(t, nxt);
      w += node.left >= 0 ? 1 : 0;
    }
    n_active = w;
  }
}

// GCC's default unroller leaves the block kernel's inner loop with one
// dependent bookkeeping chain per iteration; unrolling it lets the lanes
// of a round issue in parallel, which is the whole point of the walk.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("unroll-loops")
#endif

void FlatForest::accumulate_block(const double* rows, std::size_t p,
                                  std::size_t n, std::size_t t0,
                                  std::size_t t1, double* acc) const {
  const FlatNode* const nodes = nodes_.data();
  BF_CHECK(n >= 1 && n <= kRowBlock);

  // Tree-major: every row of the block walks the same tree before the
  // next tree's nodes are touched, so a tree's working set is pulled
  // into cache once per block instead of once per row. Within a tree the
  // rows are parked lanes: one that reached its leaf stays there (the
  // conditional move keeps idx unchanged) and the sign bits of the left
  // links, ANDed across lanes, say when every lane has parked. Leaf
  // values are added straight into the per-row accumulators; the caller
  // drives tree ranges in ascending order, so each row's sum is built in
  // tree order exactly like predict_row.
  for (std::size_t t = t0; t < t1; ++t) {
    const std::int32_t root = roots_[t];
    std::int32_t idx[kRowBlock];
    for (std::size_t k = 0; k < n; ++k) idx[k] = root;
    for (;;) {
      std::int32_t all_done = -1;
      for (std::size_t k = 0; k < n; ++k) {
        const std::int32_t i = idx[k];
        const FlatNode node = nodes[i];
        const std::int32_t next =
            node.left + (rows[k * p + node.feature] > node.tv ? 1 : 0);
        idx[k] = node.left < 0 ? i : next;
        all_done &= node.left;
      }
      if (all_done < 0) break;
    }
    for (std::size_t k = 0; k < n; ++k) acc[k] += nodes[idx[k]].tv;
  }
}

double FlatForest::predict_row(const double* row,
                               ForestScratch& scratch) const {
  BF_CHECK_MSG(fitted(), "predict on unfitted flat forest");
  const std::size_t nt = roots_.size();
  scratch.repaired.resize(feature_medians_.size());
  scratch.tree_values.resize(nt);
  row = sanitize_row(row, scratch.repaired.data());
  tree_leaf_values(row, scratch.tree_values.data(), scratch);
  double acc = 0.0;
  for (std::size_t t = 0; t < nt; ++t) acc += scratch.tree_values[t];
  return acc / static_cast<double>(nt);
}

double FlatForest::predict_row(const double* row) const {
  ForestScratch scratch;
  return predict_row(row, scratch);
}

void FlatForest::predict(const linalg::Matrix& x, std::vector<double>& out,
                         ForestScratch& scratch) const {
  BF_CHECK_MSG(fitted(), "predict on unfitted flat forest");
  BF_CHECK_MSG(x.cols() == feature_names_.size(),
               "prediction matrix has wrong number of columns");
  const std::size_t nt = roots_.size();
  const std::size_t p = feature_medians_.size();
  const std::size_t n_rows = x.rows();
  out.assign(n_rows, 0.0);

  // Sanitize every row exactly once, up front (same per-row fault and
  // repair order as predict_row), into one contiguous row-major block
  // shared by all tile passes over the matrix.
  scratch.repaired.resize(n_rows * p);
  for (std::size_t r = 0; r < n_rows; ++r) {
    double* buf = scratch.repaired.data() + r * p;
    const double* s = sanitize_row(x.row_ptr(r), buf);
    if (s != buf) std::copy(s, s + p, buf);
  }

  // Freeze lays trees out consecutively, so a tree range is one
  // contiguous node span; a tile groups trees until that span outgrows
  // the L2 budget, and every row block is streamed through the tile
  // while its nodes are resident.
  const auto tree_end = [&](std::size_t t) {
    return t + 1 < nt ? static_cast<std::size_t>(roots_[t + 1])
                      : nodes_.size();
  };
  std::size_t t0 = 0;
  while (t0 < nt) {
    std::size_t t1 = t0 + 1;
    while (t1 < nt && tree_end(t1) - static_cast<std::size_t>(roots_[t0]) <=
                          kTreeTileNodes) {
      ++t1;
    }
    for (std::size_t r0 = 0; r0 < n_rows; r0 += kRowBlock) {
      const std::size_t n = std::min(kRowBlock, n_rows - r0);
      accumulate_block(scratch.repaired.data() + r0 * p, p, n, t0, t1,
                       out.data() + r0);
    }
    t0 = t1;
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    out[r] /= static_cast<double>(nt);
  }
}

std::vector<double> FlatForest::predict(const linalg::Matrix& x) const {
  std::vector<double> out;
  ForestScratch scratch;
  predict(x, out, scratch);
  return out;
}

PredictionInterval FlatForest::predict_interval(const double* row,
                                                double alpha,
                                                ForestScratch& scratch) const {
  BF_CHECK_MSG(fitted(), "predict_interval on unfitted flat forest");
  BF_CHECK_MSG(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
  const std::size_t nt = roots_.size();
  scratch.repaired.resize(feature_medians_.size());
  scratch.tree_values.resize(nt);
  row = sanitize_row(row, scratch.repaired.data());
  tree_leaf_values(row, scratch.tree_values.data(), scratch);
  std::vector<double>& preds = scratch.tree_values;
  // Sum before selecting the band: the mean is built in tree order, like
  // predict_row.
  double acc = 0.0;
  for (std::size_t t = 0; t < nt; ++t) acc += preds[t];
  return band(preds, acc / static_cast<double>(nt), alpha);
}

PredictionInterval FlatForest::predict_interval(const double* row,
                                                double alpha) const {
  ForestScratch scratch;
  return predict_interval(row, alpha, scratch);
}

std::vector<PredictionInterval> FlatForest::predict_intervals(
    const linalg::Matrix& x, double alpha) const {
  BF_CHECK_MSG(x.cols() == feature_names_.size(),
               "prediction matrix has wrong number of columns");
  std::vector<PredictionInterval> out;
  out.reserve(x.rows());
  ForestScratch scratch;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out.push_back(predict_interval(x.row_ptr(r), alpha, scratch));
  }
  return out;
}

std::size_t FlatForest::pd_feature(const linalg::Matrix& rows,
                                   const std::string& feature,
                                   std::size_t grid_points) const {
  BF_CHECK_MSG(fitted(), "partial dependence on unfitted flat forest");
  BF_CHECK_MSG(grid_points >= 2, "need at least 2 grid points");
  BF_CHECK_MSG(rows.rows() >= 1 && rows.cols() == feature_names_.size(),
               "partial dependence needs the fitted predictor rows");
  const auto it =
      std::find(feature_names_.begin(), feature_names_.end(), feature);
  BF_CHECK_MSG(it != feature_names_.end(), "unknown feature: " << feature);
  return static_cast<std::size_t>(it - feature_names_.begin());
}

std::vector<PartialDependencePoint> FlatForest::partial_dependence(
    const linalg::Matrix& rows, const std::string& feature,
    std::size_t grid_points) const {
  const std::size_t f = pd_feature(rows, feature, grid_points);
  const std::size_t n = rows.rows();
  const auto [lo, hi] = column_range(rows, f);

  std::vector<PartialDependencePoint> curve(grid_points);
  linalg::Matrix clamped = rows;
  std::vector<double> pred;
  ForestScratch scratch;
  for (std::size_t g = 0; g < grid_points; ++g) {
    const double v = grid_value(lo, hi, g, grid_points);
    for (std::size_t r = 0; r < n; ++r) clamped(r, f) = v;
    predict(clamped, pred, scratch);
    double acc = 0.0;
    for (const double y : pred) acc += y;
    curve[g].x = v;
    curve[g].y = acc / static_cast<double>(n);
  }
  return curve;
}

std::vector<PartialDependenceInterval> FlatForest::partial_dependence_interval(
    const linalg::Matrix& rows, const std::string& feature,
    std::size_t grid_points, double alpha) const {
  const std::size_t f = pd_feature(rows, feature, grid_points);
  const std::size_t n = rows.rows();
  const std::size_t p = rows.cols();
  const std::size_t nt = roots_.size();
  const auto [lo, hi] = column_range(rows, f);

  std::vector<PartialDependenceInterval> curve(grid_points);
  std::vector<double> row(p);
  std::vector<double> leaf(nt);
  std::vector<double> per_tree(nt);
  ForestScratch scratch;
  for (std::size_t g = 0; g < grid_points; ++g) {
    const double v = grid_value(lo, hi, g, grid_points);
    // Per tree: the average leaf value over the rows with the feature
    // clamped (the fitted rows are finite, so they walk unrepaired); the
    // band is over trees, matching how bagging variance is usually
    // visualised.
    std::fill(per_tree.begin(), per_tree.end(), 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      const double* src = rows.row_ptr(r);
      std::copy(src, src + p, row.begin());
      row[f] = v;
      tree_leaf_values(row.data(), leaf.data(), scratch);
      for (std::size_t t = 0; t < nt; ++t) per_tree[t] += leaf[t];
    }
    for (auto& s : per_tree) s /= static_cast<double>(n);
    // The curve's mean is summed in ascending order.
    std::sort(per_tree.begin(), per_tree.end());
    double mean = 0.0;
    for (const double s : per_tree) mean += s;
    curve[g].x = v;
    curve[g].y = band(per_tree, mean / static_cast<double>(nt), alpha);
  }
  return curve;
}

void FlatForest::save(std::ostream& os) const {
  BF_CHECK_MSG(fitted(), "save on unfitted flat forest");
  os << "bf_flat_forest 2\n";
  os.precision(17);
  os << "features " << feature_names_.size();
  for (const auto& name : feature_names_) os << ' ' << name;
  os << "\n";
  os << "medians";
  for (const double m : feature_medians_) os << ' ' << m;
  os << "\n";
  os << "roots " << roots_.size();
  for (const std::int32_t r : roots_) os << ' ' << r;
  os << "\n";
  os << "nodes " << nodes_.size() << "\n";
  for (const FlatNode& node : nodes_) {
    os << node.left << ' ' << node.feature << ' ' << node.tv << "\n";
  }
}

FlatForest FlatForest::load(std::istream& is) {
  read_format_version(is, "bf_flat_forest", 2);
  FlatForest ff;
  std::string tag;
  std::size_t p = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> p) && tag == "features" &&
                   p >= 1 && p <= 100'000,
               "bf_flat_forest: malformed features header");
  ff.feature_names_.resize(p);
  for (auto& name : ff.feature_names_) {
    BF_CHECK_MSG(static_cast<bool>(is >> name),
                 "bf_flat_forest: truncated feature names");
  }
  BF_CHECK_MSG(static_cast<bool>(is >> tag) && tag == "medians",
               "bf_flat_forest: malformed medians record");
  ff.feature_medians_.resize(p);
  for (auto& m : ff.feature_medians_) {
    BF_CHECK_MSG(static_cast<bool>(is >> m),
                 "bf_flat_forest: truncated medians");
  }
  std::size_t n_trees = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> n_trees) && tag == "roots" &&
                   n_trees >= 1 && n_trees <= 1'000'000,
               "bf_flat_forest: malformed roots header");
  ff.roots_.resize(n_trees);
  std::size_t n_nodes_hdr = 0;
  for (auto& r : ff.roots_) {
    BF_CHECK_MSG(static_cast<bool>(is >> r),
                 "bf_flat_forest: truncated root table");
  }
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> n_nodes_hdr) && tag == "nodes" &&
                   n_nodes_hdr >= n_trees &&
                   n_nodes_hdr <= static_cast<std::size_t>(
                                      std::numeric_limits<std::int32_t>::max()),
               "bf_flat_forest: malformed nodes header");
  // Nodes are appended as they parse rather than pre-sized to the header
  // count, so a forged count fails on the truncated table instead of
  // allocating for nodes that are not there.
  const auto n_nodes = static_cast<std::int32_t>(n_nodes_hdr);
  for (std::size_t i = 0; i < n_nodes_hdr; ++i) {
    FlatNode node;
    BF_CHECK_MSG(
        static_cast<bool>(is >> node.left >> node.feature >> node.tv),
        "bf_flat_forest: truncated node table");
    // Structural validation: a corrupt node table must fail the load,
    // never walk out of bounds at predict time.
    BF_CHECK_MSG(node.left == -1 ||
                     (node.left > static_cast<std::int32_t>(i) &&
                      node.left + 1 < n_nodes),
                 "bf_flat_forest: node child out of range");
    BF_CHECK_MSG(node.feature >= 0 &&
                     static_cast<std::size_t>(node.feature) < p,
                 "bf_flat_forest: node feature out of range");
    ff.nodes_.push_back(node);
  }
  for (const std::int32_t r : ff.roots_) {
    BF_CHECK_MSG(r >= 0 && r < n_nodes,
                 "bf_flat_forest: root index out of range");
  }
  return ff;
}

}  // namespace bf::ml
