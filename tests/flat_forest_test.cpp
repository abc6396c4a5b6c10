// Bit-identity suite for the flat inference engine: every prediction a
// FlatForest makes — single row, batched, interval, partial dependence,
// NaN-repaired, fault-corrupted, reloaded from disk — must equal the
// test-local reference walk of the training trees (forest_reference.hpp)
// EXACTLY (EXPECT_EQ on doubles, not a tolerance). The freeze is a pure
// re-layout; any drift means the stepping kernel or the tree-order
// accumulation diverged.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "forest_reference.hpp"
#include "ml/flat_forest.hpp"
#include "ml/forest.hpp"

namespace bf::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Synthetic {
  linalg::Matrix x;
  std::vector<double> y;
};

/// Interacting nonlinear response over four features so trees actually
/// split on everything and leaves carry distinct values.
Synthetic make_synthetic(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Synthetic s{linalg::Matrix(n, 4), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) s.x(i, j) = rng.uniform(-5, 5);
    s.y[i] = 3.0 * s.x(i, 0) - 2.0 * s.x(i, 1) * s.x(i, 2) +
             std::sin(s.x(i, 3)) + rng.normal(0.0, 0.3);
  }
  return s;
}

const std::vector<std::string> kNames = {"a", "b", "c", "d"};

RandomForest fit_forest(std::uint64_t seed, std::size_t n_trees = 60) {
  const auto data = make_synthetic(200, seed);
  ForestParams p;
  p.n_trees = n_trees;
  p.seed = seed * 31 + 7;
  p.importance = false;
  RandomForest rf;
  rf.fit(data.x, data.y, kNames, p);
  return rf;
}

/// Probe rows spanning in-range, far-out-of-range and NaN cells.
linalg::Matrix make_probes(std::uint64_t seed, std::size_t n = 64) {
  Rng rng(seed);
  linalg::Matrix x(n, 4);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.uniform(-8, 8);
    if (i % 7 == 3) x(i, i % 4) = kNaN;                 // dropped counter
    if (i % 11 == 5) x(i, 1) = rng.uniform(1e6, 1e7);  // extrapolation
  }
  return x;
}

TEST(FlatForest, FreezePreservesShape) {
  const auto rf = fit_forest(1);
  const auto flat = FlatForest::freeze(rf);
  EXPECT_TRUE(flat.fitted());
  EXPECT_EQ(flat.n_trees(), 60u);
  EXPECT_EQ(flat.feature_names(), kNames);
  EXPECT_EQ(flat.feature_medians(), rf.feature_medians());
  std::size_t tree_nodes = 0;
  for (std::size_t t = 0; t < rf.n_trees(); ++t) {
    tree_nodes += rf.tree(t).node_count();
  }
  EXPECT_EQ(flat.node_count(), tree_nodes);
}

TEST(FlatForest, PredictRowBitIdentical) {
  const auto rf = fit_forest(2);
  const auto probes = make_probes(12);
  const auto flat = FlatForest::freeze(rf);
  ForestScratch scratch;
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    const double want = reference_predict(rf, probes.row_ptr(i));
    EXPECT_EQ(flat.predict_row(probes.row_ptr(i), scratch), want);
    EXPECT_EQ(flat.predict_row(probes.row_ptr(i)), want);
  }
}

TEST(FlatForest, BatchedPredictMatchesRowPath) {
  const auto rf = fit_forest(3);
  const auto probes = make_probes(13, 37);  // odd count: exercises the
                                            // partial trailing block
  const auto want = reference_predict(rf, probes);
  const auto got = FlatForest::freeze(rf).predict(probes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i;
  }
}

TEST(FlatForest, IntervalsBitIdenticalAcrossAlphas) {
  // A 25-row training set with leaves of two rows: per-tree values repeat
  // heavily, as on problem-scaling sweeps. 500 trees take the band's
  // sampled selection, the smaller forests select over every value.
  const auto data = make_synthetic(25, 4);
  const auto probes = make_probes(14, 16);
  for (const std::size_t n_trees : {1, 7, 60, 500}) {
    ForestParams p;
    p.n_trees = n_trees;
    p.min_node_size = 2;
    p.seed = 131;
    p.importance = false;
    RandomForest rf;
    rf.fit(data.x, data.y, kNames, p);
    const auto flat = FlatForest::freeze(rf);
    ForestScratch scratch;
    for (const double alpha : {0.02, 0.1, 0.5}) {
      const auto got_batch = flat.predict_intervals(probes, alpha);
      ASSERT_EQ(got_batch.size(), probes.rows());
      for (std::size_t i = 0; i < probes.rows(); ++i) {
        const auto want = reference_interval(rf, probes.row_ptr(i), alpha);
        const auto got = flat.predict_interval(probes.row_ptr(i), alpha,
                                               scratch);
        SCOPED_TRACE(testing::Message() << n_trees << " trees, alpha "
                                        << alpha << ", row " << i);
        EXPECT_EQ(got.mean, want.mean);
        EXPECT_EQ(got.lo, want.lo);
        EXPECT_EQ(got.hi, want.hi);
        EXPECT_EQ(got_batch[i].mean, want.mean);
        EXPECT_EQ(got_batch[i].lo, want.lo);
        EXPECT_EQ(got_batch[i].hi, want.hi);
      }
    }
  }
}

TEST(FlatForest, QuantileBandMatchesFullSortOnEveryBranch) {
  // quantile_band selects among the values beyond thresholds taken from
  // every 8th value, and selects over all values when the band is too
  // wide for that (small counts, alpha 0.5) or the sample leaves too few
  // beyond a threshold. Strided inputs force the latter on each side: the
  // smallest (largest) values sit exactly at the sampled positions, so
  // few values lie at or below (above) the sampled threshold.
  const auto strided = [](std::size_t n, bool low) {
    std::vector<double> v(n);
    std::size_t next_sampled = 0;
    std::size_t next_other = (n + 7) / 8;  // ranks above the sampled ones
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t rank = i % 8 == 0 ? next_sampled++ : next_other++;
      v[i] = static_cast<double>(low ? rank : n - 1 - rank);
    }
    return v;
  };
  Rng rng(5);
  std::vector<double> buffer;
  for (const std::size_t n : {1, 2, 7, 60, 100, 500, 1000}) {
    std::vector<std::pair<const char*, std::vector<double>>> inputs;
    inputs.emplace_back("all equal", std::vector<double>(n, 0.25));
    std::vector<double> two(n);
    for (auto& x : two) x = rng.uniform() < 0.3 ? 1.5 : 7.0;
    inputs.emplace_back("two values", two);
    std::vector<double> sorted(n);
    for (std::size_t i = 0; i < n; ++i) {
      sorted[i] = static_cast<double>(i / 3) * 0.7;  // runs of ties
    }
    inputs.emplace_back("sorted", sorted);
    inputs.emplace_back("reversed",
                        std::vector<double>(sorted.rbegin(), sorted.rend()));
    inputs.emplace_back("strided low", strided(n, true));
    inputs.emplace_back("strided high", strided(n, false));
    std::vector<double> noisy(n);
    for (auto& x : noisy) x = std::round(rng.uniform(0, 40)) * 0.1;
    inputs.emplace_back("random ties", noisy);
    for (const auto& [name, values] : inputs) {
      for (const double alpha : {0.02, 0.1, 0.5, 0.95}) {
        SCOPED_TRACE(testing::Message() << name << ", n " << n << ", alpha "
                                        << alpha);
        const auto want = reference_band(values, 1.25, alpha);
        std::vector<double> work = values;
        const auto got = quantile_band(work, 1.25, alpha, buffer);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lo),
                  std::bit_cast<std::uint64_t>(want.lo));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hi),
                  std::bit_cast<std::uint64_t>(want.hi));
        EXPECT_EQ(got.mean, 1.25);
        std::sort(work.begin(), work.end());
        std::vector<double> sorted_values = values;
        std::sort(sorted_values.begin(), sorted_values.end());
        EXPECT_EQ(work, sorted_values) << "values were not only reordered";
      }
    }
  }
  std::vector<double> none;
  EXPECT_THROW((void)quantile_band(none, 0.0, 0.1, buffer), Error);
  std::vector<double> one = {1.0};
  EXPECT_THROW((void)quantile_band(one, 1.0, 0.0, buffer), Error);
  EXPECT_THROW((void)quantile_band(one, 1.0, 1.0, buffer), Error);
}

TEST(FlatForest, PartialDependenceMatchesReference) {
  const auto data = make_synthetic(50, 15);
  ForestParams p;
  p.n_trees = 30;
  p.seed = 15;
  p.importance = false;
  RandomForest rf;
  rf.fit(data.x, data.y, kNames, p);
  const auto flat = FlatForest::freeze(rf);
  const std::size_t n = data.x.rows();
  const auto plain = flat.partial_dependence(data.x, "b", 7);
  const auto banded = flat.partial_dependence_interval(data.x, "b", 7, 0.2);
  ASSERT_EQ(plain.size(), 7u);
  ASSERT_EQ(banded.size(), 7u);
  linalg::Matrix clamped = data.x;
  for (std::size_t g = 0; g < plain.size(); ++g) {
    // Plain: the reference prediction averaged over the clamped rows in
    // row order. Banded: per tree, the leaf average over the same rows.
    double acc = 0.0;
    std::vector<double> per_tree(rf.n_trees(), 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      clamped(r, 1) = plain[g].x;
      acc += reference_predict(rf, clamped.row_ptr(r));
      const auto values = reference_tree_values(rf, clamped.row_ptr(r));
      for (std::size_t t = 0; t < rf.n_trees(); ++t) per_tree[t] += values[t];
    }
    for (auto& v : per_tree) v /= static_cast<double>(n);
    std::sort(per_tree.begin(), per_tree.end());
    double mean = 0.0;
    for (const double v : per_tree) mean += v;
    const auto want = reference_band(per_tree,
                                     mean / static_cast<double>(rf.n_trees()),
                                     0.2);
    EXPECT_EQ(plain[g].y, acc / static_cast<double>(n));
    EXPECT_EQ(banded[g].x, plain[g].x);
    EXPECT_EQ(banded[g].y.mean, want.mean);
    EXPECT_EQ(banded[g].y.lo, want.lo);
    EXPECT_EQ(banded[g].y.hi, want.hi);
  }
  EXPECT_THROW(flat.partial_dependence(data.x, "zzz"), Error);
  EXPECT_THROW(flat.partial_dependence(data.x, "b", 1), Error);
  EXPECT_THROW(flat.partial_dependence_interval(linalg::Matrix(0, 4), "b"),
               Error);
}

TEST(FlatForest, NanRowRepairedWithSameMedians) {
  const auto rf = fit_forest(5);
  const auto flat = FlatForest::freeze(rf);
  const double all_nan[4] = {kNaN, kNaN, kNaN, kNaN};
  EXPECT_EQ(flat.predict_row(all_nan), reference_predict(rf, all_nan));
  const double inf_row[4] = {1.0, std::numeric_limits<double>::infinity(),
                             -2.0, -std::numeric_limits<double>::infinity()};
  EXPECT_EQ(flat.predict_row(inf_row), reference_predict(rf, inf_row));
}

TEST(FlatForest, NanFaultIsRepairedLikeADroppedFeature) {
  const auto rf = fit_forest(6);
  const auto flat = FlatForest::freeze(rf);
  const double row[4] = {0.5, -1.5, 2.5, -3.5};
  // At rate 1.0 the fault turns feature 0 into NaN on every predict
  // call; the repair must match the reference for a genuinely NaN cell.
  const double nan_row[4] = {kNaN, -1.5, 2.5, -3.5};
  fault::arm(fault::points::kForestNanFeature, 1.0);
  const double got = flat.predict_row(row);
  fault::reset();
  EXPECT_EQ(got, reference_predict(rf, nan_row));
  // The corrupted prediction must differ from the clean one (the fault
  // really replaced feature 0), and the clean path must still agree.
  EXPECT_NE(flat.predict_row(row), got);
  EXPECT_EQ(flat.predict_row(row), reference_predict(rf, row));
}

TEST(FlatForest, SaveLoadRoundTripExact) {
  const auto rf = fit_forest(7);
  const auto probes = make_probes(17, 24);
  const auto flat = FlatForest::freeze(rf);
  std::stringstream ss;
  flat.save(ss);
  EXPECT_EQ(ss.str().rfind("bf_flat_forest 2\nfeatures ", 0), 0u);
  const auto loaded = FlatForest::load(ss);
  EXPECT_EQ(loaded.n_trees(), flat.n_trees());
  EXPECT_EQ(loaded.node_count(), flat.node_count());
  EXPECT_EQ(loaded.feature_names(), flat.feature_names());
  EXPECT_EQ(loaded.feature_medians(), flat.feature_medians());
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    EXPECT_EQ(loaded.predict_row(probes.row_ptr(i)),
              flat.predict_row(probes.row_ptr(i)));
  }
}

TEST(FlatForest, LoadRejectsGarbage) {
  std::stringstream bad_magic("not_a_forest 1\n");
  EXPECT_THROW(FlatForest::load(bad_magic), Error);
  const auto flat = FlatForest::freeze(fit_forest(8, 4));
  std::stringstream ss;
  flat.save(ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);  // truncation
  std::stringstream cut(text);
  EXPECT_THROW(FlatForest::load(cut), Error);
}

TEST(FlatForest, PropertyRandomForestsBitIdentical) {
  Rng rng(99);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const auto data = make_synthetic(40 + 10 * (trial % 5), 100 + trial);
    ForestParams p;
    p.n_trees = 1 + static_cast<std::size_t>(rng.uniform(0, 24));
    p.max_depth = static_cast<std::size_t>(rng.uniform(0, 6));  // 0 = deep
    p.min_node_size = 1 + static_cast<std::size_t>(rng.uniform(0, 7));
    p.mtry = static_cast<std::size_t>(rng.uniform(0, 4));
    p.importance = false;
    p.seed = 1000 + trial;
    RandomForest rf;
    rf.fit(data.x, data.y, kNames, p);
    const auto probes = make_probes(200 + trial, 16);
    const auto flat = FlatForest::freeze(rf);
    ForestScratch scratch;
    for (std::size_t i = 0; i < probes.rows(); ++i) {
      EXPECT_EQ(flat.predict_row(probes.row_ptr(i), scratch),
                reference_predict(rf, probes.row_ptr(i)))
          << "trial " << trial << " row " << i;
      const auto want_iv = reference_interval(rf, probes.row_ptr(i), 0.1);
      const auto got_iv = flat.predict_interval(probes.row_ptr(i), 0.1,
                                                scratch);
      EXPECT_EQ(got_iv.lo, want_iv.lo);
      EXPECT_EQ(got_iv.hi, want_iv.hi);
    }
  }
}

// ---- model-level round trips (the .bfmodel payload) ----

ml::Dataset model_sweep() {
  const auto data = make_synthetic(120, 55);
  ml::Dataset ds;
  std::vector<std::vector<double>> cols(4);
  std::vector<double> time(data.y);
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    for (std::size_t j = 0; j < 4; ++j) cols[j].push_back(data.x(i, j));
    time[i] = std::abs(time[i]) + 0.5;  // times are positive
  }
  for (std::size_t j = 0; j < 4; ++j) ds.add_column(kNames[j], cols[j]);
  ds.add_column("time_ms", time);
  return ds;
}

core::ModelOptions fast_model() {
  core::ModelOptions opt;
  opt.forest.n_trees = 50;
  opt.forest.importance = false;
  return opt;
}

TEST(FlatForestModel, V2SaveLoadPredictsIdentically) {
  const auto model = core::BlackForestModel::fit(model_sweep(), fast_model());
  std::stringstream ss;
  model.save(ss);
  EXPECT_EQ(ss.str().substr(0, 10), "bf_model 2");
  const auto loaded = core::BlackForestModel::load(ss);
  EXPECT_FALSE(loaded.forest().fitted());  // the record holds the flat form
  EXPECT_TRUE(loaded.flat().fitted());
  const auto probe = model_sweep().drop_columns({"time_ms"});
  const auto want = model.predict(probe);
  const auto got = loaded.predict(probe);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  EXPECT_EQ(loaded.test_mse(), model.test_mse());
  EXPECT_EQ(loaded.test_explained_variance(),
            model.test_explained_variance());
}

TEST(FlatForestModel, PreviousRecordVersionsAreRejected) {
  // Hand-written version-1 records: the pointer-forest model dump and
  // the flat forest with its layout line. Each record reads exactly one
  // version, and the error names the one it got.
  const auto expect_rejected = [](const char* magic, std::istream& is,
                                  auto&& load) {
    try {
      load(is);
      ADD_FAILURE() << magic << " 1 stream loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(magic) +
                                           " format_version 1"),
                std::string::npos)
          << e.what();
    }
  };
  std::stringstream model_v1(
      "bf_model 1\n1 a\n0.5 0.9\nbf_forest 1\nfeatures 1 a\n");
  expect_rejected("bf_model", model_v1,
                  [](std::istream& is) { core::BlackForestModel::load(is); });
  std::stringstream flat_v1(
      "bf_flat_forest 1\nlayout df\nfeatures 1 a\nmedians 0\n"
      "roots 1 0\nnodes 1\n-1 0 2.5\n");
  expect_rejected("bf_flat_forest", flat_v1,
                  [](std::istream& is) { FlatForest::load(is); });
}

TEST(FlatForestModel, GuardedIntervalPathMatchesReference) {
  const auto model = core::BlackForestModel::fit(model_sweep(), fast_model());
  const auto probes = make_probes(300, 12);
  ForestScratch scratch;
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    // The exact call the guarded predictor hot path makes...
    const auto got = model.predict_interval(probes.row_ptr(i), 0.1, scratch);
    // ...against the reference walk of the training trees it froze from.
    const auto want = reference_interval(model.forest(), probes.row_ptr(i),
                                         0.1);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.lo, want.lo);
    EXPECT_EQ(got.hi, want.hi);
  }
}

}  // namespace
}  // namespace bf::ml
