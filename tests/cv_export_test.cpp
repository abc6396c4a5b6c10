// Tests for k-fold cross-validation and the figure-export helpers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>

#include "common/error.hpp"
#include "ml/cv.hpp"
#include "ml/metrics.hpp"
#include "forest_reference.hpp"
#include "ml/forest.hpp"
#include "ml/linear_model.hpp"
#include "report/export.hpp"

namespace bf {
namespace {

ml::Dataset make_linear_ds(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0, 10);
    y[i] = 2.0 + 3.0 * x[i] + rng.normal(0, 0.2);
  }
  ml::Dataset ds;
  ds.add_column("x", x);
  ds.add_column("y", y);
  return ds;
}

TEST(KfoldCv, CoversEveryRowExactlyOnce) {
  const auto ds = make_linear_ds(53, 1);
  Rng rng(2);
  const auto cv = ml::kfold_cv(
      ds, "y", 5, rng, [](const ml::Dataset& train, const ml::Dataset& test) {
        ml::Glm glm;
        ml::GlmParams p;
        p.degree = 1;
        p.log_terms = false;
        glm.fit(train.to_matrix({"x"}), train.column("y"), p);
        return glm.predict(test.to_matrix({"x"}));
      });
  EXPECT_EQ(cv.fold_mse.size(), 5u);
  for (const double p : cv.predictions) {
    EXPECT_FALSE(std::isnan(p)) << "row never predicted";
  }
  // Linear model on linear data: tiny CV error.
  EXPECT_LT(cv.mean_mse, 0.1);
  EXPECT_GE(cv.sd_mse, 0.0);
}

TEST(KfoldCv, ForestBeatsMeanPredictorOutOfFold) {
  const auto ds = make_linear_ds(80, 3);
  Rng rng(4);
  const auto cv = ml::kfold_cv(
      ds, "y", 4, rng, [](const ml::Dataset& train, const ml::Dataset& test) {
        ml::RandomForest rf;
        ml::ForestParams p;
        p.n_trees = 60;
        p.importance = false;
        rf.fit(train.to_matrix({"x"}), train.column("y"), {"x"}, p);
        return ml::reference_predict(rf, test.to_matrix({"x"}));
      });
  EXPECT_LT(cv.mean_mse, ml::variance(ds.column("y")) * 0.2);
}

TEST(KfoldCv, Validation) {
  const auto ds = make_linear_ds(10, 5);
  Rng rng(6);
  const auto noop = [](const ml::Dataset&, const ml::Dataset& test) {
    return std::vector<double>(test.num_rows(), 0.0);
  };
  EXPECT_THROW(ml::kfold_cv(ds, "y", 1, rng, noop), Error);
  EXPECT_THROW(ml::kfold_cv(ds, "missing", 3, rng, noop), Error);
  EXPECT_THROW(ml::kfold_cv(ds, "y", 11, rng, noop), Error);
  // Wrong-sized prediction vector is rejected.
  const auto bad = [](const ml::Dataset&, const ml::Dataset&) {
    return std::vector<double>{1.0};
  };
  EXPECT_THROW(ml::kfold_cv(ds, "y", 3, rng, bad), Error);
}

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bf_export_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(ExportTest, SeriesCsvRoundTrips) {
  report::Series a{"measured", {1, 2, 4}, {10, 20, 40}};
  report::Series b{"predicted", {1, 2, 4}, {11, 19, 41}};
  report::export_series_csv(path("s.csv"), {a, b});
  const auto table = CsvTable::load(path("s.csv"));
  EXPECT_EQ(table.header(),
            (std::vector<std::string>{"x", "measured", "predicted"}));
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(table.cell_as_double(2, "predicted"), 41.0);
}

TEST_F(ExportTest, SeriesMustShareGrid) {
  report::Series a{"a", {1, 2}, {1, 2}};
  report::Series b{"b", {1, 3}, {1, 2}};
  EXPECT_THROW(report::export_series_csv(path("bad.csv"), {a, b}), Error);
  EXPECT_THROW(report::export_series_csv(path("bad.csv"), {}), Error);
}

TEST_F(ExportTest, BarsCsv) {
  report::export_bars_csv(path("b.csv"),
                          {{"shared_load", 5.5}, {"branch", -1.0}});
  const auto table = CsvTable::load(path("b.csv"));
  EXPECT_EQ(table.cell(0, "label"), "shared_load");
  EXPECT_DOUBLE_EQ(table.cell_as_double(1, "value"), -1.0);
}

}  // namespace
}  // namespace bf
