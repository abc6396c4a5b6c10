#include "core/model.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/io.hpp"
#include "ml/metrics.hpp"

namespace bf::core {
namespace {

std::vector<std::string> predictor_columns(
    const ml::Dataset& ds, const std::string& response,
    const std::vector<std::string>& exclude) {
  std::vector<std::string> out;
  for (const auto& name : ds.column_names()) {
    if (name == response) continue;
    if (std::find(exclude.begin(), exclude.end(), name) != exclude.end()) {
      continue;
    }
    out.push_back(name);
  }
  BF_CHECK_MSG(!out.empty(), "no predictor columns left");
  return out;
}

}  // namespace

BlackForestModel BlackForestModel::fit(const ml::Dataset& ds,
                                       const ModelOptions& options) {
  BF_CHECK_MSG(ds.has_column(options.response),
               "dataset lacks the response column '"
                   << options.response << "'");
  BlackForestModel model;
  model.options_ = options;

  // Drop constant predictors up front: they carry no signal and distort
  // permutation importance.
  ml::Dataset clean = ds;
  clean.drop_constant_columns();
  BF_CHECK_MSG(clean.has_column(options.response),
               "response column is constant — nothing to model");

  Rng rng(options.seed);
  ml::TrainTestSplit split =
      ml::train_test_split(clean, options.test_fraction, rng);
  model.train_ = std::move(split.train);
  model.test_ = std::move(split.test);
  model.predictors_ =
      predictor_columns(model.train_, options.response, options.exclude);

  const linalg::Matrix x = model.train_.to_matrix(model.predictors_);
  const std::vector<double>& y = model.train_.column(options.response);
  ml::ForestParams params = options.forest;
  if (params.seed == ml::ForestParams{}.seed) params.seed = options.seed;
  model.forest_.fit(x, y, model.predictors_, params);
  model.flat_ = ml::FlatForest::freeze(model.forest_);

  if (model.test_.num_rows() > 0) {
    const linalg::Matrix tx = model.test_.to_matrix(model.predictors_);
    const std::vector<double> pred = model.flat_.predict(tx);
    const std::vector<double>& truth =
        model.test_.column(options.response);
    model.test_mse_ = ml::mse(truth, pred);
    model.test_explained_var_ = ml::explained_variance(truth, pred);
  }
  return model;
}

BlackForestModel BlackForestModel::refit_with(
    const std::vector<std::string>& predictors) const {
  BF_CHECK_MSG(!predictors.empty(), "refit needs at least one predictor");
  BlackForestModel model;
  model.options_ = options_;
  model.train_ = train_;
  model.test_ = test_;
  model.predictors_ = predictors;

  const linalg::Matrix x = model.train_.to_matrix(predictors);
  const std::vector<double>& y = model.train_.column(options_.response);
  ml::ForestParams params = options_.forest;
  if (params.seed == ml::ForestParams{}.seed) params.seed = options_.seed;
  model.forest_.fit(x, y, predictors, params);
  model.flat_ = ml::FlatForest::freeze(model.forest_);

  if (model.test_.num_rows() > 0) {
    const linalg::Matrix tx = model.test_.to_matrix(predictors);
    const std::vector<double> pred = model.flat_.predict(tx);
    const std::vector<double>& truth =
        model.test_.column(options_.response);
    model.test_mse_ = ml::mse(truth, pred);
    model.test_explained_var_ = ml::explained_variance(truth, pred);
  }
  return model;
}

std::vector<double> BlackForestModel::predict(const ml::Dataset& ds) const {
  const linalg::Matrix x = ds.to_matrix(predictors_);
  return flat_.predict(x);
}

void BlackForestModel::save(std::ostream& os) const {
  BF_CHECK_MSG(flat_.fitted(), "save on unfitted model");
  os.precision(17);
  os << "bf_model 2\n";
  os << predictors_.size();
  for (const auto& p : predictors_) os << ' ' << p;
  os << "\n";
  os << test_mse_ << ' ' << test_explained_var_ << "\n";
  flat_.save(os);
}

BlackForestModel BlackForestModel::load(std::istream& is) {
  read_format_version(is, "bf_model", 2);
  BlackForestModel model;
  std::size_t n = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> n) && n >= 1 && n <= 100'000,
               "bf_model: bad predictor count");
  model.predictors_.resize(n);
  for (auto& p : model.predictors_) {
    BF_CHECK_MSG(static_cast<bool>(is >> p), "bf_model: truncated predictors");
  }
  BF_CHECK_MSG(
      static_cast<bool>(is >> model.test_mse_ >> model.test_explained_var_),
      "bf_model: truncated statistics");
  model.flat_ = ml::FlatForest::load(is);
  BF_CHECK_MSG(model.flat_.feature_names() == model.predictors_,
               "bf_model: forest features disagree with predictor list");
  return model;
}

}  // namespace bf::core
