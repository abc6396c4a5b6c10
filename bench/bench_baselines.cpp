// Related-work baselines (paper §2): BlackForest's random forest vs a
// Stargazer-style stepwise regression and an Eiger-style model-pool
// parametric regression, on the same counter data.
//
// Three comparisons:
//  1. variable selection: do stepwise and RF importance agree on the
//     influential counters?
//  2. in-range prediction (the paper's problem-scaling setting);
//  3. extrapolation beyond the training range — where analytical models
//     keep working and forests flatline (the honest trade-off).
#include <cstdio>

#include <algorithm>

#include "bench_util.hpp"
#include "core/model.hpp"
#include "core/predictor.hpp"
#include "ml/flat_forest.hpp"
#include "ml/metrics.hpp"
#include "ml/model_pool.hpp"
#include "ml/stepwise.hpp"
#include "profiling/workloads.hpp"

int main() {
  using namespace bf;
  bench::print_header("Baselines",
                      "BlackForest vs Stargazer-style stepwise vs "
                      "Eiger-style model pool (MM, GTX580)");

  const gpusim::Device device(gpusim::gtx580());
  const auto workload = profiling::matmul_workload();
  const auto sweep = profiling::sweep(
      workload, device, profiling::log2_sizes(32, 1024, 22, 16));

  Rng rng(2024);
  const auto split = ml::train_test_split(sweep, 0.2, rng);
  std::vector<std::string> predictors;
  for (const auto& name : split.train.column_names()) {
    if (name == profiling::kTimeColumn) continue;
    bool skip = false;
    for (const auto& e : bench::paper_excludes()) skip |= (e == name);
    if (!skip) predictors.push_back(name);
  }
  const auto x_train = split.train.to_matrix(predictors);
  const auto x_test = split.test.to_matrix(predictors);
  const auto& y_train = split.train.column(profiling::kTimeColumn);
  const auto& y_test = split.test.column(profiling::kTimeColumn);

  // --- 1. variable selection ---
  core::ModelOptions mo;
  mo.exclude = bench::paper_excludes();
  mo.forest.n_trees = 400;
  mo.forest.min_node_size = 2;
  const auto bf_model = core::BlackForestModel::fit(sweep, mo);
  const auto bf_top = bf_model.top_variables(6);

  ml::StepwiseRegression stepwise;
  ml::StepwiseParams sp;
  sp.max_variables = 6;
  stepwise.fit(x_train, y_train, predictors, sp);

  std::printf("RF importance top-6 : ");
  for (const auto& v : bf_top) std::printf("%s  ", v.c_str());
  std::printf("\nstepwise selection  : ");
  for (const auto& v : stepwise.selected()) std::printf("%s  ", v.c_str());
  std::size_t agree = 0;
  for (const auto& v : stepwise.selected()) {
    if (std::find(bf_top.begin(), bf_top.end(), v) != bf_top.end()) ++agree;
  }
  std::printf("\noverlap: %zu of %zu stepwise variables appear in the RF "
              "top-6\n\n",
              agree, stepwise.selected().size());

  // --- 2. in-range prediction ---
  ml::RandomForest rf;
  ml::ForestParams fp;
  fp.n_trees = 400;
  fp.min_node_size = 2;
  fp.importance = false;
  rf.fit(x_train, y_train, predictors, fp);

  ml::ModelPoolRegression pool;
  pool.fit(x_train, y_train, predictors, {});

  std::vector<std::vector<std::string>> rows;
  const auto add_row = [&](const std::string& name,
                           const std::vector<double>& pred) {
    rows.push_back({name, report::cell(ml::mse(y_test, pred), 4),
                    report::cell(
                        100.0 * ml::explained_variance(y_test, pred), 1),
                    report::cell(ml::median_abs_pct_error(y_test, pred),
                                 1)});
  };
  add_row("random forest", ml::FlatForest::freeze(rf).predict(x_test));
  add_row("stepwise (Stargazer)", stepwise.predict(x_test));
  add_row("model pool (Eiger)", pool.predict(x_test));
  std::printf("in-range prediction on the held-out split:\n%s\n",
              report::table({"model", "test MSE", "expl var %",
                             "median |err| %"},
                            rows)
                  .c_str());
  std::printf("Eiger-style closed form: time_ms = %s\n\n",
              pool.to_string().c_str());

  // --- 3. extrapolation: train <= 1024, predict 1200..2048 ---
  profiling::Profiler profiler;
  std::vector<double> xs{1200, 1600, 2048};
  std::printf("extrapolation beyond the training range (trained to "
              "n=1024):\n");
  std::printf("  %-6s %-12s %-14s %-14s %s\n", "n", "measured",
              "forest", "model pool", "(ms)");
  // The forest route uses the BlackForest problem-scaling pipeline; the
  // pool predicts from modelled counters too, for a fair comparison.
  core::ProblemScalingOptions pso;
  pso.model.exclude = bench::paper_excludes();
  const auto ps = core::ProblemScalingPredictor::build(sweep, pso);
  core::CounterModelOptions cmo;
  const auto cms = core::CounterModels::fit(sweep, predictors, cmo);
  for (const double n : xs) {
    const double measured =
        profiler.profile(workload, device, n).time_ms;
    const double forest_pred = ps.predict_time(n);
    // Assemble the pool's feature row from the counter models.
    std::vector<double> row(predictors.size(), 0.0);
    const auto predicted_counters = cms.predict({n});
    for (std::size_t j = 0; j < predictors.size(); ++j) {
      if (predictors[j] == profiling::kSizeColumn) {
        row[j] = n;
        continue;
      }
      for (const auto& [name, value] : predicted_counters) {
        if (name == predictors[j]) row[j] = value;
      }
    }
    const double pool_pred = pool.predict_row(row.data(), row.size());
    std::printf("  %-6.0f %-12.3f %-14.3f %-14.3f\n", n, measured,
                forest_pred, pool_pred);
  }
  std::printf("\ntakeaway: the forest saturates at the largest training "
              "response (no extrapolation);\nthe analytical pool "
              "extrapolates — at the price of the modelling complexity "
              "the paper\ncriticises Eiger for.\n");
  return 0;
}
