// Extension A9 (paper §7): confidence intervals on partial-dependence
// plots and predictions.
//
// "Integrating confidence intervals into the partial dependence plots
// would help interpretation and confidence in the outcome." We add an
// empirical 80% band from the per-tree prediction distribution and show
// (1) the banded partial-dependence plot for reduce1's top counter and
// (2) how the band widens exactly where problem-scaling predictions are
// risky (range edges).
#include <cstdio>

#include "bench_util.hpp"
#include "core/model.hpp"
#include "core/predictor.hpp"
#include "profiling/workloads.hpp"
#include "report/export.hpp"

int main() {
  using namespace bf;
  bench::print_header("Extension A9",
                      "prediction/partial-dependence intervals (reduce1)");

  const gpusim::Device device(gpusim::gtx580());
  const auto sweep = profiling::sweep(
      profiling::reduce_workload(1), device,
      profiling::log2_sizes(1 << 14, 1 << 23, 50, 256));

  core::ModelOptions mo;
  mo.exclude = bench::paper_excludes();
  mo.forest.n_trees = 400;
  const auto model = core::BlackForestModel::fit(sweep, mo);

  const auto top = model.top_variables(1);
  const auto curve = model.partial_dependence_interval(top[0], 18, 0.2);

  report::Series mean_s{ "mean", {}, {} };
  report::Series lo_s{ "p10", {}, {} };
  report::Series hi_s{ "p90", {}, {} };
  for (const auto& p : curve) {
    mean_s.x.push_back(p.x);
    mean_s.y.push_back(p.y.mean);
    lo_s.x.push_back(p.x);
    lo_s.y.push_back(p.y.lo);
    hi_s.x.push_back(p.x);
    hi_s.y.push_back(p.y.hi);
  }
  std::printf("%s\n",
              report::xy_plot("partial dependence of time on " + top[0] +
                                  " with 80% band",
                              {mean_s, lo_s, hi_s})
                  .c_str());
  report::export_series_csv("bench_ext_intervals_pd.csv",
                            {mean_s, lo_s, hi_s});
  std::printf("(exported bench_ext_intervals_pd.csv)\n\n");

  // Interval width across the prediction range: widest at the edges.
  std::printf("prediction intervals across the size range:\n");
  std::printf("  %-10s %-12s %-24s %s\n", "size", "mean(ms)",
              "80%-interval(ms)", "rel.width");
  const auto& train = model.train_data();
  const auto predictors = model.predictors();
  for (std::size_t r = 0; r < train.num_rows();
       r += std::max<std::size_t>(1, train.num_rows() / 8)) {
    std::vector<double> row;
    for (const auto& p : predictors) row.push_back(train.at(r, p));
    const auto iv = model.flat().predict_interval(row.data(), 0.2);
    std::printf("  %-10.0f %-12.4f [%9.4f, %9.4f]    %.1f%%\n",
                train.at(r, profiling::kSizeColumn), iv.mean, iv.lo, iv.hi,
                100.0 * (iv.hi - iv.lo) / iv.mean);
  }
  return 0;
}
