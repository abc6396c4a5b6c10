// P1/P3: google-benchmark microbenchmarks of the statistical substrate —
// forest training/prediction, PCA, MARS and GLM fits at realistic
// BlackForest dataset shapes (tens-to-hundreds of rows, ~30 counters).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "ml/flat_forest.hpp"
#include "ml/linear_model.hpp"
#include "ml/mars.hpp"
#include "ml/pca.hpp"

namespace {

using namespace bf;

struct Problem {
  linalg::Matrix x;
  std::vector<double> y;
  std::vector<std::string> names;
};

Problem make_problem(std::size_t n, std::size_t p) {
  Rng rng(1234);
  Problem prob{linalg::Matrix(n, p), std::vector<double>(n),
               std::vector<std::string>(p)};
  for (std::size_t j = 0; j < p; ++j) {
    prob.names[j] = "c" + std::to_string(j);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      prob.x(i, j) = rng.uniform(0, 100);
      if (j < 3) acc += prob.x(i, j);
    }
    prob.y[i] = acc + rng.normal(0.0, 2.0);
  }
  return prob;
}

void BM_ForestFit(benchmark::State& state) {
  const auto prob = make_problem(static_cast<std::size_t>(state.range(0)),
                                 30);
  ml::ForestParams params;
  params.n_trees = static_cast<std::size_t>(state.range(1));
  params.importance = true;
  for (auto _ : state) {
    ml::RandomForest rf;
    rf.fit(prob.x, prob.y, prob.names, params);
    benchmark::DoNotOptimize(rf.oob_mse());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_ForestFit)
    ->Args({50, 100})
    ->Args({100, 100})
    ->Args({100, 500})
    ->Args({400, 500})
    ->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  const auto prob = make_problem(200, 30);
  ml::RandomForest rf;
  ml::ForestParams params;
  params.n_trees = 500;
  params.importance = false;
  rf.fit(prob.x, prob.y, prob.names, params);
  const auto flat = ml::FlatForest::freeze(rf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat.predict(prob.x));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_ForestPredict)->Unit(benchmark::kMicrosecond);

void BM_PartialDependence(benchmark::State& state) {
  const auto prob = make_problem(100, 30);
  ml::RandomForest rf;
  ml::ForestParams params;
  params.n_trees = 300;
  rf.fit(prob.x, prob.y, prob.names, params);
  const auto flat = ml::FlatForest::freeze(rf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat.partial_dependence(prob.x, "c0", 25));
  }
}
BENCHMARK(BM_PartialDependence)->Unit(benchmark::kMillisecond);

void BM_PcaFit(benchmark::State& state) {
  const auto prob = make_problem(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    ml::Pca pca;
    pca.fit(prob.x, prob.names);
    pca.varimax();
    benchmark::DoNotOptimize(pca.num_retained());
  }
}
BENCHMARK(BM_PcaFit)->Args({100, 10})->Args({100, 30})->Args({400, 30})
    ->Unit(benchmark::kMillisecond);

void BM_MarsFit(benchmark::State& state) {
  const auto prob = make_problem(static_cast<std::size_t>(state.range(0)),
                                 2);
  for (auto _ : state) {
    ml::Mars mars;
    mars.fit(prob.x, prob.y);
    benchmark::DoNotOptimize(mars.r_squared());
  }
}
BENCHMARK(BM_MarsFit)->Arg(50)->Arg(130)->Unit(benchmark::kMillisecond);

void BM_GlmFit(benchmark::State& state) {
  const auto prob = make_problem(130, 4);
  for (auto _ : state) {
    ml::Glm glm;
    glm.fit(prob.x, prob.y);
    benchmark::DoNotOptimize(glm.residual_deviance());
  }
}
BENCHMARK(BM_GlmFit)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
