// P1/P3: google-benchmark microbenchmarks of the statistical substrate —
// forest training/prediction, PCA, MARS and GLM fits at realistic
// BlackForest dataset shapes (tens-to-hundreds of rows, ~30 counters).
#include <benchmark/benchmark.h>

#include <cmath>

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

/// n rows of p counters. The last p - two_valued columns are uniform and
/// the response follows the first three of them; the first `two_valued`
/// columns take one value on the first half of the rows and another on the
/// rest, like the machine characteristics of a two-GPU hardware-scaling
/// training set, and shift the response between the halves.
Problem make_problem(std::size_t n, std::size_t p,
                     std::size_t two_valued = 0) {
  Rng rng(1234);
  Problem prob{linalg::Matrix(n, p), std::vector<double>(n),
               std::vector<std::string>(p)};
  for (std::size_t j = 0; j < p; ++j) {
    prob.names[j] = "c" + std::to_string(j);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool second = 2 * i >= n;
    double acc = second && two_valued > 0 ? 50.0 : 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      if (j < two_valued) {
        prob.x(i, j) = static_cast<double>(j + 1) * (second ? 2.0 : 1.0);
        continue;
      }
      prob.x(i, j) = rng.uniform(0, 100);
      if (j < two_valued + 3) acc += prob.x(i, j);
    }
    prob.y[i] = acc + rng.normal(0.0, 2.0);
  }
  return prob;
}

// Trees grow on the shared pool, so the timings are wall time.
void BM_ForestFit(benchmark::State& state) {
  const auto prob = make_problem(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(2)),
                                 static_cast<std::size_t>(state.range(3)));
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
// {rows, trees, columns, two-valued columns}; the last case is the
// hardware-scaling fit of a needle analysis: both GPUs' rows, 40
// predictors of which 8 are machine characteristics.
BENCHMARK(BM_ForestFit)
    ->Args({50, 100, 30, 0})
    ->Args({100, 100, 30, 0})
    ->Args({100, 500, 30, 0})
    ->Args({400, 500, 30, 0})
    ->Args({43, 500, 40, 8})
    ->UseRealTime()
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
// Grid points run on the shared pool: wall time.
BENCHMARK(BM_PartialDependence)->UseRealTime()->Unit(benchmark::kMillisecond);

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

/// The counter chain's shape: one input, log2(size + 1), over log2-spaced
/// sizes from 64 to 8192 (19 of them, as in a needle sweep, or 25). With
/// `fold` set, one 5-fold CV training fold of the 19 (15 rows). The
/// response is either a saturating ratio counter (occupancy- or hit-rate-
/// like, modelled as is) or a power-law count with a knee at 1024, in the
/// log2 space the chain models such wide-range counters in.
Problem make_counter_problem(std::size_t sizes, bool fold, bool power_law) {
  Rng rng(4321);
  Problem prob{linalg::Matrix(fold ? sizes - (sizes + 4) / 5 : sizes, 1),
               {}, {"size"}};
  std::size_t row = 0;
  for (std::size_t k = 0; k < sizes; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(sizes - 1);
    const double size = 16.0 * std::round(std::exp2(6.0 + 7.0 * t) / 16.0);
    const double noise = rng.normal(0.0, 0.02);
    if (fold && k % 5 == 0) continue;
    prob.x(row++, 0) = std::log2(size + 1.0);
    prob.y.push_back(
        power_law ? std::log2(3.0 * std::pow(size, size < 1024 ? 1.5 : 2.2) *
                              (1.0 + noise))
                  : 0.9 * size / (size + 512.0) +
                        0.1 * std::sin(std::log2(size)) + noise);
  }
  return prob;
}

void BM_MarsCounterFit(benchmark::State& state) {
  const auto prob =
      make_counter_problem(static_cast<std::size_t>(state.range(0)),
                           state.range(1) != 0, state.range(2) != 0);
  for (auto _ : state) {
    ml::Mars mars;
    mars.fit(prob.x, prob.y);
    benchmark::DoNotOptimize(mars.r_squared());
  }
}
// {sizes, 15-row fold, power law}: a needle sweep's 19 rows, one CV fold
// of them, and a power-law counter over 25 sizes.
BENCHMARK(BM_MarsCounterFit)
    ->Args({19, 0, 0})
    ->Args({19, 1, 0})
    ->Args({25, 0, 1})
    ->Unit(benchmark::kMicrosecond);

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
