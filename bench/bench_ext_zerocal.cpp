// Extension A12: zero-calibration hardware scaling.
//
// The paper's hardware-scaling recipe needs calibration runs on the
// target GPU. With four architectures in the registry we can go further:
// train the forest on sweeps from THREE GPUs (machine characteristics
// injected) and predict the fourth — k40 — from its Table 2 numbers
// alone, never running anything on it. This is the logical endpoint of
// §6.2's "inject machine characteristics" idea.
#include <cstdio>

#include "bench_util.hpp"
#include "core/model.hpp"
#include "ml/metrics.hpp"
#include "profiling/workloads.hpp"

int main() {
  using namespace bf;
  bench::print_header("Extension A12",
                      "zero-calibration prediction of an unseen GPU (MM)");

  const auto workload = profiling::matmul_workload();
  const auto sizes = profiling::log2_sizes(32, 1024, 18, 16);
  profiling::SweepOptions opt;
  opt.machine_characteristics = true;

  // Training GPUs: two Fermi + one Kepler. Target: the K40 (Kepler).
  ml::Dataset train;
  int seed = 400;
  for (const char* name : {"gtx580", "gtx480", "k20m"}) {
    const gpusim::Device device(gpusim::arch_by_name(name));
    opt.profiler.seed = seed++;
    auto sweep = profiling::sweep(workload, device, sizes, opt);
    // Restrict to counters available on every trained generation.
    sweep = sweep.drop_columns({"l1_shared_bank_conflict",
                                "shared_load_replay",
                                "shared_store_replay"});
    train = train.num_rows() == 0 ? sweep
                                  : ml::Dataset::concat(train, sweep);
  }

  const gpusim::Device target(gpusim::arch_by_name("k40"));
  opt.profiler.seed = seed;
  auto test = profiling::sweep(workload, target, sizes, opt);
  test = test.drop_columns({"shared_load_replay", "shared_store_replay"});

  core::ModelOptions mo;
  mo.exclude = bench::paper_excludes();
  mo.forest.n_trees = 400;
  mo.forest.min_node_size = 2;
  mo.test_fraction = 0.0;
  const auto model = core::BlackForestModel::fit(train, mo);

  const auto predicted = model.predict(test);
  const auto& measured = test.column(profiling::kTimeColumn);
  bench::print_prediction_series("K40 predictions with zero K40 runs",
                                 test.column(profiling::kSizeColumn),
                                 measured, predicted);
  std::printf("MSE %.4g, explained variance %.1f%%, median |err| %.1f%%\n",
              ml::mse(measured, predicted),
              100.0 * ml::explained_variance(measured, predicted),
              ml::median_abs_pct_error(measured, predicted));
  std::printf("\ncaveat: counters for the test rows are still measured on "
              "the K40 — the machine\ncharacteristics only have to carry "
              "the *time* mapping. Full zero-knowledge prediction\nwould "
              "also need counter models over (size, machine), which "
              "the paper never\nattempts (CounterModels models the size "
              "alone).\n");
  return 0;
}
