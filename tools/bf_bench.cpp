// bf_bench — single-thread prediction microbenchmark for the forest
// inference engines.
//
// Trains a paper-config forest (85 trees by default) on a profiled
// sweep, freezes it, then measures single-row and batched prediction
// throughput of the flat engine against a pointer-tree baseline that
// walks the training trees one after another:
//
//   bf_bench --workload reduce1 --trees 85 --out BENCH_predict.json
//
// Every engine's outputs are compared against the pointer baseline with
// exact equality before any timing is reported — a fast-but-wrong
// engine aborts the run. The report (BENCH_predict.json) carries
// rows/sec, p50/p99 per-prediction latency and the speedup vs the
// pointer baseline per engine, so every later PR has a measurable
// trajectory artifact (the serving counterpart is BENCH_serve.json).
// With --compare PREV it re-reads a previous report and warns — warns,
// never fails, machines differ — when any engine's rows/sec regressed
// by more than 20%, or when an engine is missing from it. With
// --min-speedup X the process exits non-zero unless the best flat
// engine reaches X× the pointer single-row baseline (the CI smoke gate
// uses a conservative value).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/csv.hpp"
#include "common/io.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "core/model.hpp"
#include "gpusim/arch.hpp"
#include "ml/flat_forest.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace {

using namespace bf;
using Clock = std::chrono::steady_clock;

void usage() {
  std::printf(
      "usage: bf_bench [options]\n"
      "  --workload NAME   profiled workload to train on (default reduce1)\n"
      "  --arch NAME       architecture profiled (default gtx580)\n"
      "  --trees N         forest size (default 85, the paper config)\n"
      "  --sizes N         training sweep grid points (default 192)\n"
      "  --passes N        profiling passes over the grid; each uses a\n"
      "                    fresh profiler seed (run-to-run noise) and the\n"
      "                    rows concatenate into the training set\n"
      "                    (default 4)\n"
      "  --min N           smallest training size (default 4096)\n"
      "  --max N           largest training size (default 16777216)\n"
      "  --train-csv FILE  train on a previously dumped sweep instead of\n"
      "                    profiling one (reproducible reruns)\n"
      "  --dump-csv FILE   dump the profiled training sweep to FILE\n"
      "  --rows N          probe rows per measured pass (default 4096)\n"
      "  --reps N          measured passes per engine (default 20)\n"
      "  --min-speedup X   fail unless best flat engine reaches X x the\n"
      "                    pointer single-row baseline (default 0 = off)\n"
      "  --out FILE        report path (default BENCH_predict.json)\n"
      "  --compare FILE    previous report; warn on >20%% rows/sec drops\n"
      "                    and on engines missing from it\n"
      "  --version         print the build identity and exit\n");
}

struct Args {
  std::string workload = "reduce1";
  std::string arch = "gtx580";
  std::size_t trees = 85;
  int sizes = 192;
  std::size_t passes = 4;
  double min_size = 4096;
  double max_size = 16777216;
  std::size_t rows = 4096;
  std::size_t reps = 20;
  double min_speedup = 0.0;
  std::string out_path = "BENCH_predict.json";
  std::string compare_path;
  std::string train_csv;
  std::string dump_csv;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      BF_CHECK_MSG(i + 1 < argc, "missing value after " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = next();
    } else if (a == "--arch") {
      args.arch = next();
    } else if (a == "--trees") {
      args.trees = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--sizes") {
      args.sizes = static_cast<int>(parse_int(next()));
    } else if (a == "--passes") {
      args.passes = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--min") {
      args.min_size = parse_double(next());
    } else if (a == "--max") {
      args.max_size = parse_double(next());
    } else if (a == "--rows") {
      args.rows = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--reps") {
      args.reps = static_cast<std::size_t>(parse_int(next()));
    } else if (a == "--min-speedup") {
      args.min_speedup = parse_double(next());
    } else if (a == "--train-csv") {
      args.train_csv = next();
    } else if (a == "--dump-csv") {
      args.dump_csv = next();
    } else if (a == "--out") {
      args.out_path = next();
    } else if (a == "--compare") {
      args.compare_path = next();
    } else if (a == "--version") {
      std::printf("%s\n", bf::version_string().c_str());
      std::exit(0);
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      usage();
      throw Error("unknown argument: " + a);
    }
  }
  BF_CHECK_MSG(args.trees >= 1 && args.rows >= 1 && args.reps >= 1 &&
                   args.passes >= 1,
               "--trees/--rows/--reps/--passes must be positive");
  return args;
}

/// One engine's measurement: total throughput plus the distribution of
/// per-prediction latencies (single-row engines sample every call;
/// batched engines sample per pass divided by the pass's row count).
struct EngineResult {
  std::string name;
  double rows_per_sec = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
  double speedup = 0.0;  ///< vs the pointer single-row baseline
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t i =
      static_cast<std::size_t>(p * static_cast<double>(sorted.size()));
  if (i >= sorted.size()) i = sorted.size() - 1;
  return sorted[i];
}

/// Measure `rows_per_pass * reps` predictions through `pass`, which
/// appends one latency sample (ns per prediction) per invocation batch.
template <typename Pass>
EngineResult measure(const std::string& name, std::size_t rows_per_pass,
                     std::size_t reps, Pass&& pass) {
  EngineResult r;
  r.name = name;
  std::vector<double> samples_ns;
  pass(samples_ns);  // warm-up: page in nodes, size scratch buffers
  samples_ns.clear();
  const auto t0 = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) pass(samples_ns);
  const double total_s = std::chrono::duration<double>(Clock::now() - t0)
                             .count();
  const double total_rows =
      static_cast<double>(rows_per_pass) * static_cast<double>(reps);
  r.rows_per_sec = total_s > 0.0 ? total_rows / total_s : 0.0;
  std::sort(samples_ns.begin(), samples_ns.end());
  r.p50_ns = percentile(samples_ns, 0.50);
  r.p99_ns = percentile(samples_ns, 0.99);
  double sum = 0.0;
  for (const double v : samples_ns) sum += v;
  r.mean_ns = samples_ns.empty()
                  ? 0.0
                  : sum / static_cast<double>(samples_ns.size());
  return r;
}

void check_identical(const std::vector<double>& want,
                     const std::vector<double>& got,
                     const std::string& engine) {
  BF_CHECK_MSG(want.size() == got.size(), engine + ": output size mismatch");
  for (std::size_t i = 0; i < want.size(); ++i) {
    // Exact equality, not a tolerance: the flat engine is a re-layout of
    // the same arithmetic, so any difference is a bug.
    BF_CHECK_MSG(want[i] == got[i],
                 engine + ": prediction differs from pointer baseline at row " +
                     std::to_string(i));
  }
}

/// Pull "rows_per_sec" for `engine` out of a previous report. Returns 0
/// when the engine is absent.
double previous_rows_per_sec(const std::string& report,
                             const std::string& engine) {
  const std::string tag = "\"name\":\"" + engine + "\"";
  const auto at = report.find(tag);
  if (at == std::string::npos) return 0.0;
  const std::string key = "\"rows_per_sec\":";
  const auto kat = report.find(key, at);
  if (kat == std::string::npos) return 0.0;
  const std::size_t from = kat + key.size();
  const std::size_t end = report.find_first_not_of("0123456789.eE+-", from);
  return parse_double(report.substr(from, end - from));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);

    // ---- train the paper-config forest on a real profiled sweep ----
    const gpusim::Device device(gpusim::arch_by_name(args.arch));
    const auto sizes = profiling::log2_sizes(args.min_size, args.max_size,
                                             args.sizes, 256);
    const auto workload = profiling::workload_by_name(args.workload);
    // Each pass re-profiles the whole grid under a fresh profiler seed,
    // i.e. fresh run-to-run noise — the multi-run collection a real
    // profiling campaign produces. The concatenated rows grow the forest
    // to its deployed size (deep unpruned trees), which is the regime
    // the inference engines are benchmarked in.
    ml::Dataset ds;
    if (!args.train_csv.empty()) {
      ds = ml::Dataset::from_csv(CsvTable::load(args.train_csv));
    } else {
      for (std::size_t pass = 0; pass < args.passes; ++pass) {
        profiling::SweepOptions so;
        so.profiler.seed = 1234 + 7919 * pass;
        const ml::Dataset part = profiling::sweep(workload, device, sizes, so);
        if (ds.empty()) {
          ds = part;
          continue;
        }
        BF_CHECK_MSG(part.column_names() == ds.column_names(),
                     "sweep passes disagree on the counter schema");
        std::vector<double> row(part.num_cols());
        for (std::size_t r = 0; r < part.num_rows(); ++r) {
          for (std::size_t c = 0; c < part.num_cols(); ++c) {
            row[c] = part.column(c)[r];
          }
          ds.add_row(row);
        }
      }
      if (!args.dump_csv.empty()) ds.to_csv().save(args.dump_csv);
    }
    core::ModelOptions opt;
    opt.forest.n_trees = args.trees;
    opt.forest.importance = false;  // training cost, not inference cost
    const auto model = core::BlackForestModel::fit(ds, opt);
    const ml::RandomForest& forest = model.forest();
    const ml::FlatForest& flat = model.flat();

    // ---- probe matrix: training predictor rows cycled to --rows ----
    const ml::Dataset predictors_ds =
        ds.select_columns(model.predictors());
    const std::size_t p = predictors_ds.num_cols();
    const std::size_t src_rows = predictors_ds.num_rows();
    linalg::Matrix probes(args.rows, p);
    for (std::size_t i = 0; i < args.rows; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        probes(i, j) = predictors_ds.column(j)[i % src_rows];
      }
    }
    std::printf(
        "bf_bench: %zu trees, %zu flat nodes (%s sweep: %zu rows, %zu "
        "predictors), %zu probe rows x %zu reps\n",
        forest.n_trees(), flat.node_count(), args.workload.c_str(),
        src_rows, p, args.rows, args.reps);

    // The baseline repairs non-finite features with the training medians
    // and walks the training trees one after another, summing their
    // leaves in tree order: the arithmetic the flat engine must
    // reproduce, at the per-tree pointer-chasing cost it removes.
    const std::vector<double>& medians = forest.feature_medians();
    std::vector<double> repaired(medians.size());
    const auto pointer_row = [&](const double* row) {
      for (std::size_t f = 0; f < medians.size(); ++f) {
        if (std::isfinite(row[f])) continue;
        if (row != repaired.data()) {
          std::copy(row, row + medians.size(), repaired.begin());
          row = repaired.data();
        }
        repaired[f] = medians[f];
      }
      double acc = 0.0;
      for (std::size_t t = 0; t < forest.n_trees(); ++t) {
        acc += forest.tree(t).predict_row(row);  // bf-lint: allow(guarded-predict)
      }
      return acc / static_cast<double>(forest.n_trees());
    };
    ml::ForestScratch scratch;
    const auto flat_row = [&](const double* row) {
      return flat.predict_row(row, scratch);  // bf-lint: allow(guarded-predict)
    };

    // ---- bit-identity gate before any timing ----
    std::vector<double> want(args.rows);
    std::vector<double> got(args.rows);
    for (std::size_t i = 0; i < args.rows; ++i) {
      want[i] = pointer_row(probes.row_ptr(i));
      got[i] = flat_row(probes.row_ptr(i));
    }
    check_identical(want, got, "flat_single");
    check_identical(want, flat.predict(probes), "flat_batch");
    std::printf("bf_bench: bit-identity check passed (%zu rows, 2 engines)\n",
                args.rows);

    // ---- measurements ----
    std::vector<EngineResult> results;
    volatile double sink = 0.0;  // keep the optimizer honest
    const auto single_pass = [&](const auto& predict_one) {
      return [&](std::vector<double>& ns) {
        for (std::size_t i = 0; i < args.rows; ++i) {
          const auto t0 = Clock::now();
          sink = predict_one(probes.row_ptr(i));
          ns.push_back(
              std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count());
        }
      };
    };
    results.push_back(measure("pointer_single", args.rows, args.reps,
                              single_pass(pointer_row)));
    const double base = results[0].rows_per_sec;
    results.push_back(measure("flat_single", args.rows, args.reps,
                              single_pass(flat_row)));
    results.push_back(measure(
        "flat_batch", args.rows, args.reps, [&](std::vector<double>& ns) {
          const auto t0 = Clock::now();
          flat.predict(probes, got, scratch);
          ns.push_back(
              std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count() /
              static_cast<double>(args.rows));
          sink = got[0];
        }));
    (void)sink;

    double best_flat = 0.0;
    std::string best_name;
    for (auto& r : results) {
      r.speedup = base > 0.0 ? r.rows_per_sec / base : 0.0;
      if (r.name != "pointer_single" && r.rows_per_sec > best_flat) {
        best_flat = r.rows_per_sec;
        best_name = r.name;
      }
      std::printf(
          "  %-16s %12.0f rows/s  p50 %8.0f ns  p99 %8.0f ns  %5.2fx\n",
          r.name.c_str(), r.rows_per_sec, r.p50_ns, r.p99_ns, r.speedup);
    }
    const double best_speedup = base > 0.0 ? best_flat / base : 0.0;
    std::printf("bf_bench: best flat engine %s at %.2fx the pointer baseline\n",
                best_name.c_str(), best_speedup);

    // ---- report ----
    std::ostringstream os;
    os.precision(10);
    os << "{\"bench\":\"predict\",\"schema_version\":1,\"workload\":\""
       << args.workload << "\",\"arch\":\"" << args.arch
       << "\",\"trees\":" << forest.n_trees()
       << ",\"flat_nodes\":" << flat.node_count()
       << ",\"predictors\":" << p << ",\"train_rows\":" << src_rows
       << ",\"probe_rows\":" << args.rows << ",\"reps\":" << args.reps
       << ",\"bit_identical\":true,\"best_engine\":\"" << best_name
       << "\",\"best_speedup\":" << best_speedup << ",\"engines\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      os << (i ? "," : "") << "{\"name\":\"" << r.name
         << "\",\"rows_per_sec\":" << r.rows_per_sec
         << ",\"p50_ns\":" << r.p50_ns << ",\"p99_ns\":" << r.p99_ns
         << ",\"mean_ns\":" << r.mean_ns << ",\"speedup\":" << r.speedup
         << "}";
    }
    os << "]}\n";
    bf::atomic_write_file(args.out_path, os.str());
    std::printf("bf_bench: wrote %s\n", args.out_path.c_str());

    // ---- advisory comparison against a previous report ----
    if (!args.compare_path.empty()) {
      const auto prev = bf::read_file(args.compare_path);
      if (!prev) {
        std::printf("bf_bench: compare: %s not readable, skipping\n",
                    args.compare_path.c_str());
      } else {
        for (const auto& r : results) {
          const double before = previous_rows_per_sec(*prev, r.name);
          if (before <= 0.0) {
            std::printf(
                "bf_bench: WARNING: engine %s is missing from %s, so it "
                "was not compared\n",
                r.name.c_str(), args.compare_path.c_str());
            continue;
          }
          const double ratio = r.rows_per_sec / before;
          if (ratio < 0.8) {
            std::printf(
                "bf_bench: WARNING: %s rows/sec regressed %.0f%% vs %s "
                "(%.0f -> %.0f); machines differ, so this is advisory\n",
                r.name.c_str(), 100.0 * (1.0 - ratio),
                args.compare_path.c_str(), before, r.rows_per_sec);
          }
        }
      }
    }

    if (args.min_speedup > 0.0 && best_speedup < args.min_speedup) {
      std::fprintf(stderr,
                   "bf_bench: best flat speedup %.2fx below required %.2fx\n",
                   best_speedup, args.min_speedup);
      return 1;
    }
    return 0;
  } catch (const bf::Error& e) {
    std::fprintf(stderr, "bf_bench: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bf_bench: unexpected error: %s\n", e.what());
    return 1;
  }
}
