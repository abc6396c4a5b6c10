// bf_analyze — the BlackForest command-line front end.
//
// Runs the five-stage pipeline on a named workload/architecture and
// prints the bottleneck report; optionally predicts unseen problem sizes
// through the problem-scaling path, and caches sweeps in a repository.
//
//   bf_analyze --workload reduce1 --arch gtx580
//   bf_analyze --workload matrixMul --min 32 --max 2048 --runs 24
//              --predict 96 --predict 384 --repo /tmp/bf_runs
//   bf_analyze --workload needle --arch k20m --check
//   bf_analyze --list
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "guard/guard.hpp"
#include "power/analysis.hpp"
#include "power/predictor.hpp"
#include "profiling/repository.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"
#include "report/ascii.hpp"
#include "report/guard_render.hpp"
#include "report/power_render.hpp"
#include "serve/artifact.hpp"

namespace {

using namespace bf;

void usage() {
  std::printf(
      "usage: bf_analyze [options]\n"
      "  --workload NAME   workload to analyse (default reduce1)\n"
      "  --arch NAME       gtx580 | gtx480 | k20m | k40 (default gtx580)\n"
      "  --min N --max N   problem-size range (defaults per workload)\n"
      "  --runs N          number of profiled runs (default 40)\n"
      "  --predict N       predict an unseen size (repeatable)\n"
      "  --repo DIR        cache sweeps in DIR\n"
      "  --trees N         forest size (default 500)\n"
      "  --replicates K    profiled runs aggregated per size (default 1)\n"
      "  --retries N       attempts per run before it fails (default 3)\n"
      "  --min-success F   fraction of sizes that must collect before\n"
      "                    the sweep aborts (default 0.5)\n"
      "  --faults SPEC     arm fault injection: <point>:<rate>[:<count>]\n"
      "                    comma-list (also via BF_FAULTS in the env)\n"
      "  --fault-seed N    deterministic fault stream seed\n"
      "  --guard-margin F  extrapolation margin of the prediction guard,\n"
      "                    as a fraction of the training span (default 0.1)\n"
      "  --strict-guard    exit non-zero when any prediction grades C\n"
      "  --guard-json PATH write the guard report as JSON\n"
      "  --power           model board power as a second response: ranks\n"
      "                    energy bottlenecks next to time bottlenecks,\n"
      "                    adds guarded power/energy predictions, and\n"
      "                    --export-model embeds the power predictor\n"
      "  --no-power        disable power modelling (the default)\n"
      "  --power-json PATH write the power predictions as JSON\n"
      "  --check           validate counter invariants instead of\n"
      "                    modelling: sweeps the workload (or, with\n"
      "                    --repo, every stored sweep) and reports rule\n"
      "                    violations; exits non-zero on any\n"
      "  --export-model P  train the problem-scaling predictor and write\n"
      "                    it as a .bfmodel bundle to P (serve it later\n"
      "                    with bf_serve or --from-model)\n"
      "  --probes N        golden canary probes recorded into the bundle\n"
      "                    for hot-reload validation (default 5; 0 omits\n"
      "                    the record)\n"
      "  --from-model P    skip sweeping/training: load the bundle at P\n"
      "                    and answer --predict queries from it\n"
      "  --list            list workloads and architectures\n"
      "  --version         print the build identity and exit\n");
}

struct Args {
  std::string workload = "reduce1";
  std::string arch = "gtx580";
  double min_size = 0;
  double max_size = 0;
  int runs = 40;
  int trees = 500;
  int replicates = 1;
  int retries = 3;
  double min_success = 0.5;
  std::string faults;
  std::uint64_t fault_seed = bf::fault::kDefaultSeed;
  std::vector<double> predict;
  std::string repo;
  double guard_margin = 0.1;
  bool strict_guard = false;
  std::string guard_json;
  bool power = false;
  std::string power_json;
  std::string export_model;
  int probes = 5;
  std::string from_model;
  bool list = false;
  bool check = false;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      BF_CHECK_MSG(i + 1 < argc, "missing value for " << a);
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = next();
    } else if (a == "--arch") {
      args.arch = next();
    } else if (a == "--min") {
      args.min_size = parse_double(next());
    } else if (a == "--max") {
      args.max_size = parse_double(next());
    } else if (a == "--runs") {
      args.runs = static_cast<int>(parse_int(next()));
    } else if (a == "--trees") {
      args.trees = static_cast<int>(parse_int(next()));
    } else if (a == "--replicates") {
      args.replicates = static_cast<int>(parse_int(next()));
    } else if (a == "--retries") {
      args.retries = static_cast<int>(parse_int(next()));
    } else if (a == "--min-success") {
      args.min_success = parse_double(next());
    } else if (a == "--faults") {
      args.faults = next();
    } else if (a == "--fault-seed") {
      args.fault_seed = static_cast<std::uint64_t>(parse_int(next()));
    } else if (a == "--predict") {
      const double size = parse_double(next());
      BF_CHECK_MSG(std::isfinite(size) && size > 0.0,
                   "--predict needs a finite positive size, got " << size);
      args.predict.push_back(size);
    } else if (a == "--guard-margin") {
      args.guard_margin = parse_double(next());
    } else if (a == "--strict-guard") {
      args.strict_guard = true;
    } else if (a == "--guard-json") {
      args.guard_json = next();
    } else if (a == "--power") {
      args.power = true;
    } else if (a == "--no-power") {
      args.power = false;
    } else if (a == "--power-json") {
      args.power_json = next();
    } else if (a == "--repo") {
      args.repo = next();
    } else if (a == "--export-model") {
      args.export_model = next();
    } else if (a == "--probes") {
      args.probes = static_cast<int>(parse_int(next()));
      BF_CHECK_MSG(args.probes >= 0, "--probes must be >= 0");
    } else if (a == "--from-model") {
      args.from_model = next();
    } else if (a == "--list") {
      args.list = true;
    } else if (a == "--check") {
      args.check = true;
    } else if (a == "--version") {
      std::printf("%s\n", bf::version_string().c_str());
      std::exit(0);
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      BF_FAIL("unknown option: " << a);
    }
  }
  return args;
}

/// Sensible default sweep ranges per workload family.
void default_range(const std::string& workload, double& lo, double& hi,
                   std::int64_t& multiple) {
  if (workload.rfind("reduce", 0) == 0 || workload == "vecAdd") {
    lo = 1 << 14;
    hi = 1 << 24;
    multiple = 256;
  } else if (workload == "needle") {
    lo = 64;
    hi = 4096;
    multiple = 64;
  } else {  // matrix-shaped workloads
    lo = 32;
    hi = 2048;
    multiple = 32;
  }
}

/// --check mode: validate counter data against the bf::check invariant
/// table instead of fitting models. Returns the number of violations.
std::size_t run_check_mode(const Args& args, double lo, double hi,
                           std::int64_t multiple) {
  std::printf("checking counter invariants (%zu rules)\n\n",
              check::rule_table().size());

  std::vector<check::Violation> violations;
  if (!args.repo.empty()) {
    // Validate every sweep stored in the repository.
    profiling::RepositoryOptions ropts;
    ropts.validate_on_load = false;  // report instead of throwing
    const profiling::RunRepository repo(args.repo, ropts);
    for (const auto& [workload, arch] : repo.keys()) {
      const gpusim::ArchSpec* spec = nullptr;
      try {
        spec = &gpusim::arch_by_name(arch);
      } catch (const bf::Error&) {
        std::printf("  %s on %s: unknown architecture, skipped\n",
                    workload.c_str(), arch.c_str());
        continue;
      }
      const auto ds = repo.load(workload, arch);
      const auto found = check::validate_dataset(*ds, *spec);
      std::printf("  %s on %s: %zu rows, %zu violation(s)\n",
                  workload.c_str(), arch.c_str(), ds->num_rows(),
                  found.size());
      violations.insert(violations.end(), found.begin(), found.end());
    }
  } else {
    // Sweep the requested workload with validation live at every layer:
    // the raw and derived counters of each profiled run, then the final
    // dataset.
    const profiling::Workload workload =
        profiling::workload_by_name(args.workload);
    const gpusim::Device device(gpusim::arch_by_name(args.arch));
    profiling::SweepOptions sopts;
    sopts.profiler.validate = true;
    // A violating run fails its size at once: a retry could hide a
    // transient violation, and a deterministic one recurs anyway.
    sopts.max_attempts = 1;
    const ml::Dataset ds = profiling::sweep(
        workload, device,
        profiling::log2_sizes(lo, hi, args.runs, multiple), sopts);
    violations = check::validate_dataset(ds, device.arch());
    std::printf("  %s on %s: %zu rows, %zu violation(s)\n",
                args.workload.c_str(), args.arch.c_str(), ds.num_rows(),
                violations.size());
  }

  if (violations.empty()) {
    std::printf("\nall counter invariants hold\n");
  } else {
    std::printf("\n%s", check::to_string(violations).c_str());
  }
  return violations.size();
}

/// Answer every --predict size through the guarded query: time rows,
/// power rows when a power predictor is present, the guard report and
/// the requested JSON exports. Returns the exit code (2 when
/// --strict-guard trips).
int print_predictions(const Args& args,
                      const core::ProblemScalingPredictor& predictor,
                      const bf::power::PowerPredictor* power) {
  std::printf("problem-scaling predictions:\n");
  guard::GuardReport report = predictor.guard_report();
  core::PredictionSeries series;
  for (const double s : args.predict) {
    const auto rec = predictor.predict_guarded(s);
    std::printf("  size %-10g -> %.4f ms  [%.4f, %.4f]  grade %c%s\n", s,
                rec.value, rec.lo, rec.hi, guard::grade_letter(rec.grade),
                rec.extrapolated ? "  (extrapolated)" : "");
    report.predictions.push_back(rec);
    series.sizes.push_back(s);
    series.predicted_ms.push_back(rec.value);
  }
  if (power != nullptr) {
    bf::power::annotate_series(series, *power);
    std::printf("\npower predictions (board watts, energy):\n%s",
                report::power_text(series).c_str());
    if (!args.power_json.empty()) {
      report::export_power_json(args.power_json, series);
      std::printf("power report written to %s\n", args.power_json.c_str());
    }
  }
  std::printf("\n%s", report::guard_text(report).c_str());
  if (!args.guard_json.empty()) {
    report::export_guard_json(args.guard_json, report);
    std::printf("guard report written to %s\n", args.guard_json.c_str());
  }
  if (args.strict_guard && report.count(guard::Grade::kC) > 0) {
    std::fprintf(stderr,
                 "bf_analyze: --strict-guard: %zu prediction(s) graded C\n",
                 report.count(guard::Grade::kC));
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    // Arm fault injection early so a malformed spec fails with a clear
    // diagnostic instead of surfacing from deep inside the sweep.
    if (!args.faults.empty()) {
      bf::fault::reseed(args.fault_seed);
      bf::fault::configure(args.faults);
    } else {
      bf::fault::configure_from_env();
    }
    if (args.list) {
      std::printf("workloads:\n");
      for (const auto& w : profiling::all_workloads()) {
        std::printf("  %s\n", w.name.c_str());
      }
      std::printf("architectures:\n");
      for (const auto& a : gpusim::arch_registry()) {
        std::printf("  %-8s %s, %d SMs @ %.2f GHz, %.0f GB/s\n",
                    a.name.c_str(),
                    a.generation == gpusim::Generation::kFermi ? "Fermi"
                                                               : "Kepler",
                    a.sm_count, a.clock_ghz, a.mem_bandwidth_gbs);
      }
      return 0;
    }

    if (!args.from_model.empty()) {
      // Serve predictions straight from a trained bundle: no sweep, no
      // forest training — the train-once / predict-many path.
      const serve::ModelBundle bundle = serve::load_bundle(args.from_model);
      std::printf("model %s (workload %s, arch %s, %zu training rows)\n",
                  bundle.meta.name.c_str(), bundle.meta.workload.c_str(),
                  bundle.meta.arch.c_str(), bundle.meta.trained_rows);
      std::printf("trained by %s\n\n", bundle.meta.provenance.c_str());
      BF_CHECK_MSG(!args.predict.empty(),
                   "--from-model needs at least one --predict size");
      return print_predictions(
          args, bundle.predictor,
          bundle.power.has_value() ? &*bundle.power : nullptr);
    }

    // The workload's size-granularity constraint applies regardless of
    // whether the range itself was overridden on the command line.
    double lo = 0;
    double hi = 0;
    std::int64_t multiple = 1;
    default_range(args.workload, lo, hi, multiple);
    if (args.min_size > 0) lo = args.min_size;
    if (args.max_size > 0) hi = args.max_size;

    if (args.check) {
      return run_check_mode(args, lo, hi, multiple) == 0 ? 0 : 1;
    }

    core::PipelineConfig config;
    config.workload = profiling::workload_by_name(args.workload);
    config.arch = gpusim::arch_by_name(args.arch);
    config.sizes = profiling::log2_sizes(lo, hi, args.runs, multiple);
    config.model.forest.n_trees = static_cast<std::size_t>(args.trees);
    config.sweep.replicates = args.replicates;
    config.sweep.max_attempts = args.retries;
    config.sweep.min_success_fraction = args.min_success;
    if (!args.repo.empty()) config.repository_root = args.repo;

    std::printf("analysing %s on %s (%zu runs, sizes %g..%g)\n\n",
                args.workload.c_str(), args.arch.c_str(),
                config.sizes.size(), lo, hi);
    auto outcome = core::run_analysis(config);

    if (!outcome.warnings.empty()) {
      std::printf("%s\n",
                  report::warn_list("degradation warnings",
                                    outcome.warnings)
                      .c_str());
    }
    if (outcome.sweep_report.degraded()) {
      std::printf("%s%s\n", outcome.sweep_report.to_text().c_str(),
                  bf::fault::summary().c_str());
    }

    std::vector<std::pair<std::string, double>> bars;
    const auto imp = outcome.model.importance();
    for (std::size_t i = 0; i < imp.size() && i < 10; ++i) {
      bars.emplace_back(imp[i].name, imp[i].pct_inc_mse);
    }
    std::printf("%s\n",
                report::bar_chart("variable importance (%IncMSE)", bars)
                    .c_str());
    std::printf("%s\n", core::to_text(outcome.report).c_str());

    if (args.power) {
      // Second response: rank the counters driving board power so energy
      // bottlenecks read next to the time bottlenecks above.
      bf::power::EnergyAnalysisOptions eopts;
      eopts.model.forest.n_trees = static_cast<std::size_t>(args.trees);
      outcome.energy_report = bf::power::analyze_energy_bottlenecks(
          outcome.data, args.workload, args.arch, eopts);
      outcome.power_enabled = true;
      std::printf("energy bottlenecks (response %s):\n%s\n",
                  profiling::kPowerColumn,
                  core::to_text(outcome.energy_report).c_str());
    }

    if (!args.predict.empty() || !args.export_model.empty()) {
      core::ProblemScalingOptions pso;
      pso.model.forest.n_trees = static_cast<std::size_t>(args.trees);
      pso.guard.margin = args.guard_margin;
      pso.arch = config.arch;
      const auto predictor =
          core::ProblemScalingPredictor::build(outcome.data, pso);
      std::optional<bf::power::PowerPredictor> ppred;
      if (args.power) {
        bf::power::PowerPredictorOptions popts;
        popts.scaling.model.forest.n_trees =
            static_cast<std::size_t>(args.trees);
        popts.scaling.guard.margin = args.guard_margin;
        popts.scaling.arch = config.arch;
        ppred = bf::power::PowerPredictor::build(outcome.data, popts);
      }
      if (!args.export_model.empty()) {
        serve::export_model(args.export_model, args.workload, args.workload,
                            args.arch, outcome.data.num_rows(), predictor,
                            static_cast<std::size_t>(args.probes),
                            ppred.has_value() ? &*ppred : nullptr);
        std::printf("model bundle written to %s%s\n",
                    args.export_model.c_str(),
                    ppred.has_value() ? " (with power record)" : "");
        if (args.predict.empty()) return 0;
      }
      return print_predictions(args, predictor,
                               ppred.has_value() ? &*ppred : nullptr);
    }
    return 0;
  } catch (const bf::Error& e) {
    std::fprintf(stderr, "bf_analyze: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Nothing below main should leak a non-bf exception, but a CLI tool
    // must still exit with a diagnostic rather than std::terminate.
    std::fprintf(stderr, "bf_analyze: unexpected error: %s\n", e.what());
    return 1;
  }
}
