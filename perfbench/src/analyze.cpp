// The analyze_* workloads: one full BlackForest analysis per iteration.
//
//   analyze_mm_fresh  — matrixMul on gtx580 from a fresh sweep: the
//                       simulator dominates.
//   analyze_nw_cached — needle on gtx580 (+ k20m for hardware scaling)
//                       from a run repository filled during set-up: no
//                       simulation, modelling dominates.
//
// Untraced runs call core::run_analysis; traced runs call the stages it
// is made of (sweep or repository load, fit, PCA, bottlenecks) one by
// one inside spans. Both must produce the same prediction digest.
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "power/predictor.hpp"
#include "profiling/profiler.hpp"
#include "profiling/repository.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"
#include "sim_probe.hpp"

namespace perfbench {
namespace {

using namespace bf;

constexpr int kSetups = 3;
// Training inputs are fixed per workload, so the quality metrics and the
// prediction digests do not depend on the workload seed; the seed drives
// the stream of prediction queries.
constexpr std::uint64_t kSourceProfilerSeed = 11;
constexpr std::uint64_t kTargetProfilerSeed = 22;

struct Spec {
  profiling::Workload workload;
  gpusim::ArchSpec source;
  std::optional<gpusim::ArchSpec> target;  ///< hardware-scaling target
  std::vector<double> train;
  std::vector<double> heldout;  ///< in-hull sizes never trained on
  std::vector<double> extrap;   ///< sizes beyond the training range
  std::vector<double> warmup;   ///< reduced sweep of the warm-up analysis
  bool cached = false;          ///< sweeps come from a RunRepository
  bool power = false;
  std::size_t trees = 500;
  /// Steady analyses measured at least, even past --seconds: medians of
  /// multi-threaded stages need many samples on a noisy shared host.
  std::size_t min_analyses = 2;
};

Spec make_spec(const std::string& name) {
  Spec s;
  if (name == "analyze_mm_fresh") {
    s.workload = profiling::matmul_workload(16);
    s.source = gpusim::gtx580();
    s.train = profiling::log2_sizes(32, 1024, 17, 16);
    s.warmup = profiling::log2_sizes(32, 128, 6, 16);
  } else {
    s.workload = profiling::nw_workload();
    s.source = gpusim::gtx580();
    s.target = gpusim::kepler_k20m();
    s.train = profiling::log2_sizes(64, 8192, 25, 16);
    s.cached = true;
    s.power = true;
    s.min_analyses = 25;
  }
  s.heldout = heldout_sizes(s.train, 16);
  if (!s.cached) {
    // Every other midpoint: each reference point costs a full simulation.
    std::vector<double> half;
    for (std::size_t i = 0; i < s.heldout.size(); i += 2) {
      half.push_back(s.heldout[i]);
    }
    s.heldout = std::move(half);
  }
  const double top = s.train.back();
  for (const double f : {1.5, 2.0, 4.0}) {
    s.extrap.push_back(std::round(top * f / 16.0) * 16.0);
  }
  return s;
}

/// Everything one analysis produces that the benchmark checks or scores.
struct Product {
  core::AnalysisOutcome outcome;
  std::optional<core::ProblemScalingPredictor> psp;
  std::optional<bf::power::PowerPredictor> power;
  std::optional<core::HardwareScalingResult> hw;
  std::vector<guard::PredictionGuardRecord> recs;  ///< heldout, then extrap
  std::vector<bf::power::PowerPrediction> power_recs;

  std::uint64_t digest() const {
    Fnv h;
    h.f64(outcome.model.pct_var_explained());
    for (const auto& r : recs) {
      h.f64(r.size);
      h.f64(r.value);
      h.f64(r.lo);
      h.f64(r.hi);
      h.u64(static_cast<std::uint64_t>(r.grade));
      h.u64(r.extrapolated ? 1 : 0);
      h.u64(r.clamps.size());
    }
    for (const auto& p : power_recs) {
      h.f64(p.power_w);
      h.f64(p.energy_j);
      h.u64(static_cast<std::uint64_t>(p.energy_grade));
    }
    if (hw) {
      for (const double v : hw->series.predicted_ms) h.f64(v);
    }
    return h.value();
  }
};

class Analyzer {
 public:
  Analyzer(const Spec& spec, Tracer& tracer) : spec_(spec), tracer_(tracer) {
    wrapped_ = probe_.wrap(spec_.workload);
  }

  SimProbe& probe() { return probe_; }

  core::PipelineConfig config(const std::vector<double>& sizes,
                              std::size_t trees) const {
    core::PipelineConfig cfg;
    cfg.workload = wrapped_;
    cfg.arch = spec_.source;
    cfg.sizes = sizes;
    cfg.sweep.profiler.seed = kSourceProfilerSeed;
    cfg.sweep.machine_characteristics = spec_.cached;
    cfg.model.forest.n_trees = trees;
    if (spec_.cached) cfg.repository_root = repo_dir_;
    return cfg;
  }

  /// Set-up of the cached workload: collect both sweeps into a fresh
  /// repository. Returns the simulated-counter digest of the sweeps.
  std::uint64_t fill_repository(const std::string& dir) {
    repo_dir_ = dir;
    std::filesystem::remove_all(dir);
    const profiling::RunRepository repo(dir);
    probe_.reset_digest();
    for (const auto* arch : {&spec_.source, &*spec_.target}) {
      profiling::SweepOptions so;
      so.machine_characteristics = true;
      so.profiler.seed =
          arch == &spec_.source ? kSourceProfilerSeed : kTargetProfilerSeed;
      const gpusim::Device device(*arch);
      repo.save(wrapped_.name, arch->name,
                profiling::sweep(wrapped_, device, spec_.train, so));
    }
    return probe_.digest();
  }

  Product analyze(const core::PipelineConfig& cfg, std::size_t trees,
                  bool traced, std::uint64_t trace_id) {
    // Untraced iterations of a traced run record nothing, so they serve
    // as the baseline of the tracing overhead.
    Tracer& tr = traced ? tracer_ : off_;
    probe_.set_tracer(traced ? &tracer_ : nullptr, trace_id);
    ScopedSpan root(tr, "analysis", trace_id);
    Product p;
    if (!traced) {
      p.outcome = core::run_analysis(cfg);
    } else {
      run_stages(cfg, p.outcome, trace_id);  // traced only
    }
    core::ProblemScalingOptions pso;
    pso.model.forest.n_trees = trees;
    pso.arch = cfg.arch;
    {
      ScopedSpan s(tr, "core.psp_build", trace_id);
      p.psp = core::ProblemScalingPredictor::build(p.outcome.data, pso);
    }
    if (spec_.power) {
      ScopedSpan s(tr, "power.build", trace_id);
      bf::power::PowerPredictorOptions popts;
      popts.scaling.model.forest.n_trees = trees;
      popts.scaling.arch = cfg.arch;
      p.power = bf::power::PowerPredictor::build(p.outcome.data, popts);
    }
    if (spec_.target && cfg.repository_root) {
      std::optional<ml::Dataset> target;
      {
        ScopedSpan s(tr, "profiling.repo_load", trace_id);
        target = profiling::RunRepository(*cfg.repository_root)
                     .load(wrapped_.name, spec_.target->name);
      }
      BF_CHECK_MSG(target.has_value(), "target sweep missing from repository");
      ScopedSpan s(tr, "core.hw_predict", trace_id);
      core::HardwareScalingOptions hopts;
      hopts.model.forest.n_trees = trees;
      p.hw = core::HardwareScalingPredictor::predict(p.outcome.data, *target,
                                                     hopts);
    }
    {
      ScopedSpan s(tr, "core.predict", trace_id);
      for (const auto* list : {&spec_.heldout, &spec_.extrap}) {
        for (const double size : *list) {
          p.recs.push_back(p.psp->predict_guarded(size));
          if (p.power) {
            p.power_recs.push_back(p.power->predict_guarded(size, p.recs.back()));
          }
        }
      }
    }
    return p;
  }

 private:
  /// core::run_analysis, stage by stage, each inside its own span.
  void run_stages(const core::PipelineConfig& cfg, core::AnalysisOutcome& out,
                  std::uint64_t trace_id) {
    if (cfg.repository_root) {
      ScopedSpan s(tracer_, "profiling.repo_load", trace_id);
      auto loaded = profiling::RunRepository(*cfg.repository_root)
                        .load(cfg.workload.name, cfg.arch.name);
      BF_CHECK_MSG(loaded.has_value(), "source sweep missing from repository");
      out.data = std::move(*loaded);
    } else {
      ScopedSpan s(tracer_, "profiling.sweep", trace_id);
      const gpusim::Device device(cfg.arch);
      out.data = profiling::sweep(cfg.workload, device, cfg.sizes, cfg.sweep,
                                  &out.sweep_report);
    }
    if (out.data.has_missing()) {
      out.missing = out.data.resolve_missing(
          cfg.degrade.min_column_coverage, cfg.degrade.min_row_coverage,
          {profiling::kTimeColumn, profiling::kSizeColumn});
    }
    {
      ScopedSpan s(tracer_, "core.fit", trace_id);
      out.model = core::BlackForestModel::fit(out.data, cfg.model);
    }
    {
      ScopedSpan s(tracer_, "core.pca", trace_id);
      out.pca = core::pca_refine(out.data, cfg.pca);
    }
    ScopedSpan s(tracer_, "core.bottleneck", trace_id);
    out.report = core::analyze_bottlenecks(out.model, cfg.workload.name,
                                           cfg.arch.name, cfg.bottleneck);
  }

  const Spec& spec_;
  Tracer& tracer_;
  Tracer off_{false};
  SimProbe probe_;
  profiling::Workload wrapped_;
  std::string repo_dir_;
};

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace

Result run_analyze(const Options& opts, Tracer& tracer) {
  Result r;
  const Spec spec = make_spec(opts.workload);
  const DigestBook book(opts.digest_file);
  Analyzer an(spec, tracer);
  const std::string& wl = opts.workload;

  const auto check_digest = [&](const std::string& kind, std::uint64_t digest) {
    ++r.attempted;
    const std::string err = book.check(wl, kind, digest);
    if (!err.empty()) r.incorrect(err);
  };

  // ---- set-up, repeated; the last one's state is kept ----
  std::vector<double> setup_s;
  std::uint64_t sim_digest = 0;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    if (spec.cached) {
      sim_digest = an.fill_repository("repo" + std::to_string(k));
      // The first full analysis pays every lazy cost; it is set-up.
      an.analyze(an.config(spec.train, spec.trees), spec.trees, false, 0);
    } else {
      an.analyze(an.config(spec.warmup, 50), 50, false, 0);
    }
    setup_s.push_back(seconds_since(t0));
    if (spec.cached) check_digest("sim", sim_digest);
  }
  const std::size_t setup_launches = an.probe().take().launches;

  // ---- measured analyses, each followed by a round of predictions ----
  // In-process guarded predictions are timed in rounds of 1000 spread
  // over the run, so one burst of host noise moves one round, not the
  // whole sample.
  std::vector<double> queries = spec.heldout;
  queries.insert(queries.end(), spec.extrap.begin(), spec.extrap.end());
  Rng qrng(derive_seed(opts.seed, 7));
  std::vector<double> predict_us;
  std::vector<double> round_p50_us;
  std::vector<double> round_p90_us;
  std::vector<double> round_p99_us;
  std::vector<double> power_us;
  const auto predict_round = [&](const Product& p) {
    std::vector<double> round;
    for (int i = 0; i < 1000; ++i) {
      const double size = queries[qrng.uniform_index(queries.size())];
      auto t0 = Clock::now();
      const auto rec = p.psp->predict_guarded(size);
      round.push_back(seconds_since(t0) * 1e6);
      if (p.power) {
        t0 = Clock::now();
        const auto pp = p.power->predict_guarded(size, rec);
        power_us.push_back(seconds_since(t0) * 1e6);
        if (!std::isfinite(pp.power_w)) r.incorrect("non-finite power");
      }
      if (!std::isfinite(rec.value)) r.incorrect("non-finite prediction");
    }
    round_p50_us.push_back(median(round));
    round_p90_us.push_back(quantile(round, 0.90));
    round_p99_us.push_back(quantile(round, 0.99));
    predict_us.insert(predict_us.end(), round.begin(), round.end());
  };

  const core::PipelineConfig cfg = an.config(spec.train, spec.trees);
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<std::map<std::string, double>> layer_totals;
  std::vector<SimProbe::Totals> sim_totals;
  std::optional<Product> last;
  std::optional<std::uint64_t> first_digest;
  const auto t_start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    const std::uint64_t trace_id = i + 1;
    an.probe().reset_digest();
    const auto t0 = Clock::now();
    ++r.attempted;
    try {
      last = an.analyze(cfg, spec.trees, traced, trace_id);
    } catch (const std::exception& e) {
      r.incorrect(std::string("analysis threw: ") + e.what());
      break;
    }
    (traced ? traced_s : plain_s).push_back(seconds_since(t0));
    sim_totals.push_back(an.probe().take());
    if (traced) layer_totals.push_back(tracer.totals(trace_id));
    if (!spec.cached) {
      sim_digest = an.probe().digest();
      check_digest("sim", sim_digest);
    }
    const std::uint64_t d = last->digest();
    if (!first_digest) {
      first_digest = d;
      check_digest("pred", d);
    } else {
      ++r.attempted;
      if (d != *first_digest) r.incorrect("analysis outputs differ between iterations");
    }
    predict_round(*last);
    std::vector<double> all = plain_s;
    all.insert(all.end(), traced_s.begin(), traced_s.end());
    if (i + 1 >= spec.min_analyses &&
        seconds_since(t_start) + median(all) > 0.85 * opts.seconds) {
      break;
    }
  }
  if (!last) return r;
  while (round_p99_us.size() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    predict_round(*last);
  }
  {
    std::string line = "analysis samples (s):";
    for (const double v : plain_s) line += " " + std::to_string(v);
    r.note(line);
    line = "predict round p50 (us):";
    for (const double v : round_p50_us) line += " " + std::to_string(v);
    r.note(line);
    line = "predict round p90 (us):";
    for (const double v : round_p90_us) line += " " + std::to_string(v);
    r.note(line);
  }

  // ---- reference: simulate and profile each held-out size ----
  profiling::ProfilerOptions exact;
  exact.time_noise_sd = 0.0;
  exact.counter_noise_sd = 0.0;
  profiling::Profiler profiler(exact);
  const gpusim::Device device(spec.source);
  std::vector<double> ape;
  std::vector<double> sim_s;
  for (std::size_t i = 0; i < spec.heldout.size(); ++i) {
    const auto t0 = Clock::now();
    const auto truth = profiler.profile(spec.workload, device, spec.heldout[i]);
    sim_s.push_back(seconds_since(t0));
    ape.push_back(100.0 * std::fabs(last->recs[i].value - truth.time_ms) /
                  truth.time_ms);
  }

  const double pred_p50 = median(predict_us);
  r.note("samples: setups=" + std::to_string(setup_s.size()) +
         " analyses=" + std::to_string(plain_s.size()) +
         " traced_analyses=" + std::to_string(traced_s.size()) +
         " predicts=" + std::to_string(predict_us.size()) +
         " heldout=" + std::to_string(spec.heldout.size()));
  r.note("digest sim=" + hex64(sim_digest) + " pred=" + hex64(*first_digest));

  if (!opts.trace) {
    r.set("setup_s", median(setup_s), "s");
    r.set("analysis_s", steady_time(plain_s), "s");
    r.set("predict_p50_us", steady_time(round_p50_us), "us");
    r.set("predict_p90_us", steady_time(round_p90_us), "us");
    r.set("pred_mape_pct", median(ape), "%");
    r.set("oob_var_pct", last->outcome.model.pct_var_explained(), "%");
    r.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    return r;
  }

  // ---- per-layer (traced run) ----
  const auto layer = [&](const std::string& span) {
    std::vector<double> v;
    for (const auto& m : layer_totals) {
      const auto it = m.find(span);
      v.push_back(it == m.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  std::vector<double> run_s, launches, inst;
  for (const auto& t : sim_totals) {
    run_s.push_back(t.run_s);
    launches.push_back(static_cast<double>(t.launches));
    inst.push_back(t.inst_issued);
  }
  const double gpusim_s = median(run_s);
  r.set("gpusim.run_s", gpusim_s, "s");
  r.set("gpusim.launches", median(launches), "count");
  r.set("gpusim.inst_issued", median(inst), "count");
  r.set("gpusim.minst_per_s", gpusim_s > 0 ? median(inst) / gpusim_s / 1e6 : 0,
        "1/s");
  const double sweep_s = layer("profiling.sweep");
  r.set("profiling.sweep_s", sweep_s, "s");
  r.set("profiling.attempts",
        static_cast<double>(last->outcome.sweep_report.total_attempts), "count");
  r.set("profiling.retries",
        static_cast<double>(last->outcome.sweep_report.retried_attempts),
        "count");
  r.set("profiling.profile_self_s",
        sweep_s > 0 ? sweep_s - layer("gpusim.run") : 0.0, "s");
  r.set("profiling.repo_load_s", layer("profiling.repo_load"), "s");
  r.set("profiling.repo_bytes",
        spec.cached ? static_cast<double>(dir_bytes(*cfg.repository_root)) : 0,
        "B");
  r.set("core.fit_s", layer("core.fit"), "s");
  r.set("core.pca_s", layer("core.pca"), "s");
  r.set("core.bottleneck_s", layer("core.bottleneck"), "s");
  r.set("core.psp_build_s", layer("core.psp_build"), "s");
  r.set("core.hw_predict_s", layer("core.hw_predict"), "s");
  r.set("core.predict_us", pred_p50, "us");
  r.set("predict_p99_us", steady_time(round_p99_us), "us");
  r.set("core.hw_mape_pct",
        last->hw ? last->hw->series.median_abs_pct_error : 0.0, "%");
  r.set("core.predict_vs_sim_ratio", median(sim_s) / (pred_p50 * 1e-6),
        "ratio");
  r.set("ml.trees", static_cast<double>(last->outcome.model.flat().n_trees()),
        "count");
  r.set("ml.flat_nodes",
        static_cast<double>(last->outcome.model.flat().node_count()), "count");
  r.set("power.build_s", layer("power.build"), "s");
  r.set("power.predict_us", median(power_us), "us");
  double grade_c = 0, clamps = 0, extrapolated = 0;
  for (const auto& rec : last->recs) {
    grade_c += rec.grade == guard::Grade::kC ? 1 : 0;
    clamps += static_cast<double>(rec.clamps.size());
    extrapolated += rec.extrapolated ? 1 : 0;
  }
  r.set("guard.grade_c", grade_c, "count");
  r.set("guard.clamps", clamps, "count");
  r.set("guard.extrapolated", extrapolated, "count");
  const double plain = median(plain_s);
  r.set("trace.overhead_pct",
        plain > 0 ? 100.0 * (median(traced_s) - plain) / plain : 0.0, "%");
  r.note("gpusim launches during set-up: " + std::to_string(setup_launches));
  return r;
}

}  // namespace perfbench
