// Guard-layer suite: domain hulls, confidence grading, physical caps,
// counter-model fallback chains, and the guarded problem-scaling path.
//
// The bit-identity contract is regression-tested against a stored
// pre-guard baseline: with no guard tripped, the reduce1 predictions
// must reproduce the pre-guard numbers exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/counter_models.hpp"
#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/engine.hpp"
#include "guard/guard.hpp"
#include "guard/physical.hpp"
#include "ml/dataset.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace bf {
namespace {

using profiling::kSizeColumn;
using profiling::kTimeColumn;

// ---- DomainGuard ----

TEST(DomainGuard, HullBoundaryDetection) {
  ml::Dataset ds;
  ds.add_column("size", {100, 200, 300, 400});
  ds.add_column("flat", {5, 5, 5, 5});
  const auto hull = guard::DomainGuard::build(ds, {"size", "flat"}, 0.1);
  ASSERT_EQ(hull.ranges().size(), 2u);
  ASSERT_NE(hull.range("size"), nullptr);
  EXPECT_EQ(hull.range("size")->lo, 100.0);
  EXPECT_EQ(hull.range("size")->hi, 400.0);

  // The flags one value of `feature` raises, as a one-column row.
  const auto check_value = [&hull](const std::string& feature, double v) {
    const double row[] = {v};
    return hull.check_row(row, hull.slots({feature}));
  };

  // Span 300, margin 10% -> hull [70, 430]; the edges are still inside.
  EXPECT_TRUE(check_value("size", 430.0).empty());
  EXPECT_TRUE(check_value("size", 70.0).empty());
  EXPECT_TRUE(check_value("size", 250.0).empty());

  const auto above = check_value("size", 500.0);
  ASSERT_EQ(above.size(), 1u);
  EXPECT_EQ(above[0].feature, "size");
  EXPECT_NEAR(above[0].distance, 70.0 / 300.0, 1e-12);

  const auto below = check_value("size", 10.0);
  ASSERT_EQ(below.size(), 1u);
  EXPECT_NEAR(below[0].distance, 60.0 / 300.0, 1e-12);

  // A constant feature has zero span: distances are absolute.
  const auto flat = check_value("flat", 6.5);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_NEAR(flat[0].distance, 1.5, 1e-12);

  // Untracked features and non-finite queries never flag.
  EXPECT_TRUE(check_value("unknown", 1e18).empty());
  EXPECT_TRUE(check_value("size", std::nan("")).empty());
}

TEST(DomainGuard, CheckRowCoversEveryTrackedColumn) {
  ml::Dataset train;
  train.add_column("a", {0, 1, 2});
  train.add_column("b", {10, 20, 30});
  train.add_column("c", {1, 2, 3});
  const auto hull = guard::DomainGuard::build(train, {"a", "b", "c"}, 0.0);

  // Rows laid out as (b, x, a): "c" is not carried, "x" is not tracked.
  const auto slots = hull.slots({"b", "x", "a"});
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0], 2u);
  EXPECT_EQ(slots[1], 0u);
  EXPECT_EQ(slots[2], guard::kNoSlot);

  const double query[] = {25.0, 1e18, 5.0};  // b in hull, a out of it
  const auto flags = hull.check_row(query, slots);
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_EQ(flags[0].feature, "a");
  EXPECT_EQ(flags[0].value, 5.0);
  EXPECT_NEAR(flags[0].distance, 1.5, 1e-12);  // 3 beyond a span of 2

  const double both_out[] = {40.0, 0.0, -1.0};
  const auto two = hull.check_row(both_out, slots);
  ASSERT_EQ(two.size(), 2u);  // in range order: a, then b
  EXPECT_EQ(two[0].feature, "a");
  EXPECT_EQ(two[1].feature, "b");
  EXPECT_THROW((void)hull.check_row(query, {0, 2}), Error);
}

// ---- grading ----

TEST(GradePrediction, EvidenceMapsToGrades) {
  guard::PredictionGuardRecord rec;
  EXPECT_EQ(guard::grade_prediction(rec), guard::Grade::kA);

  rec.interval_width = 0.6 * guard::kIntervalB;
  EXPECT_EQ(guard::grade_prediction(rec), guard::Grade::kA);
  rec.interval_width = 1.2 * guard::kIntervalB;
  EXPECT_EQ(guard::grade_prediction(rec), guard::Grade::kB);
  rec.interval_width = 1.2 * guard::kIntervalC;
  EXPECT_EQ(guard::grade_prediction(rec), guard::Grade::kC);

  rec = {};
  rec.demotions.push_back("c: mars -> glm (non-finite)");
  EXPECT_EQ(guard::grade_prediction(rec), guard::Grade::kB);

  rec = {};
  rec.extrapolated = true;
  rec.flags.push_back({"size", 1e7, 0.6 * guard::kFarDistance});
  EXPECT_EQ(guard::grade_prediction(rec), guard::Grade::kB);
  rec.flags[0].distance = 1.4 * guard::kFarDistance;
  EXPECT_EQ(guard::grade_prediction(rec), guard::Grade::kC);

  rec = {};
  rec.clamps.push_back("ipc: 9 -> 2 (IPC <= issue width)");
  EXPECT_EQ(guard::grade_prediction(rec), guard::Grade::kC);

  EXPECT_EQ(guard::worse(guard::Grade::kA, guard::Grade::kC),
            guard::Grade::kC);
  EXPECT_EQ(guard::grade_letter(guard::Grade::kB), 'B');
}

// ---- physical caps ----

const guard::PhysicalCap* find_cap(const std::vector<guard::PhysicalCap>& caps,
                                   const std::string& name) {
  for (const auto& c : caps) {
    if (c.counter == name) return &c;
  }
  return nullptr;
}

TEST(PhysicalCaps, StaticCapsFromBothArchSpecs) {
  // GTX580 (Fermi): 2 schedulers x 1 dispatch unit -> IPC <= 2.
  const auto fermi = guard::static_caps(gpusim::gtx580());
  const auto* fermi_ipc = find_cap(fermi, "ipc");
  ASSERT_NE(fermi_ipc, nullptr);
  EXPECT_EQ(fermi_ipc->max_value, 2.0);
  const auto* fermi_bw = find_cap(fermi, "dram_read_throughput");
  ASSERT_NE(fermi_bw, nullptr);
  EXPECT_EQ(fermi_bw->max_value, 192.4);

  // K20m (Kepler): 4 schedulers x 2 dispatch units -> IPC <= 8.
  const auto kepler = guard::static_caps(gpusim::kepler_k20m());
  const auto* kepler_ipc = find_cap(kepler, "ipc");
  ASSERT_NE(kepler_ipc, nullptr);
  EXPECT_EQ(kepler_ipc->max_value, 8.0);
  const auto* kepler_bw = find_cap(kepler, "dram_write_throughput");
  ASSERT_NE(kepler_bw, nullptr);
  EXPECT_EQ(kepler_bw->max_value, 208.0);

  // Ratio metrics ride along in both.
  EXPECT_NE(find_cap(fermi, "achieved_occupancy"), nullptr);
  const auto* kepler_occ = find_cap(kepler, "achieved_occupancy");
  ASSERT_NE(kepler_occ, nullptr);
  EXPECT_EQ(kepler_occ->max_value, 1.0);
}

TEST(PhysicalCaps, TimeCapsBoundTransactionsAndInstructions) {
  const auto arch = gpusim::gtx580();
  const auto caps = guard::time_caps(arch, 1.0);
  ASSERT_TRUE(caps.has_value());
  // bandwidth x time / 32-byte segments.
  EXPECT_NEAR(caps->max_transactions, 192.4e9 * 1e-3 / 32.0, 1e-3);
  // SMs x schedulers x dispatch x clock x time.
  EXPECT_NEAR(caps->max_issued, 16.0 * 2.0 * 1.0 * 1.544e9 * 1e-3, 1e-3);

  // Each time-capped counter obeys its law's bound.
  std::vector<std::string> counters;
  for (const auto& tc : guard::kTimeCapped) {
    counters.push_back(tc.counter);
    const bool bus = std::string(tc.counter).rfind("dram_", 0) == 0;
    EXPECT_EQ(caps->bound(tc.law),
              bus ? caps->max_transactions : caps->max_issued)
        << tc.counter;
  }
  EXPECT_EQ(counters,
            (std::vector<std::string>{"dram_read_transactions",
                                      "dram_write_transactions",
                                      "inst_executed", "inst_issued"}));
  EXPECT_EQ(guard::time_cap_reason(guard::TimeLaw::kBusTransactions,
                                   caps->max_transactions),
            "bandwidth x predicted time allows <= 6.012e+06 transactions");
  EXPECT_EQ(guard::time_cap_reason(guard::TimeLaw::kIssueRate,
                                   caps->max_issued),
            "issue rate x predicted time allows <= 4.941e+07 warp "
            "instructions");

  // No predicted time, no time caps.
  EXPECT_FALSE(guard::time_caps(arch, 0.0).has_value());
  EXPECT_FALSE(guard::time_caps(arch, -1.0).has_value());
  EXPECT_FALSE(guard::time_caps(arch, std::nan("")).has_value());
}

TEST(PhysicalCaps, ClampHonoursToleranceAndReportsTheLaw) {
  // Within-tolerance violations are not clamps; clear ones are, and
  // non-finite values are left to the prediction guard.
  EXPECT_FALSE(guard::exceeds_cap(1.01, 1.0, 0.02));
  EXPECT_FALSE(guard::exceeds_cap(1.0, 1.0, 0.02));
  EXPECT_TRUE(guard::exceeds_cap(1.03, 1.0, 0.02));
  EXPECT_TRUE(guard::exceeds_cap(9.0, 2.0, 0.02));
  EXPECT_FALSE(guard::exceeds_cap(std::nan(""), 2.0, 0.02));

  const auto caps = guard::static_caps(gpusim::gtx580());
  const auto* ipc = find_cap(caps, "ipc");
  ASSERT_NE(ipc, nullptr);
  EXPECT_EQ(guard::clamp_text(ipc->counter, 9.0, ipc->max_value, ipc->reason),
            "ipc: 9 -> 2 (IPC <= schedulers x dispatch units (2))");

  // The board envelope clamps power from both sides and says why.
  const auto arch = gpusim::gtx580();
  std::vector<std::string> clamps;
  EXPECT_EQ(guard::clamp_power_to_envelope(arch, arch.tdp_w * 1.01, 0.02,
                                           clamps),
            arch.tdp_w * 1.01);
  EXPECT_TRUE(clamps.empty());
  EXPECT_EQ(guard::clamp_power_to_envelope(arch, 2.0 * arch.tdp_w, 0.02,
                                           clamps),
            arch.tdp_w);
  EXPECT_EQ(guard::clamp_power_to_envelope(arch, 0.0, 0.02, clamps),
            arch.idle_w);
  ASSERT_EQ(clamps.size(), 2u);
  EXPECT_EQ(clamps[0].rfind("power_avg_w: ", 0), 0u);
  EXPECT_NE(clamps[0].find("board power <= TDP"), std::string::npos);
  EXPECT_NE(clamps[1].find("board power >= idle floor"), std::string::npos);
}

// ---- counter-model fallback chains ----

TEST(CounterModelChain, ChainIsFitAndRankedByCv) {
  // A clean power law: every candidate can model it, so the chain holds
  // all four kinds with the legacy-selected primary first.
  ml::Dataset ds;
  std::vector<double> sizes;
  std::vector<double> y;
  for (double s = 64; s <= 65536; s *= 2) {
    sizes.push_back(s);
    y.push_back(2.0 * std::pow(s, 1.5));
  }
  ds.add_column("size", sizes);
  ds.add_column("flops", y);

  const auto models = core::CounterModels::fit(ds, {"flops"});
  ASSERT_EQ(models.num_entries(), 1u);
  EXPECT_EQ(models.entry_counter(0), "flops");

  const auto& chain = models.entry_chain(0);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain.front(), models.info()[0].chosen);
  for (const auto kind :
       {core::CounterModelKind::kGlm, core::CounterModelKind::kMars,
        core::CounterModelKind::kLogLinear,
        core::CounterModelKind::kPowerLaw}) {
    EXPECT_NE(std::find(chain.begin(), chain.end(), kind), chain.end())
        << counter_model_name(kind);
  }
  EXPECT_EQ(models.info()[0].chain, chain);
  EXPECT_TRUE(std::isfinite(models.info()[0].cv_rmse));

  // The guarded path takes its envelope and terminal fallback from the
  // power law, so a saved chain cut down to its primary must not load.
  std::ostringstream os;
  models.save(os);
  std::string text = os.str();
  const std::size_t chain_at = text.find('\n', text.find("\nflops ") + 1) + 1;
  ASSERT_EQ(text.substr(chain_at, 2), "4 ");
  text.replace(chain_at, text.find('\n', chain_at) - chain_at,
               "1 " + std::to_string(static_cast<int>(chain.front())));
  std::istringstream is(text);
  EXPECT_THROW((void)core::CounterModels::load(is), Error);

  // The power-law fallback extrapolates the law through the two largest
  // training points, far beyond the training range.
  const double far = 4.0 * 65536;
  const double expected = 2.0 * std::pow(far, 1.5);
  const double pl =
      models.predict_kind(0, core::CounterModelKind::kPowerLaw, far);
  EXPECT_NEAR(pl, expected, 0.01 * expected);
}

TEST(CounterModelChain, EveryPredictionExitsNonNegative) {
  // A counter falling linearly in log2(size + 1) goes negative under
  // extrapolation; the single exit point must clamp it to zero and
  // report the clamp.
  ml::Dataset ds;
  ds.add_column("size", {7, 15, 31, 63});
  ds.add_column("stalls", {70, 60, 50, 40});  // 100 - 10 log2(size + 1)

  core::CounterModelOptions opts;
  opts.kind = core::CounterModelKind::kGlm;
  const auto models = core::CounterModels::fit(ds, {"stalls"}, opts);
  ASSERT_EQ(models.num_entries(), 1u);

  bool negative_clamped = false;
  const double v = models.predict_kind(0, core::CounterModelKind::kGlm,
                                       4095.0, &negative_clamped);
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(negative_clamped);

  // The bulk predict path shares the same exit.
  const auto pairs = models.predict(4095.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 0.0);

  // In-range predictions are untouched (and report no clamp).
  negative_clamped = true;
  const double mid = models.predict_kind(0, core::CounterModelKind::kGlm,
                                         23.0, &negative_clamped);
  EXPECT_NEAR(mid, 100.0 - 10.0 * std::log2(24.0), 1e-6);
  EXPECT_FALSE(negative_clamped);
}

TEST(CounterModelChain, LoadRejectsAChainModelItDoesNotHold) {
  // A record whose chain names a model it does not hold, fitted on the
  // size alone, would load and then fail (or answer with another model)
  // on every query that reaches that model: load refuses it and names
  // the counter.
  ml::Dataset ds;
  std::vector<double> sizes;
  std::vector<double> y;
  for (double s = 64; s <= 65536; s *= 2) {
    sizes.push_back(s);
    y.push_back(2.0 * std::pow(s, 1.5));
  }
  ds.add_column("size", sizes);
  ds.add_column("flops", y);
  // The saved lines of a chain fitted with `kind` as its primary.
  const auto saved_lines = [&](core::CounterModelKind kind) {
    core::CounterModelOptions opts;
    opts.kind = kind;
    std::ostringstream os;
    core::CounterModels::fit(ds, {"flops"}, opts).save(os);
    std::vector<std::string> lines;
    std::istringstream is(os.str());
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    return lines;
  };
  // Index of the n-th line that starts with `magic`.
  const auto nth = [](const std::vector<std::string>& lines,
                      const std::string& magic, int n) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind(magic, 0) == 0 && n-- == 0) return i;
    }
    ADD_FAILURE() << "no record " << magic;
    return lines.size();
  };
  const auto join = [](const std::vector<std::string>& lines) {
    std::string text;
    for (const auto& line : lines) text += line + "\n";
    return text;
  };

  const auto glm = saved_lines(core::CounterModelKind::kGlm);
  const std::size_t entry = nth(glm, "flops ", 0);
  ASSERT_EQ(glm[entry].substr(0, 8), "flops 0 ");  // GLM primary
  std::vector<std::string> cases;
  {
    // The primary GLM's coefficients blanked: an unfitted record.
    auto lines = glm;
    lines[nth(lines, "bf_glm ", 0) + 2] = "1 0 0 0";
    cases.push_back(join(lines));
  }
  {
    // The log-log line refitted on two inputs: a third coefficient.
    auto lines = glm;
    std::string& coef = lines[nth(lines, "bf_glm ", 1) + 2];
    ASSERT_EQ(coef.substr(0, 4), "1 2 ");
    const std::size_t rest = coef.find(' ', coef.find(' ', 4) + 1);
    coef = "2 3 " + coef.substr(4, rest - 4) + " 0" + coef.substr(rest);
    cases.push_back(join(lines));
  }
  {
    // "auto" as the primary and the chain head.
    auto lines = glm;
    lines[entry].replace(6, 1, "2");
    std::string& chain = lines[entry + 1];
    chain.replace(chain.find(' ') + 1, 1, "2");
    cases.push_back(join(lines));
  }
  {
    // A MARS primary whose terms are gone.
    auto lines = saved_lines(core::CounterModelKind::kMars);
    const std::size_t mars = nth(lines, "bf_mars ", 0);
    const std::size_t next = nth(lines, "bf_glm ", 1);
    lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(mars) + 1,
                lines.begin() + static_cast<std::ptrdiff_t>(next));
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(mars) + 1,
                 "0 0 0 0");
    cases.push_back(join(lines));
  }
  {
    std::istringstream is(join(glm));
    EXPECT_GT(core::CounterModels::load(is).predict_kind(
                  0, core::CounterModelKind::kGlm, 1024.0),
              0.0);
  }
  for (const std::string& text : cases) {
    std::istringstream is(text);
    try {
      (void)core::CounterModels::load(is);
      ADD_FAILURE() << "loaded:\n" << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("chain for flops names "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CounterModelChain, FallbackChainRecordsPrimaryCvError) {
  // Noisy but monotone data: whatever the exact CV ranking, the chain is
  // a permutation of all four kinds with the primary first, and the
  // primary's CV RMSE is recorded for the guard report.
  ml::Dataset ds;
  std::vector<double> sizes;
  std::vector<double> y;
  double jitter = 0.02;
  for (double s = 128; s <= 131072; s *= 2) {
    sizes.push_back(s);
    y.push_back(3.0 * s * (1.0 + jitter));
    jitter = -jitter;
  }
  ds.add_column("size", sizes);
  ds.add_column("bytes", y);

  const auto models = core::CounterModels::fit(ds, {"bytes"});
  const auto& info = models.info()[0];
  ASSERT_EQ(info.chain.size(), 4u);
  EXPECT_EQ(info.chain.front(), info.chosen);
  EXPECT_GT(info.cv_rmse, 0.0);
  EXPECT_TRUE(std::isfinite(info.cv_rmse));
}

// ---- the guarded problem-scaling path ----

const ml::Dataset& reduce1_sweep() {
  static const ml::Dataset ds = [] {
    const gpusim::Device dev(gpusim::gtx580());
    return profiling::sweep(profiling::workload_by_name("reduce1"), dev,
                            profiling::log2_sizes(1 << 14, 1 << 22, 16, 256));
  }();
  return ds;
}

core::ProblemScalingOptions guarded_options() {
  core::ProblemScalingOptions pso;
  pso.model.forest.n_trees = 120;
  pso.arch = gpusim::gtx580();
  return pso;
}

const core::ProblemScalingPredictor& guarded_predictor() {
  static const core::ProblemScalingPredictor p =
      core::ProblemScalingPredictor::build(reduce1_sweep(),
                                           guarded_options());
  return p;
}

// Pre-guard baseline: reduce1 on gtx580, sizes log2_sizes(2^14, 2^22, 16,
// 256), 120 trees — captured at the commit before the guard layer landed.
// An untripped guarded prediction must reproduce these numbers exactly.
const std::vector<std::pair<double, double>> kReduce1Baseline = {
    {32768, 0.0051066325251370431},  {65536, 0.0083086092245588036},
    {131072, 0.014143468900777414},  {524288, 0.051980062173440054},
    {1048576, 0.076073059993285869}, {2097152, 0.1957913344543703},
};

TEST(GuardedPredictor, UntrippedGuardedPathMatchesPreGuardBaseline) {
  const auto& predictor = guarded_predictor();
  for (const auto& [size, expected] : kReduce1Baseline) {
    const auto rec = predictor.predict_guarded(size);
    EXPECT_TRUE(rec.demotions.empty()) << "size " << size;
    EXPECT_TRUE(rec.clamps.empty()) << "size " << size;
    EXPECT_FALSE(rec.extrapolated) << "size " << size;
    EXPECT_DOUBLE_EQ(rec.value, expected) << "size " << size;
    EXPECT_LE(rec.lo, rec.value);
    EXPECT_GE(rec.hi, rec.value);
  }
}

TEST(GuardedPredictor, InHullPredictionsKeepAccuracyAndGradeAB) {
  const auto& predictor = guarded_predictor();
  std::vector<double> sizes;
  for (const auto& pair : kReduce1Baseline) sizes.push_back(pair.first);
  const gpusim::Device dev(gpusim::gtx580());
  const ml::Dataset truth =
      profiling::sweep(profiling::workload_by_name("reduce1"), dev, sizes);
  const std::vector<double> measured = truth.column(kTimeColumn);

  const auto series = predictor.validate(sizes, measured);
  EXPECT_GT(series.explained_variance, 0.9);

  ASSERT_TRUE(series.guard.enabled);
  ASSERT_EQ(series.guard.predictions.size(), sizes.size());
  for (const auto& rec : series.guard.predictions) {
    EXPECT_NE(rec.grade, guard::Grade::kC) << "size " << rec.size;
    EXPECT_FALSE(rec.extrapolated) << "size " << rec.size;
  }
}

TEST(GuardedPredictor, HeadlineFourTimesLargestSizeIsFlaggedAndGradedC) {
  const auto& predictor = guarded_predictor();
  const double largest = 1 << 22;
  const auto rec = predictor.predict_guarded(4.0 * largest);

  EXPECT_TRUE(rec.extrapolated);
  bool size_flagged = false;
  for (const auto& f : rec.flags) {
    if (f.feature == kSizeColumn) {
      size_flagged = true;
      EXPECT_GT(f.distance, 0.5);  // far beyond the margined hull
    }
  }
  EXPECT_TRUE(size_flagged);
  EXPECT_EQ(rec.grade, guard::Grade::kC);
  // Physically impossible counter values were clamped to the caps.
  EXPECT_FALSE(rec.clamps.empty());
  // The guarded value is still finite and positive.
  EXPECT_TRUE(std::isfinite(rec.value));
  EXPECT_GT(rec.value, 0.0);
}

TEST(GuardedPredictor, GuardReportDescribesTheModel) {
  const auto& predictor = guarded_predictor();
  const auto report = predictor.guard_report();
  EXPECT_TRUE(report.enabled);
  ASSERT_FALSE(report.hull.empty());
  bool has_size = false;
  for (const auto& r : report.hull) {
    if (r.name == kSizeColumn) {
      has_size = true;
      EXPECT_EQ(r.lo, 1 << 14);
      EXPECT_EQ(r.hi, 1 << 22);
    }
  }
  EXPECT_TRUE(has_size);
  ASSERT_FALSE(report.counters.empty());
  for (const auto& c : report.counters) {
    EXPECT_EQ(c.chain.size(), 4u) << c.counter;
    EXPECT_EQ(c.chain.front(), c.chosen) << c.counter;
  }
  // No predictions yet: the fit-time skeleton is grade A and not degraded.
  EXPECT_EQ(report.worst(), guard::Grade::kA);
  EXPECT_FALSE(report.degraded());
}

// ---- hardware scaling: the guard only annotates ----

TEST(HardwareScalingGuard, AnnotatesWithoutChangingPredictions) {
  profiling::SweepOptions sweep_opts;
  sweep_opts.machine_characteristics = true;
  const auto sizes = profiling::log2_sizes(1 << 14, 1 << 20, 12, 256);
  const gpusim::Device src_dev(gpusim::gtx580());
  const gpusim::Device tgt_dev(gpusim::kepler_k20m());
  const auto workload = profiling::workload_by_name("reduce1");
  const ml::Dataset source =
      profiling::sweep(workload, src_dev, sizes, sweep_opts);
  const ml::Dataset target =
      profiling::sweep(workload, tgt_dev, sizes, sweep_opts);

  core::HardwareScalingOptions options;
  options.model.forest.n_trees = 80;
  const auto result =
      core::HardwareScalingPredictor::predict(source, target, options);

  // One guard record per test row, carrying the series' prediction bit
  // for bit: the guard only adds the report.
  const auto& series = result.series;
  ASSERT_TRUE(series.guard.enabled);
  ASSERT_EQ(series.guard.predictions.size(), series.predicted_ms.size());
  for (std::size_t i = 0; i < series.predicted_ms.size(); ++i) {
    EXPECT_EQ(series.guard.predictions[i].value, series.predicted_ms[i])
        << "row " << i;
  }
}

}  // namespace
}  // namespace bf
