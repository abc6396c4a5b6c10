// Golden predictions: small seeded sweeps of reduce1 and matrixMul on
// gtx580 and needle on gtx580 and k20m must reproduce the committed
// fnv1a64 digests of everything the modelling stack answers — held-out
// predictions, per-tree intervals, the importance table with the OOB
// statistics, partial-dependence curves (plain and banded) of the top
// three variables, and guarded predictions at in-hull sizes and at four
// times the largest size, both in memory and after a bundle round trip
// (plus the power/energy outputs of one powered bundle), and the text of
// every demotion, clamp and extrapolation flag those guarded predictions
// carry, and every counter model's quality record and the output of each
// model in its fallback chain (the time and power predictors', in memory
// and after the round trip). Every double is hashed as its IEEE-754 bit
// pattern, so a refactor of the inference, guard or serialisation code
// must leave this table untouched.
//
// The table lives in tests/data/golden_predictions.txt. When a
// deliberate model change moves predictions, the failure message prints
// the complete recomputed table; review the change and paste it over the
// file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "core/predictor.hpp"
#include "golden_table.hpp"
#include "gpusim/arch.hpp"
#include "power/predictor.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"
#include "serve/artifact.hpp"

namespace bf {
namespace {

struct Case {
  const char* workload;
  const char* arch;
  std::vector<double> sizes;
  bool power;
};

std::vector<Case> golden_cases() {
  const auto rsizes = profiling::log2_sizes(1 << 14, 1 << 20, 10, 256);
  const auto msizes = profiling::log2_sizes(32, 256, 10, 16);
  const auto nsizes = profiling::log2_sizes(64, 512, 10, 16);
  return {{"reduce1", "gtx580", rsizes, true},
          {"matrixMul", "gtx580", msizes, false},
          {"needle", "gtx580", nsizes, false},
          {"needle", "k20m", nsizes, false}};
}

/// Accumulates IEEE bit patterns (and small integers) into one text that
/// is hashed at the end.
class Digest {
 public:
  Digest& num(double v) { return str(bits_hex(v)); }
  Digest& str(const std::string& s) {
    text_ += s;
    text_ += ' ';
    return *this;
  }
  Digest& count(std::size_t n) { return str(std::to_string(n)); }
  Digest& end_row() {
    text_ += '\n';
    return *this;
  }
  std::string hex() const { return to_hex64(fnv1a64(text_)); }

 private:
  std::string text_;
};

void add_guarded(Digest& d, const guard::PredictionGuardRecord& rec) {
  d.num(rec.value).num(rec.lo).num(rec.hi);
  d.str(std::string(1, guard::grade_letter(rec.grade)));
  d.count(rec.extrapolated ? 1 : 0).count(rec.clamps.size()).end_row();
}

/// In-hull query sizes (every training size and the geometric midpoints
/// between neighbours) plus one far extrapolation at 4x the largest.
std::vector<double> query_sizes(const std::vector<double>& sizes) {
  std::vector<double> out;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out.push_back(sizes[i]);
    if (i + 1 < sizes.size()) out.push_back(std::sqrt(sizes[i] * sizes[i + 1]));
  }
  out.push_back(4.0 * sizes.back());
  return out;
}

std::string guarded_digest(const core::ProblemScalingPredictor& p,
                           const std::vector<double>& sizes) {
  Digest d;
  for (const double s : query_sizes(sizes)) add_guarded(d, p.predict_guarded(s));
  return d.hex();
}

/// Every guard string of one guarded prediction: its demotions, its
/// clamps and its extrapolation flags (feature and distance bits).
void add_guard_strings(Digest& d, const guard::PredictionGuardRecord& rec) {
  d.count(rec.demotions.size());
  for (const auto& line : rec.demotions) d.str(line);
  d.count(rec.clamps.size());
  for (const auto& line : rec.clamps) d.str(line);
  d.count(rec.flags.size());
  for (const auto& f : rec.flags) d.str(f.feature).num(f.distance);
  d.end_row();
}

/// The guard text of the guarded queries plus one at 16x the largest
/// size, where matrixMul's modelled IPC passes the issue width: the row
/// then covers a static-cap clamp besides the time-cap clamps that fire
/// at 4x. Power records join the time records when a predictor is given.
void add_guard_text(Digest& d, const core::ProblemScalingPredictor& p,
                    const power::PowerPredictor* pw,
                    const std::vector<double>& sizes) {
  std::vector<double> queries = query_sizes(sizes);
  queries.push_back(16.0 * sizes.back());
  for (const double s : queries) {
    add_guard_strings(d, p.predict_guarded(s));
    if (pw != nullptr) add_guard_strings(d, pw->predict_guarded(s).record);
  }
}

/// Every counter-chain entry of one predictor: its fit-time quality
/// record (chosen kind, R^2, residual deviance, CV RMSE, chain), then each
/// model of its chain at the case's sizes and at 4x the largest size, with
/// the exit point's clamp flag. A fallback model is pinned here even where
/// no guarded query demotes to it.
std::string chain_digest(const core::CounterModels& cm,
                         const std::vector<double>& sizes) {
  Digest d;
  for (const core::CounterModelInfo& info : cm.info()) {
    d.str(info.counter).str(core::counter_model_name(info.chosen));
    d.num(info.r2).num(info.residual_deviance).num(info.cv_rmse);
    for (const core::CounterModelKind k : info.chain) {
      d.str(core::counter_model_name(k));
    }
    d.end_row();
  }
  std::vector<double> queries = sizes;
  queries.push_back(4.0 * sizes.back());
  for (std::size_t e = 0; e < cm.num_entries(); ++e) {
    d.str(cm.entry_counter(e));
    for (const core::CounterModelKind k : cm.entry_chain(e)) {
      d.str(core::counter_model_name(k));
      for (const double s : queries) {
        bool negative = false;
        d.num(cm.predict_kind(e, k, s, &negative)).count(negative ? 1 : 0);
      }
    }
    d.end_row();
  }
  return d.hex();
}

std::string power_digest(const power::PowerPredictor& pw,
                         const core::ProblemScalingPredictor& time,
                         const std::vector<double>& sizes) {
  Digest d;
  for (const double s : query_sizes(sizes)) {
    const power::PowerPrediction p =
        pw.predict_guarded(s, time.predict_guarded(s));
    d.num(p.power_w).num(p.energy_j);
    d.str(std::string(1, guard::grade_letter(p.energy_grade)));
    add_guarded(d, p.record);
  }
  return d.hex();
}

/// "workload arch item" -> digest rows for one case.
void compute_case(const Case& c, const std::filesystem::path& dir,
                  std::map<std::string, std::string>& out) {
  const gpusim::Device dev(gpusim::arch_by_name(c.arch));
  const ml::Dataset sweep = profiling::sweep(
      profiling::workload_by_name(c.workload), dev, c.sizes);
  core::ProblemScalingOptions pso;
  pso.model.forest.n_trees = 40;
  pso.arch = gpusim::arch_by_name(c.arch);
  const auto psp = core::ProblemScalingPredictor::build(sweep, pso);
  const core::BlackForestModel& model = psp.full_model();
  const std::string key = std::string(c.workload) + ' ' + c.arch + ' ';

  {
    Digest d;
    for (const double v : model.predict(model.test_data())) d.num(v);
    out[key + "flat"] = d.hex();
  }
  {
    Digest d;
    for (const ml::Dataset* rows : {&model.test_data(), &model.train_data()}) {
      const auto ivs =
          model.predict_intervals(rows->to_matrix(model.predictors()), 0.1);
      for (const auto& iv : ivs) d.num(iv.mean).num(iv.lo).num(iv.hi).end_row();
    }
    out[key + "interval"] = d.hex();
  }
  {
    Digest d;
    for (const auto& v : model.importance()) {
      d.str(v.name).num(v.pct_inc_mse).num(v.mean_inc_mse);
      d.num(v.inc_node_purity).end_row();
    }
    d.num(model.oob_mse()).num(model.pct_var_explained());
    out[key + "importance"] = d.hex();
  }
  {
    Digest pd;
    Digest pdi;
    for (const auto& name : model.top_variables(3)) {
      pd.str(name);
      for (const auto& pt : model.partial_dependence(name, 25)) {
        pd.num(pt.x).num(pt.y);
      }
      pd.end_row();
      pdi.str(name);
      for (const auto& pt : model.partial_dependence_interval(name, 25, 0.1)) {
        pdi.num(pt.x).num(pt.y.mean).num(pt.y.lo).num(pt.y.hi);
      }
      pdi.end_row();
    }
    out[key + "pd"] = pd.hex();
    out[key + "pd_interval"] = pdi.hex();
  }

  const std::string path =
      (dir / (std::string(c.workload) + '_' + c.arch + serve::kBundleSuffix))
          .string();
  out[key + "guarded_mem"] = guarded_digest(psp, c.sizes);
  std::optional<power::PowerPredictor> pw;
  if (c.power) {
    power::PowerPredictorOptions popts;
    popts.scaling.model.forest.n_trees = 40;
    popts.scaling.arch = gpusim::arch_by_name(c.arch);
    pw = power::PowerPredictor::build(sweep, popts);
  }
  serve::export_model(path, c.workload, c.workload, c.arch, sweep.num_rows(),
                      psp, 5, pw ? &*pw : nullptr);
  const serve::ModelBundle loaded = serve::load_bundle(path);
  ASSERT_EQ(loaded.power.has_value(), c.power);
  out[key + "guarded_bundle"] = guarded_digest(loaded.predictor, c.sizes);
  out[key + "chain_mem"] = chain_digest(psp.counter_models(), c.sizes);
  out[key + "chain_bundle"] =
      chain_digest(loaded.predictor.counter_models(), c.sizes);
  Digest text;
  add_guard_text(text, psp, pw ? &*pw : nullptr, c.sizes);
  add_guard_text(text, loaded.predictor,
                 loaded.power ? &*loaded.power : nullptr, c.sizes);
  out[key + "guarded_text"] = text.hex();
  if (!pw) return;
  out[key + "power_mem"] = power_digest(*pw, psp, c.sizes);
  out[key + "power_bundle"] =
      power_digest(*loaded.power, loaded.predictor, c.sizes);
  out[key + "power_chain_mem"] =
      chain_digest(pw->scaling().counter_models(), c.sizes);
  out[key + "power_chain_bundle"] =
      chain_digest(loaded.power->scaling().counter_models(), c.sizes);
}

TEST(GoldenPredictions, EveryCaseMatchesTable) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("bf_golden_pred_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::map<std::string, std::string> got;
  for (const Case& c : golden_cases()) compute_case(c, dir, got);
  std::filesystem::remove_all(dir);

  expect_golden_table(BF_GOLDEN_PREDICTIONS, {got.begin(), got.end()});
}

}  // namespace
}  // namespace bf
