// End-to-end tests for bf::power — the power response riding the whole
// prediction stack: guarded envelope-clamped predictions on real sweeps,
// the energy bottleneck ranking, the optional artifact power record
// (round-trip bit-identity, rejection of older bundles) and power fields
// in serving replies.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/io.hpp"
#include "common/thread_pool.hpp"
#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "ml/dataset.hpp"
#include "power/analysis.hpp"
#include "power/predictor.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"
#include "serve/artifact.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace bf {
namespace {

ml::Dataset sweep_for(const std::string& workload, const std::string& arch,
                      double lo, double hi) {
  const gpusim::Device dev(gpusim::arch_by_name(arch));
  return profiling::sweep(profiling::workload_by_name(workload), dev,
                          profiling::log2_sizes(lo, hi, 10, 16));
}

power::PowerPredictorOptions small_power_options(const std::string& arch) {
  power::PowerPredictorOptions opts;
  opts.scaling.model.forest.n_trees = 40;
  opts.scaling.arch = gpusim::arch_by_name(arch);
  return opts;
}

core::ProblemScalingPredictor small_time_predictor(const ml::Dataset& sweep,
                                                   const std::string& arch) {
  core::ProblemScalingOptions pso;
  pso.model.forest.n_trees = 40;
  pso.arch = gpusim::arch_by_name(arch);
  return core::ProblemScalingPredictor::build(sweep, pso);
}

bool known_grade(guard::Grade g) {
  return g == guard::Grade::kA || g == guard::Grade::kB ||
         g == guard::Grade::kC;
}

TEST(PowerPredict, GuardedPredictionsStayInEnvelope) {
  // Two workload families x two generations: every guarded power
  // prediction lands inside the board envelope and carries a grade;
  // energy is power x time with the worse of the two grades.
  struct Case {
    const char* workload;
    double lo, hi, query;
  };
  const std::vector<Case> cases = {{"reduce1", 16384, 1 << 20, 262144},
                                   {"matrixMul", 64, 512, 192}};
  for (const char* arch : {"gtx580", "k20m"}) {
    const gpusim::ArchSpec spec = gpusim::arch_by_name(arch);
    for (const auto& c : cases) {
      const ml::Dataset sweep = sweep_for(c.workload, arch, c.lo, c.hi);
      ASSERT_TRUE(sweep.has_column(profiling::kPowerColumn))
          << c.workload << " on " << arch;
      const auto predictor =
          power::PowerPredictor::build(sweep, small_power_options(arch));

      const auto p = predictor.predict_guarded(c.query);
      EXPECT_GE(p.power_w, spec.idle_w - 1e-9) << c.workload << "/" << arch;
      EXPECT_LE(p.power_w, spec.tdp_w + 1e-9) << c.workload << "/" << arch;
      EXPECT_TRUE(known_grade(p.record.grade));
      EXPECT_DOUBLE_EQ(p.energy_j, 0.0);  // no time supplied

      const auto time_model = small_time_predictor(sweep, arch);
      const auto t = time_model.predict_guarded(c.query);
      const auto pe = predictor.predict_guarded(c.query, t);
      EXPECT_DOUBLE_EQ(pe.power_w, p.power_w);
      EXPECT_DOUBLE_EQ(pe.energy_j, pe.power_w * t.value * 1e-3);
      EXPECT_EQ(pe.energy_grade,
                power::worse_grade(pe.record.grade, t.grade));
    }
  }
}

TEST(PowerPredict, EnergyBottleneckReportIsPopulated) {
  const ml::Dataset sweep = sweep_for("reduce1", "gtx580", 16384, 1 << 20);
  power::EnergyAnalysisOptions opts;
  opts.model.forest.n_trees = 40;
  const core::BottleneckReport report =
      power::analyze_energy_bottlenecks(sweep, "reduce1", "gtx580", opts);
  EXPECT_EQ(report.workload, "reduce1");
  EXPECT_FALSE(report.findings.empty());
  EXPECT_FALSE(report.ranked_patterns.empty());
  // The forest must actually explain power variance, not rank noise.
  EXPECT_GT(report.pct_var_explained, 20.0);
}

TEST(PowerPredict, WorseGradeIsCommutativeMax) {
  using guard::Grade;
  EXPECT_EQ(power::worse_grade(Grade::kA, Grade::kA), Grade::kA);
  EXPECT_EQ(power::worse_grade(Grade::kA, Grade::kB), Grade::kB);
  EXPECT_EQ(power::worse_grade(Grade::kC, Grade::kA), Grade::kC);
  EXPECT_EQ(power::worse_grade(Grade::kB, Grade::kC), Grade::kC);
}

class PowerArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bf_power_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string bundle_path(const std::string& name) const {
    return (dir_ / (name + serve::kBundleSuffix)).string();
  }

  std::filesystem::path dir_;
};

// Shared trained models (training dominates this binary's runtime).
const ml::Dataset& shared_sweep() {
  static const ml::Dataset ds = sweep_for("reduce1", "gtx580", 16384, 1 << 20);
  return ds;
}

const core::ProblemScalingPredictor& shared_time() {
  static const core::ProblemScalingPredictor p =
      small_time_predictor(shared_sweep(), "gtx580");
  return p;
}

const power::PowerPredictor& shared_power() {
  static const power::PowerPredictor p =
      power::PowerPredictor::build(shared_sweep(), small_power_options("gtx580"));
  return p;
}

TEST_F(PowerArtifactTest, PoweredRoundTripIsBitIdentical) {
  serve::export_model(bundle_path("pw"), "pw", "reduce1", "gtx580",
                      shared_sweep().num_rows(), shared_time(), 5,
                      &shared_power());
  const auto content = read_file(bundle_path("pw"));
  ASSERT_TRUE(content.has_value());

  const serve::ModelBundle loaded =
      serve::bundle_from_string(*content, "test");
  ASSERT_TRUE(loaded.power.has_value());
  // Re-serialising the parsed bundle reproduces the file byte for byte.
  EXPECT_EQ(serve::bundle_to_string(loaded), *content);

  // Both responses predict bit-identically through the round trip,
  // including extrapolated queries.
  for (const double size : {20000.0, 65536.0, 262144.0, 4194304.0}) {
    EXPECT_EQ(shared_time().predict_guarded(size).value,
              loaded.predictor.predict_guarded(size).value);
    const auto a = shared_power().predict_guarded(size);
    const auto b = loaded.power->predict_guarded(size);
    EXPECT_EQ(a.power_w, b.power_w);
    EXPECT_EQ(a.record.grade, b.record.grade);
    EXPECT_EQ(a.record.lo, b.record.lo);
    EXPECT_EQ(a.record.hi, b.record.hi);
  }
}

TEST_F(PowerArtifactTest, PreviousBundleVersionIsRejected) {
  // A bundle whose version line is rewritten to the previous version
  // (records and footer intact) must not load: every bundle record is
  // readable in exactly one version, and older bundles are re-exported.
  serve::export_model(bundle_path("plain"), "plain", "reduce1", "gtx580",
                      shared_sweep().num_rows(), shared_time());
  auto content = read_file(bundle_path("plain"));
  ASSERT_TRUE(content.has_value());
  ASSERT_EQ(content->rfind("bfmodel 8\n", 0), 0u);
  // Powerless bundles state the absence of the power record explicitly.
  EXPECT_NE(content->find("\npower 0\n"), std::string::npos);

  std::string old = *content;
  old.replace(0, std::string("bfmodel 8").size(), "bfmodel 7");
  try {
    serve::bundle_from_string(old, "test");
    ADD_FAILURE() << "bfmodel 7 bundle loaded";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format_version 7"), std::string::npos) << what;
    EXPECT_NE(what.find("bfmodel 8"), std::string::npos) << what;
  }
}

TEST_F(PowerArtifactTest, ServeRepliesCarryPowerFields) {
  serve::export_model(bundle_path("pw"), "pw", "reduce1", "gtx580",
                      shared_sweep().num_rows(), shared_time(), 5,
                      &shared_power());
  serve::export_model(bundle_path("plain"), "plain", "reduce1", "gtx580",
                      shared_sweep().num_rows(), shared_time());

  serve::ServerOptions options;
  options.model_dir = dir_.string();
  serve::Server server(options);

  const std::string with_power =
      server.handle_line(R"({"model":"pw","size":65536})");
  const auto reply = serve::parse_json(with_power);
  ASSERT_NE(reply.find("power_w"), nullptr) << with_power;
  ASSERT_NE(reply.find("energy_j"), nullptr) << with_power;
  ASSERT_NE(reply.find("power_grade"), nullptr) << with_power;
  const gpusim::ArchSpec spec = gpusim::arch_by_name("gtx580");
  EXPECT_GE(reply.find("power_w")->number, spec.idle_w - 1e-9);
  EXPECT_LE(reply.find("power_w")->number, spec.tdp_w + 1e-9);
  // energy = power x predicted time, straight from the reply's own rows.
  EXPECT_DOUBLE_EQ(
      reply.find("energy_j")->number,
      reply.find("power_w")->number * reply.find("predicted_ms")->number *
          1e-3);

  const std::string plain =
      server.handle_line(R"({"model":"plain","size":65536})");
  EXPECT_EQ(plain.find("power_w"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("energy_j"), std::string::npos) << plain;

  // The stats verb advertises which bundles carry the power record.
  const auto stats = serve::parse_json(server.handle_line(R"({"cmd":"stats"})"));
  const serve::JsonValue* models = stats.find("models");
  ASSERT_NE(models, nullptr);
  bool saw_pw = false, saw_plain = false;
  for (const auto& m : models->array) {
    if (m.find("name")->str == "pw") {
      saw_pw = true;
      EXPECT_TRUE(m.find("power")->boolean);
    }
    if (m.find("name")->str == "plain") {
      saw_plain = true;
      EXPECT_FALSE(m.find("power")->boolean);
    }
  }
  EXPECT_TRUE(saw_pw);
  EXPECT_TRUE(saw_plain);
}

TEST(PowerPredict, GuardedQueriesRejectSizesThatAreNotFinitePositive) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -5.0, 0.0}) {
    EXPECT_THROW((void)shared_power().predict_guarded(bad), Error) << bad;
    EXPECT_THROW((void)shared_power().predict_guarded(
                     bad, shared_time().predict_guarded(65536.0)),
                 Error)
        << bad;
  }
}

/// The IEEE bits of every double and the text of every string a guarded
/// prediction carries.
std::string record_bits(const guard::PredictionGuardRecord& rec) {
  std::string out;
  for (const double v : {rec.size, rec.value, rec.raw_value, rec.lo, rec.hi,
                         rec.interval_width}) {
    out += to_hex64(std::bit_cast<std::uint64_t>(v)) + ' ';
  }
  out += guard::grade_letter(rec.grade);
  for (const auto& f : rec.flags) {
    out += ' ' + f.feature + ' ' +
           to_hex64(std::bit_cast<std::uint64_t>(f.distance));
  }
  for (const auto& line : rec.demotions) out += '|' + line;
  for (const auto& line : rec.clamps) out += '|' + line;
  return out;
}

TEST_F(PowerArtifactTest, PoolQueriesOnOneBundleMatchSerialBits) {
  // bf_serve answers a batch from one loaded bundle on the shared pool
  // (Server::handle_batch). The query plan a load resolves is read-only
  // from then on, so concurrent queries must give the serial bits. 200
  // trees put the interval band on its sampled selection; 16x the
  // largest size fires clamps.
  core::ProblemScalingOptions pso;
  pso.model.forest.n_trees = 200;
  pso.arch = gpusim::gtx580();
  power::PowerPredictorOptions popts = small_power_options("gtx580");
  popts.scaling.model.forest.n_trees = 200;
  const auto time = core::ProblemScalingPredictor::build(shared_sweep(), pso);
  const auto pw = power::PowerPredictor::build(shared_sweep(), popts);
  serve::export_model(bundle_path("pool"), "pool", "reduce1", "gtx580",
                      shared_sweep().num_rows(), time, 5, &pw);
  const serve::ModelBundle bundle = serve::load_bundle(bundle_path("pool"));
  ASSERT_TRUE(bundle.power.has_value());

  const std::vector<double> sizes = {16384.0,  20000.0,  65536.0,
                                     300000.0, 1048576.0, 16777216.0};
  const auto answer = [&](double size) {
    const auto rec = bundle.predictor.predict_guarded(size);
    const auto power = bundle.power->predict_guarded(size, rec);
    return record_bits(rec) + " / " +
           to_hex64(std::bit_cast<std::uint64_t>(power.power_w)) + ' ' +
           to_hex64(std::bit_cast<std::uint64_t>(power.energy_j)) + ' ' +
           guard::grade_letter(power.energy_grade) + ' ' +
           record_bits(power.record);
  };
  std::vector<std::string> serial;
  for (const double size : sizes) serial.push_back(answer(size));
  bool clamped = false;
  for (const double size : sizes) {
    clamped |= !bundle.predictor.predict_guarded(size).clamps.empty();
  }
  EXPECT_TRUE(clamped);

  constexpr std::size_t kQueries = 240;
  std::vector<std::string> pooled(kQueries);
  ThreadPool::global().parallel_for(0, kQueries, [&](std::size_t i) {
    pooled[i] = answer(sizes[i % sizes.size()]);
  });
  for (std::size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(pooled[i], serial[i % sizes.size()]) << "query " << i;
  }
}

TEST_F(PowerArtifactTest, AnnotateSeriesFillsPowerRows) {
  core::PredictionSeries series;
  for (const double size : {32768.0, 131072.0, 524288.0}) {
    const auto rec = shared_time().predict_guarded(size);
    series.sizes.push_back(size);
    series.predicted_ms.push_back(rec.value);
    series.guard.predictions.push_back(rec);
  }
  power::annotate_series(series, shared_power());
  ASSERT_EQ(series.power_w.size(), series.sizes.size());
  ASSERT_EQ(series.energy_j.size(), series.sizes.size());
  ASSERT_EQ(series.power_guard.size(), series.sizes.size());
  for (std::size_t i = 0; i < series.sizes.size(); ++i) {
    EXPECT_GT(series.power_w[i], 0.0);
    EXPECT_DOUBLE_EQ(series.energy_j[i],
                     series.power_w[i] * series.predicted_ms[i] * 1e-3);
  }
}

}  // namespace
}  // namespace bf
