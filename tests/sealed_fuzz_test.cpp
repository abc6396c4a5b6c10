// Seeded mutation fuzz of the two sealed file formats: .bfmodel bundles
// and run repository entries. Each case mutates the body of a real file,
// reseals it with bf::seal so that the body's own parser (not the
// checksum) must judge it, and loads it from disk. A load either succeeds
// or fails as bf::Error through the quarantine path; nothing else may be
// thrown, and nothing may crash or hang. Under the sanitizer builds
// (ctest -L tier1) this also checks every parse for memory errors.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <iterator>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/io.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "gpusim/arch.hpp"
#include "power/predictor.hpp"
#include "profiling/repository.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"
#include "serve/artifact.hpp"

namespace bf {
namespace {

constexpr int kCases = 2000;

const ml::Dataset& reduce1_sweep() {
  static const ml::Dataset sweep = [] {
    const gpusim::Device dev(gpusim::arch_by_name("gtx580"));
    return profiling::sweep(profiling::workload_by_name("reduce1"), dev,
                            profiling::log2_sizes(1 << 14, 1 << 21, 10, 256));
  }();
  return sweep;
}

/// One seeded mutation of `body`: a byte substitution, a truncation, a
/// deleted or inserted run of bytes, or a number replaced by a huge,
/// negative, nan or inf token.
std::string mutate(std::string body, Rng& rng) {
  static const char* const kTokens[] = {
      "1e308",      "-1e308", "18446744073709551616", "4294967296",
      "2147483648", "-1",     "-2147483649",          "nan",
      "-nan",       "inf",    "-inf",                 "0"};
  const std::size_t at = rng.uniform_index(body.size());
  switch (rng.uniform_index(5)) {
    case 0:
      body[at] = static_cast<char>(rng.uniform_index(256));
      break;
    case 1:
      body.resize(at);
      break;
    case 2:
      body.erase(at, 1 + rng.uniform_index(8));
      break;
    case 3:
      for (std::size_t n = 1 + rng.uniform_index(8); n > 0; --n) {
        body.insert(body.begin() + static_cast<std::ptrdiff_t>(at),
                    static_cast<char>(rng.uniform_index(256)));
      }
      break;
    default: {
      // The whole token around the first digit at or after `at`; tokens
      // are separated by spaces in bundles and by commas in CSV.
      constexpr std::string_view kSeparators = " ,\n";
      std::size_t start = body.find_first_of("0123456789", at);
      if (start == std::string::npos) break;
      while (start > 0 &&
             kSeparators.find(body[start - 1]) == std::string_view::npos) {
        --start;
      }
      // An end of npos replaces the rest of the body.
      const std::size_t end = body.find_first_of(kSeparators, start);
      body.replace(start, end - start,
                   kTokens[rng.uniform_index(std::size(kTokens))]);
      break;
    }
  }
  return body;
}

class SealedFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bf_sealed_fuzz_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    // Every rejected repository case warns; keep the log readable.
    level_ = logging::level();
    logging::set_level(LogLevel::kError);
  }
  void TearDown() override {
    logging::set_level(level_);
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  LogLevel level_ = LogLevel::kWarn;
};

TEST_F(SealedFuzz, MutatedBundlesLoadAndAnswerOrAreQuarantined) {
  core::ProblemScalingOptions pso;
  pso.model.forest.n_trees = 20;
  pso.arch = gpusim::arch_by_name("gtx580");
  const auto time = core::ProblemScalingPredictor::build(reduce1_sweep(), pso);
  power::PowerPredictorOptions po;
  po.scaling.model.forest.n_trees = 20;
  po.scaling.arch = pso.arch;
  const auto power = power::PowerPredictor::build(reduce1_sweep(), po);
  const std::string path = (dir_ / "fuzz.bfmodel").string();
  serve::export_model(path, "fuzz", "reduce1", "gtx580",
                      reduce1_sweep().num_rows(), time, 5, &power);
  // The body is everything between the version line and the footer.
  const std::string payload = unseal(*read_file(path)).payload;
  const std::size_t body_at = payload.find('\n') + 1;
  const std::string version_line = payload.substr(0, body_at);
  const std::string body = payload.substr(body_at);

  Rng rng(20261022);
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string content = seal(version_line + mutate(body, rng));
    atomic_write_file(path, content);
    try {
      const serve::ModelBundle bundle = serve::load_bundle(path);
      ++loaded;
      // A loaded bundle answers its recorded probes: each guarded query
      // returns or refuses the size as bf::Error, as the server's
      // predict path expects.
      for (const auto& probe : bundle.meta.probes) {
        try {
          const auto rec = bundle.predictor.predict_guarded(probe.size);
          if (bundle.power) bundle.power->predict_guarded(probe.size, rec);
        } catch (const Error&) {
        }
      }
    } catch (const Error&) {
      ++rejected;
      EXPECT_FALSE(std::filesystem::exists(path)) << "case " << i;
      EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"))
          << "case " << i;
      std::filesystem::remove(path + ".quarantined");
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " threw a non-bf::Error: " << e.what();
    }
  }
  EXPECT_EQ(loaded + rejected, kCases);
  // Both outcomes occur, so the mutations reach past the framing.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(SealedFuzz, MutatedRepositoryEntriesLoadQuarantineOrFailTheCheck) {
  const profiling::RunRepository repo(dir_.string());
  repo.save("reduce1", "gtx580", reduce1_sweep());
  const std::string path = (dir_ / "reduce1__gtx580.csv").string();
  const std::string body = unseal(*read_file(path)).payload;

  Rng rng(20261023);
  int loaded = 0;
  int quarantined = 0;
  int invalid = 0;
  for (int i = 0; i < kCases; ++i) {
    atomic_write_file(path, seal(mutate(body, rng)));
    try {
      if (repo.load("reduce1", "gtx580").has_value()) {
        ++loaded;
      } else {
        ++quarantined;
        EXPECT_FALSE(std::filesystem::exists(path)) << "case " << i;
        EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"))
            << "case " << i;
        std::filesystem::remove(path + ".quarantined");
      }
    } catch (const Error&) {
      // The entry parsed but breaks a counter invariant: it fails loudly
      // and stays where it is.
      ++invalid;
      EXPECT_TRUE(std::filesystem::exists(path)) << "case " << i;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << i << " threw a non-bf::Error: " << e.what();
    }
  }
  EXPECT_EQ(loaded + quarantined + invalid, kCases);
  EXPECT_GT(loaded, 0);
  EXPECT_GT(quarantined, 0);
}

}  // namespace
}  // namespace bf
