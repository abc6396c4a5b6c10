// The serving layer: .bfmodel artifact bundles (round-trip bit
// identity, corruption quarantine), the LRU + single-flight model
// registry, and the NDJSON request broker.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "common/string_util.hpp"
#include "gpusim/arch.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"
#include "serve/artifact.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace bf {
namespace {

const ml::Dataset& reduce1_sweep() {
  static const ml::Dataset sweep = [] {
    const gpusim::Device dev(gpusim::arch_by_name("gtx580"));
    return profiling::sweep(profiling::workload_by_name("reduce1"), dev,
                            profiling::log2_sizes(1 << 14, 1 << 22, 12, 256));
  }();
  return sweep;
}

// One small trained predictor shared by every test in this binary: the
// serving layer only reads it, and training dominates the runtime.
const core::ProblemScalingPredictor& trained_predictor() {
  static const core::ProblemScalingPredictor p = [] {
    core::ProblemScalingOptions pso;
    pso.model.forest.n_trees = 60;
    pso.arch = gpusim::arch_by_name("gtx580");
    return core::ProblemScalingPredictor::build(reduce1_sweep(), pso);
  }();
  return p;
}

// The power predictor of the same sweep, for bundles carrying every
// record kind of the format.
const power::PowerPredictor& trained_power() {
  static const power::PowerPredictor p = [] {
    power::PowerPredictorOptions opts;
    opts.scaling.model.forest.n_trees = 60;
    opts.scaling.arch = gpusim::arch_by_name("gtx580");
    return power::PowerPredictor::build(reduce1_sweep(), opts);
  }();
  return p;
}

/// Split an exported bundle into its three-line outer header and the
/// payload the header's byte count and checksum cover.
std::pair<std::string, std::string> split_bundle(const std::string& content) {
  std::size_t end = 0;
  for (int line = 0; line < 3; ++line) end = content.find('\n', end) + 1;
  return {content.substr(0, end), content.substr(end)};
}

/// Reassemble a bundle around an edited payload, with the outer byte
/// count and checksum recomputed so that only the edit can reject it.
std::string reseal_bundle(const std::string& payload) {
  return "bfmodel " + std::to_string(serve::kBundleFormatVersion) +
         "\nbytes " + std::to_string(payload.size()) +
         "\nchecksum fnv1a64 " + to_hex64(fnv1a64(payload)) + "\n" + payload;
}

/// Two guarded predictions give the same answer: value, interval, grade.
bool same_answer(const guard::PredictionGuardRecord& a,
                 const guard::PredictionGuardRecord& b) {
  return a.value == b.value && a.lo == b.lo && a.hi == b.hi &&
         a.grade == b.grade;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bf_serve_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string bundle_path(const std::string& name) const {
    return (dir_ / (name + serve::kBundleSuffix)).string();
  }

  // Push a bundle's mtime forward a whole second. Staleness detection
  // compares stat snapshots, and a rewrite landing in the same kernel
  // timestamp granule as the original (easy at test speed, impossible at
  // deployment speed) would otherwise be invisible to the watcher.
  void touch_future(const std::string& name) const {
    const auto path = std::filesystem::path(bundle_path(name));
    std::filesystem::last_write_time(
        path, std::filesystem::last_write_time(path) + std::chrono::seconds(1));
  }

  void export_named(const std::string& name) const {
    serve::export_model(bundle_path(name), name, "reduce1", "gtx580", 12,
                        trained_predictor());
  }

  std::string export_powered(const std::string& name) const {
    serve::export_model(bundle_path(name), name, "reduce1", "gtx580", 12,
                        trained_predictor(), 5, &trained_power());
    return *read_file(bundle_path(name));
  }

  std::filesystem::path dir_;
};

// ---- artifact bundles ----

TEST_F(ServeTest, BundleRoundTripIsBitIdentical) {
  export_named("reduce1");
  const serve::ModelBundle loaded = serve::load_bundle(bundle_path("reduce1"));

  const auto& original = trained_predictor();
  // In-hull, boundary and extrapolated queries: the reloaded predictor
  // must reproduce value, interval and grade bit for bit.
  for (const double size : {20000.0, 65536.0, 262144.0, 4194304.0,
                            16777216.0}) {
    const auto a = original.predict_guarded(size);
    const auto b = loaded.predictor.predict_guarded(size);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.raw_value, b.raw_value);
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
    EXPECT_EQ(a.grade, b.grade);
    EXPECT_EQ(a.extrapolated, b.extrapolated);
    EXPECT_EQ(a.demotions, b.demotions);
    EXPECT_EQ(a.clamps, b.clamps);
  }
}

TEST_F(ServeTest, BundleMetaSurvivesRoundTrip) {
  export_named("reduce1");
  const serve::ModelBundle loaded = serve::load_bundle(bundle_path("reduce1"));
  EXPECT_EQ(loaded.meta.name, "reduce1");
  EXPECT_EQ(loaded.meta.workload, "reduce1");
  EXPECT_EQ(loaded.meta.arch, "gtx580");
  EXPECT_EQ(loaded.meta.trained_rows, 12u);
  // Provenance carries the build identity of the exporter.
  EXPECT_NE(loaded.meta.provenance.find("blackforest"), std::string::npos);
  EXPECT_EQ(loaded.meta.schema, trained_predictor().retained());
}

TEST_F(ServeTest, CorruptBundleIsQuarantined) {
  export_named("reduce1");
  const std::string path = bundle_path("reduce1");
  // Flip one payload byte on disk — the checksum must catch it.
  std::string content = *read_file(path);
  content[content.size() - 10] ^= 0x04;
  std::ofstream(path, std::ios::binary) << content;

  EXPECT_THROW(serve::load_bundle(path), Error);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
}

/// The current bundle with its outer header rewritten to `version`
/// (payload and checksum intact).
std::string with_header_version(const std::string& content, int version) {
  const std::string current =
      "bfmodel " + std::to_string(serve::kBundleFormatVersion) + "\n";
  EXPECT_EQ(content.rfind(current, 0), 0u);
  return "bfmodel " + std::to_string(version) + "\n" +
         content.substr(current.size());
}

TEST_F(ServeTest, BadMagicAndOtherVersionsAreRejected) {
  EXPECT_THROW(serve::bundle_from_string("bogus 1\n", "t"), Error);
  // A valid header and checksum over an empty payload.
  EXPECT_THROW(serve::bundle_from_string(
                   "bfmodel " + std::to_string(serve::kBundleFormatVersion) +
                       "\nbytes 0\nchecksum fnv1a64 cbf29ce484222325\n",
                   "t"),
               Error);
  EXPECT_THROW(serve::bundle_from_string("", "t"), Error);
  export_named("reduce1");
  const std::string content = *read_file(bundle_path("reduce1"));
  EXPECT_NO_THROW(serve::bundle_from_string(content, "t"));
  // Every past vintage and a future one: exactly one version is read.
  for (const int version : {1, 2, 3, 4, 5, serve::kBundleFormatVersion + 1}) {
    EXPECT_THROW(
        serve::bundle_from_string(with_header_version(content, version), "t"),
        Error)
        << "bfmodel " << version;
  }
}

TEST_F(ServeTest, PreviousRecordVersionsAreRejected) {
  // The records nested in a bundle payload read exactly one version too:
  // a bf_psp 2 stream must not parse.
  std::stringstream ss;
  trained_predictor().save(ss);
  std::string previous = ss.str();
  ASSERT_EQ(previous.rfind("bf_psp 3\nresponse time_ms\n", 0), 0u);
  previous.replace(0, std::string("bf_psp 3").size(), "bf_psp 2");
  std::stringstream v2(previous);
  try {
    core::ProblemScalingPredictor::load(v2);
    ADD_FAILURE() << "bf_psp 2 stream loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bf_psp format_version 2"),
              std::string::npos)
        << e.what();
  }

  // Every record kind of a powered bundle, bumped one version ahead in
  // turn, must be refused by its own header check: the message names the
  // magic and the version. A reader that skipped the check would fail
  // later with a parse error instead.
  const std::string content = export_powered("powered");
  ASSERT_NO_THROW(serve::bundle_from_string(content, "t"));
  // Header lines match ^(bf_\w+|bfmodel) \d+$.
  const auto is_word = [](const std::string& s) {
    return std::all_of(s.begin(), s.end(), [](unsigned char c) {
      return std::isalnum(c) != 0 || c == '_';
    });
  };
  const auto is_number = [](const std::string& s) {
    return !s.empty() && std::all_of(s.begin(), s.end(), [](unsigned char c) {
      return std::isdigit(c) != 0;
    });
  };
  std::map<std::string, std::pair<std::size_t, int>> first;  // offset, version
  for (std::size_t at = 0; at < content.size();) {
    const std::size_t end = std::min(content.find('\n', at), content.size());
    const std::string line = content.substr(at, end - at);
    const std::size_t space = line.find(' ');
    const std::string magic = line.substr(0, space);
    const std::string version =
        space == std::string::npos ? "" : line.substr(space + 1);
    if ((magic == "bfmodel" || (magic.rfind("bf_", 0) == 0 &&
                                magic.size() > 3 && is_word(magic))) &&
        is_number(version)) {
      first.emplace(magic,
                    std::make_pair(at, static_cast<int>(parse_int(version))));
    }
    at = end + 1;
  }
  const std::vector<std::string> magics = {
      "bfmodel", "bf_bundle_meta", "bf_psp", "bf_hull", "bf_counter_models",
      "bf_glm", "bf_mars", "bf_model", "bf_flat_forest", "bf_power"};
  ASSERT_EQ(first.size(), magics.size());
  for (const auto& magic : magics) ASSERT_EQ(first.count(magic), 1u) << magic;

  const auto [outer, payload] = split_bundle(content);
  for (const auto& [magic, found] : first) {
    const auto [offset, version] = found;
    std::string bumped;
    if (magic == "bfmodel") {
      bumped = with_header_version(content, version + 1);
    } else {
      const std::string from = magic + " " + std::to_string(version);
      std::string edited = payload;
      edited.replace(offset - outer.size(), from.size(),
                     magic + " " + std::to_string(version + 1));
      bumped = reseal_bundle(edited);
    }
    const std::string want = magic + " format_version " +
                             std::to_string(version + 1) + " is unsupported";
    try {
      serve::bundle_from_string(bumped, "t");
      ADD_FAILURE() << magic << " " << version + 1 << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ServeTest, ForgedSizeHeadersFailBeforeAllocating) {
  // A count in a header must not size an allocation before the content
  // behind it is known to exist: each forged edit throws bf::Error (not
  // std::bad_alloc) and takes the corrupt-bundle path into quarantine.
  const std::string payload = split_bundle(export_powered("source")).second;
  // Rewrite the count after the first "<tag> " line start of the payload.
  const auto forge_count = [&](const std::string& tag,
                               const std::string& count) {
    const std::size_t at = payload.find("\n" + tag + " ");
    EXPECT_NE(at, std::string::npos) << tag;
    const std::size_t from = at + tag.size() + 2;
    std::string edited = payload;
    edited.replace(from, payload.find_first_of(" \n", from) - from, count);
    return reseal_bundle(edited);
  };
  struct Case {
    const char* name;
    std::string content;
  };
  const std::vector<Case> cases = {
      {"bytes", "bfmodel " + std::to_string(serve::kBundleFormatVersion) +
                    "\nbytes 999999999999999\nchecksum fnv1a64 "
                    "0123456789abcdef\nxx"},
      {"nodes", forge_count("nodes", "2000000000")},
      {"envelope", forge_count("envelope", "2000000000")},
  };
  serve::ModelRegistry registry(dir_.string());
  for (const auto& c : cases) {
    EXPECT_THROW(serve::bundle_from_string(c.content, "t"), Error) << c.name;
    const std::string path = bundle_path(c.name);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << c.content;
    EXPECT_THROW(registry.get(c.name), Error) << c.name;
    EXPECT_FALSE(std::filesystem::exists(path)) << c.name;
    EXPECT_TRUE(std::filesystem::exists(path + ".quarantined")) << c.name;
  }
}

TEST_F(ServeTest, RegistryQuarantinesPreviousVersionBundle) {
  // What an operator sees when a bundle from an older build is dropped
  // into the model directory: the request is answered with
  // model_unavailable naming both versions, and the file takes the
  // corrupt-bundle path into quarantine.
  export_named("old");
  const std::string path = bundle_path("old");
  const std::string old = with_header_version(*read_file(path), 5);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << old;
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  serve::Server server(options);
  const auto reply =
      serve::parse_json(server.handle_line(R"({"model":"old","size":64})"));
  EXPECT_FALSE(reply.find("ok")->boolean);
  EXPECT_EQ(reply.find("code")->str, "model_unavailable");
  const std::string error = reply.find("error")->str;
  EXPECT_NE(error.find("format_version 5"), std::string::npos) << error;
  EXPECT_NE(error.find("bfmodel 6"), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
}

TEST_F(ServeTest, TruncatedBundleIsRejected) {
  export_named("reduce1");
  const std::string content = *read_file(bundle_path("reduce1"));
  const std::string truncated = content.substr(0, content.size() / 2);
  EXPECT_THROW(serve::bundle_from_string(truncated, "t"), Error);
}

TEST_F(ServeTest, MissingBundleIsNotQuarantined) {
  const std::string path = bundle_path("ghost");
  EXPECT_THROW(serve::load_bundle(path), Error);
  EXPECT_FALSE(std::filesystem::exists(path + ".quarantined"));
}

// ---- model registry ----

TEST_F(ServeTest, RegistryHitsMissesAndEviction) {
  export_named("a");
  export_named("b");
  export_named("c");
  serve::ModelRegistry registry(dir_.string(), 2);

  const auto a1 = registry.get("a");
  const auto a2 = registry.get("a");
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(a1.get(), a2.get());  // resident: same object, no reload
  registry.get("b");
  EXPECT_EQ(registry.stats().loads, 2u);
  EXPECT_EQ(registry.stats().evictions, 0u);

  // Capacity 2: loading "c" evicts the least recently used ("a").
  registry.get("c");
  EXPECT_EQ(registry.stats().evictions, 1u);
  const auto resident = registry.resident();
  EXPECT_EQ(resident, (std::vector<std::string>{"b", "c"}));

  // An evicted bundle reloads from disk; the old shared_ptr stays valid.
  registry.get("a");
  EXPECT_EQ(registry.stats().loads, 4u);
  EXPECT_EQ(a1->bundle.meta.name, "a");
}

TEST_F(ServeTest, RegistryLRUSingleFlight) {
  export_named("a");
  export_named("b");
  serve::ModelRegistry registry(dir_.string(), 2);

  // N threads hammer two resident-capacity bundles concurrently: the
  // single-flight path must perform exactly one disk load per bundle,
  // every get must succeed, and every thread must see the same objects.
  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &failures, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string name = ((t + i) % 2 == 0) ? "a" : "b";
        try {
          const auto bundle = registry.get(name);
          if (bundle == nullptr || bundle->bundle.meta.name != name) {
            ++failures;
          }
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  const auto stats = registry.stats();
  EXPECT_EQ(stats.loads, 2u);  // exactly one load per resident bundle
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kIters));
}

TEST_F(ServeTest, RegistryFailedLoadRetriesCleanly) {
  export_named("a");
  // Zero backoff: the retry straight after the failure must not be
  // fast-failed by the load-retry window.
  serve::ReloadPolicy policy;
  policy.backoff_initial_ms = 0;
  serve::ModelRegistry registry(dir_.string(), 2, policy);

  {
    fault::ScopedFaults faults("serve.cache.load_fail:1.0:1");
    EXPECT_THROW(registry.get("a"), Error);
  }
  // The failed entry was removed: the cache is consistent and the next
  // request retries the disk load and succeeds.
  EXPECT_TRUE(registry.resident().empty());
  EXPECT_EQ(registry.stats().failures, 1u);
  const auto bundle = registry.get("a");
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ(bundle->bundle.meta.name, "a");
  EXPECT_EQ(registry.stats().loads, 2u);
}

// ---- hot reload, canary validation and rollback ----

TEST_F(ServeTest, ExportedBundleCarriesGoldenProbes) {
  export_named("a");
  const serve::BundleFile file = serve::load_bundle_file(bundle_path("a"));
  ASSERT_EQ(file.bundle.meta.probes.size(), 5u);
  for (const auto& probe : file.bundle.meta.probes) {
    EXPECT_GT(probe.size, 0.0);
    EXPECT_EQ(probe.predicted_ms,
              trained_predictor().predict_guarded(probe.size).value);
  }
  // The recorded probes validate bit-for-bit against the reloaded
  // predictor — the canary gate is exact-match on a healthy bundle.
  std::string why;
  EXPECT_TRUE(serve::validate_canary(file.bundle, 1e-9, &why)) << why;
}

TEST_F(ServeTest, ReloadPromotesNewGeneration) {
  export_named("a");
  serve::ModelRegistry registry(dir_.string(), 2);

  const auto gen1 = registry.get("a");
  ASSERT_NE(gen1, nullptr);
  EXPECT_EQ(gen1->generation, 1u);

  // Same bytes on disk: reload detects the identical checksum and keeps
  // the resident generation.
  const auto unchanged = registry.reload("a");
  EXPECT_EQ(unchanged.status, serve::ReloadResult::Status::kUnchanged);
  EXPECT_EQ(unchanged.generation, 1u);

  // A genuinely different bundle (distinct provenance → distinct
  // checksum) promotes atomically to generation 2.
  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 13,
                      trained_predictor());
  const auto promoted = registry.reload("a");
  EXPECT_EQ(promoted.status, serve::ReloadResult::Status::kPromoted)
      << promoted.error;
  EXPECT_EQ(promoted.generation, 2u);

  const auto gen2 = registry.get("a");
  ASSERT_NE(gen2, nullptr);
  EXPECT_EQ(gen2->generation, 2u);
  EXPECT_NE(gen2->checksum, gen1->checksum);
  // The pre-reload pin still answers from its own, untouched generation.
  EXPECT_EQ(gen1->generation, 1u);
  EXPECT_TRUE(same_answer(gen1->bundle.predictor.predict_guarded(65536),
                          gen2->bundle.predictor.predict_guarded(65536)));

  const auto stats = registry.stats();
  EXPECT_EQ(stats.reloads, 2u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
}

TEST_F(ServeTest, FailedReloadRollsBackAndQuarantines) {
  export_named("a");
  serve::ReloadPolicy policy;
  policy.backoff_initial_ms = 0;
  serve::ModelRegistry registry(dir_.string(), 2, policy);
  const auto gen1 = registry.get("a");
  ASSERT_NE(gen1, nullptr);

  // Re-export (new checksum), then corrupt the staged file on disk: the
  // reload must keep serving generation 1 and quarantine the file.
  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 13,
                      trained_predictor());
  {
    std::string content = *read_file(bundle_path("a"));
    content[content.size() - 10] ^= 0x04;
    std::ofstream(bundle_path("a"), std::ios::binary) << content;
  }
  const auto result = registry.reload("a");
  EXPECT_EQ(result.status, serve::ReloadResult::Status::kRolledBack);
  EXPECT_EQ(result.generation, 1u);
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(std::filesystem::exists(bundle_path("a") + ".quarantined"));

  // The resident model is untouched and still serves.
  const auto still = registry.get("a");
  ASSERT_NE(still, nullptr);
  EXPECT_EQ(still.get(), gen1.get());
  EXPECT_EQ(registry.stats().rollbacks, 1u);

  const auto models = registry.models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].rollbacks, 1u);
  EXPECT_EQ(models[0].generation, 1u);
}

TEST_F(ServeTest, CanaryFailureRollsBackReload) {
  export_named("a");
  serve::ReloadPolicy policy;
  policy.backoff_initial_ms = 0;
  serve::ModelRegistry registry(dir_.string(), 2, policy);
  const auto gen1 = registry.get("a");
  ASSERT_NE(gen1, nullptr);

  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 13,
                      trained_predictor());
  {
    fault::ScopedFaults faults("serve.reload.canary_fail:1.0:1");
    const auto result = registry.reload("a");
    EXPECT_EQ(result.status, serve::ReloadResult::Status::kRolledBack);
    EXPECT_NE(result.error.find("canary"), std::string::npos);
  }
  EXPECT_TRUE(std::filesystem::exists(bundle_path("a") + ".quarantined"));
  EXPECT_EQ(registry.get("a").get(), gen1.get());
  EXPECT_EQ(registry.stats().rollbacks, 1u);

  // The quarantine consumed the bad file; a fresh export then reloads
  // cleanly and promotes.
  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 14,
                      trained_predictor());
  const auto result = registry.reload("a");
  EXPECT_EQ(result.status, serve::ReloadResult::Status::kPromoted)
      << result.error;
  EXPECT_EQ(result.generation, 2u);
}

TEST_F(ServeTest, FailedReloadBacksOffThenRecovers) {
  export_named("a");
  serve::ReloadPolicy policy;
  policy.backoff_initial_ms = 20;
  policy.backoff_max_ms = 40;
  serve::ModelRegistry registry(dir_.string(), 2, policy);
  ASSERT_NE(registry.get("a"), nullptr);

  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 13,
                      trained_predictor());
  {
    fault::ScopedFaults faults("serve.reload.canary_fail:1.0:1");
    EXPECT_EQ(registry.reload("a").status,
              serve::ReloadResult::Status::kRolledBack);
  }
  // Inside the backoff window the staleness poll declines to retry …
  EXPECT_EQ(registry.check_stale("a").status,
            serve::ReloadResult::Status::kBackoff);
  // … and once it expires the next poll retries. The canary-failed file
  // was quarantined, so re-export first.
  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 14,
                      trained_predictor());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto result = registry.check_stale("a");
  EXPECT_EQ(result.status, serve::ReloadResult::Status::kPromoted)
      << result.error;
}

TEST_F(ServeTest, StalenessWatchPromotesChangedBundles) {
  export_named("a");
  export_named("b");
  serve::ModelRegistry registry(dir_.string(), 4);
  ASSERT_NE(registry.get("a"), nullptr);
  ASSERT_NE(registry.get("b"), nullptr);

  // Nothing changed: the poll reports no events.
  EXPECT_TRUE(registry.poll_stale().empty());

  // Rewrite "a" with new content; the poll notices the stat change,
  // re-checksums and promotes only that model.
  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 13,
                      trained_predictor());
  touch_future("a");
  const auto events = registry.poll_stale();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, "a");
  EXPECT_EQ(events[0].second.status, serve::ReloadResult::Status::kPromoted)
      << events[0].second.error;
  const auto a = registry.get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->generation, 2u);
  const auto b = registry.get("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->generation, 1u);
}

TEST_F(ServeTest, PinnedModelResistsReloadAndEviction) {
  export_named("a");
  export_named("b");
  export_named("c");
  serve::ModelRegistry registry(dir_.string(), 2);
  ASSERT_NE(registry.get("a"), nullptr);
  EXPECT_TRUE(registry.pin("a"));

  // Pinned models are exempt from reload and staleness promotion.
  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 13,
                      trained_predictor());
  EXPECT_EQ(registry.reload("a").status,
            serve::ReloadResult::Status::kPinned);
  EXPECT_EQ(registry.check_stale("a").status,
            serve::ReloadResult::Status::kPinned);

  // Capacity pressure evicts around the pin, never through it.
  registry.get("b");
  registry.get("c");
  const auto resident = registry.resident();
  EXPECT_NE(std::find(resident.begin(), resident.end(), "a"),
            resident.end());

  // Unpinning restores normal lifecycle: the stale bundle now promotes.
  EXPECT_TRUE(registry.unpin("a"));
  EXPECT_EQ(registry.reload("a").status,
            serve::ReloadResult::Status::kPromoted);
  EXPECT_FALSE(registry.pin("ghost"));  // never-seen names don't pin
}

TEST_F(ServeTest, ReloadOfNonResidentModelIsRejected) {
  export_named("a");
  serve::ModelRegistry registry(dir_.string(), 2);
  EXPECT_EQ(registry.reload("a").status,
            serve::ReloadResult::Status::kNotResident);
  ASSERT_NE(registry.get("a"), nullptr);
  EXPECT_EQ(registry.reload("a").status,
            serve::ReloadResult::Status::kUnchanged);
}

TEST_F(ServeTest, GenerationSurvivesEvictionCycles) {
  export_named("a");
  export_named("b");
  export_named("c");
  serve::ModelRegistry registry(dir_.string(), 1);

  // Evict "a" by rotating through a capacity-1 cache, then reload it:
  // the generation counter is per-name and monotonic, never reset by
  // eviction.
  EXPECT_EQ(registry.get("a")->generation, 1u);
  registry.get("b");
  registry.get("c");
  EXPECT_EQ(registry.get("a")->generation, 2u);
  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 13,
                      trained_predictor());
  EXPECT_EQ(registry.reload("a").generation, 3u);
}

// The TSan-facing chaos test: readers pin generations and predict while
// a writer concurrently rewrites bundles, reloads them and forces
// eviction pressure. Every pinned generation must answer consistently;
// no read ever observes a half-swapped model.
TEST_F(ServeTest, ReloadUnderConcurrentPredictionsIsRaceFree) {
  export_named("a");
  export_named("b");
  serve::ReloadPolicy policy;
  policy.backoff_initial_ms = 0;
  serve::ModelRegistry registry(dir_.string(), 1, policy);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  constexpr int kReaders = 8;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&registry, &stop, &failures, t] {
      const std::string name = (t % 2 == 0) ? "a" : "b";
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          const auto pinned = registry.get(name);
          if (pinned == nullptr) {
            ++failures;
            continue;
          }
          // Two predictions through the same pin must agree even if the
          // registry promoted a new generation in between.
          const auto& predictor = pinned->bundle.predictor;
          if (!same_answer(predictor.predict_guarded(65536),
                           predictor.predict_guarded(65536)) ||
              pinned->generation == 0) {
            ++failures;
          }
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }

  // The writer alternates bundle rewrites with explicit reloads while
  // the capacity-1 cache forces constant eviction churn underneath.
  for (int round = 0; round < 20; ++round) {
    const std::string name = (round % 2 == 0) ? "a" : "b";
    serve::export_model(bundle_path(name), name, "reduce1", "gtx580",
                        static_cast<std::size_t>(20 + round),
                        trained_predictor());
    try {
      registry.reload(name);
    } catch (const std::exception&) {
      ++failures;
    }
    registry.poll_stale();
  }
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(failures.load(), 0);
  // Deterministic tail: with the churn finished, a fresh promote cycle
  // must still work (the mid-churn reloads may all have found their
  // model evicted by the capacity-1 pressure).
  ASSERT_NE(registry.get("a"), nullptr);
  serve::export_model(bundle_path("a"), "a", "reduce1", "gtx580", 99,
                      trained_predictor());
  EXPECT_EQ(registry.reload("a").status,
            serve::ReloadResult::Status::kPromoted);
  EXPECT_GT(registry.stats().promotions, 0u);
}

// ---- the request broker ----

TEST_F(ServeTest, ServerBatchCoversHitMissErrorAndStats) {
  export_named("reduce1");
  // Plant a corrupt bundle next to the good one.
  export_named("broken");
  {
    std::string content = *read_file(bundle_path("broken"));
    content[content.size() - 10] ^= 0x04;
    std::ofstream(bundle_path("broken"), std::ios::binary) << content;
  }

  serve::ServerOptions options;
  options.model_dir = dir_.string();
  options.cache_capacity = 2;
  options.threads = 4;
  serve::Server server(options);

  const auto replies = server.handle_batch({
      R"({"model":"reduce1","size":65536,"id":1})",
      R"({"model":"reduce1","size":262144,"id":"two"})",
      R"({"model":"ghost","size":64,"id":3})",
      R"({"model":"broken","size":64,"id":4})",
      R"(this is not json)",
      R"({"cmd":"nonsense"})",
      R"({"model":"reduce1","size":-5})",
      R"({"cmd":"stats"})",
  });
  ASSERT_EQ(replies.size(), 8u);

  const auto r0 = serve::parse_json(replies[0]);
  EXPECT_TRUE(r0.find("ok")->boolean);
  EXPECT_EQ(r0.find("id")->number, 1.0);
  EXPECT_EQ(r0.find("model")->str, "reduce1");
  EXPECT_EQ(r0.find("predicted_ms")->number,
            trained_predictor().predict_guarded(65536).value);
  EXPECT_GT(r0.find("latency_us")->number, 0.0);
  const std::string grade = r0.find("grade")->str;
  EXPECT_TRUE(grade == "A" || grade == "B" || grade == "C");

  const auto r1 = serve::parse_json(replies[1]);
  EXPECT_TRUE(r1.find("ok")->boolean);
  EXPECT_EQ(r1.find("id")->str, "two");

  for (const std::size_t bad : {2u, 3u, 4u, 5u, 6u}) {
    const auto r = serve::parse_json(replies[bad]);
    EXPECT_FALSE(r.find("ok")->boolean) << replies[bad];
    EXPECT_FALSE(r.find("error")->str.empty());
  }

  // The corrupt bundle was quarantined; the cache holds only the good
  // model and the failed load is accounted for.
  EXPECT_TRUE(std::filesystem::exists(bundle_path("broken") +
                                      ".quarantined"));
  const auto stats = serve::parse_json(replies[7]);
  EXPECT_TRUE(stats.find("ok")->boolean);
  EXPECT_EQ(stats.find("failures")->number, 2.0);  // ghost + broken
  ASSERT_EQ(stats.find("resident")->array.size(), 1u);
  EXPECT_EQ(stats.find("resident")->array[0].str, "reduce1");
}

TEST_F(ServeTest, ServerReplyIsBitIdenticalToDirectPrediction) {
  export_named("reduce1");
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  serve::Server server(options);

  const auto reply = server.handle_line(
      R"({"model":"reduce1","size":131072})");
  const auto parsed = serve::parse_json(reply);
  const auto direct = trained_predictor().predict_guarded(131072);
  EXPECT_EQ(parsed.find("predicted_ms")->number, direct.value);
  EXPECT_EQ(parsed.find("interval_lo_ms")->number, direct.lo);
  EXPECT_EQ(parsed.find("interval_hi_ms")->number, direct.hi);
}

// ---- request framing (serve/net.hpp) ----

TEST(ServeFraming, SplitRequestsHandlesCrlfBlanksAndMissingNewline) {
  // CRLF endings, blank lines (both flavours) and a final line without
  // any newline must all frame cleanly.
  const auto lines = serve::split_requests(
      "{\"a\":1}\r\n\r\n{\"b\":2}\n\n   \n{\"c\":3}");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"b\":2}");
  EXPECT_EQ(lines[2], "   ");  // whitespace is a (malformed) request
  EXPECT_EQ(lines[3], "{\"c\":3}");

  EXPECT_TRUE(serve::split_requests("").empty());
  EXPECT_TRUE(serve::split_requests("\n\r\n\n").empty());
  EXPECT_EQ(serve::split_requests("x").size(), 1u);
}

TEST(ServeFraming, LineBufferFramesAcrossArbitraryChunkBoundaries) {
  // Feed two pipelined requests byte by byte: each completes exactly
  // when its newline arrives, independent of chunking.
  const std::string stream = "{\"a\":1}\r\n{\"b\":2}\n{\"tail\":3}";
  serve::LineBuffer buffer;
  std::vector<std::string> lines;
  for (const char ch : stream) {
    ASSERT_TRUE(buffer.append(&ch, 1, lines));
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"b\":2}");
  // EOF semantics: the unterminated tail is still a request.
  std::string tail;
  ASSERT_TRUE(buffer.take_partial(tail));
  EXPECT_EQ(tail, "{\"tail\":3}");
  EXPECT_FALSE(buffer.take_partial(tail));
}

TEST(ServeFraming, LineBufferOverflowPoisonsTheStream) {
  serve::LineBuffer buffer(8);
  std::vector<std::string> lines;
  const std::string huge(32, 'x');
  EXPECT_FALSE(buffer.append(huge.data(), huge.size(), lines));
  EXPECT_TRUE(buffer.overflowed());
  EXPECT_TRUE(lines.empty());
  // A poisoned buffer stays poisoned: no resync inside an unbounded line.
  const char nl = '\n';
  EXPECT_FALSE(buffer.append(&nl, 1, lines));
  std::string tail;
  EXPECT_FALSE(buffer.take_partial(tail));
}

// ---- structured error replies ----

TEST(ServeErrors, MakeErrorReplyShapesAreStable) {
  EXPECT_EQ(serve::make_error_reply("", "shed", "overloaded"),
            R"({"ok":false,"code":"shed","error":"overloaded"})");
  EXPECT_EQ(serve::make_error_reply("42", "timeout", "drain"),
            R"({"id":42,"ok":false,"code":"timeout","error":"drain"})");
  // Quotes in the message are escaped, never protocol-breaking.
  const auto parsed = serve::parse_json(
      serve::make_error_reply("\"x\"", "malformed", "bad \"cmd\""));
  EXPECT_EQ(parsed.find("code")->str, "malformed");
  EXPECT_EQ(parsed.find("error")->str, "bad \"cmd\"");
}

TEST_F(ServeTest, ServerRepliesCarryStableErrorCodes) {
  export_named("reduce1");
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  serve::Server server(options);

  const auto malformed =
      serve::parse_json(server.handle_line("this is not json"));
  EXPECT_EQ(malformed.find("code")->str, "malformed");
  const auto unknown_cmd =
      serve::parse_json(server.handle_line(R"({"cmd":"nonsense"})"));
  EXPECT_EQ(unknown_cmd.find("code")->str, "malformed");
  const auto ghost = serve::parse_json(
      server.handle_line(R"({"model":"ghost","size":64})"));
  EXPECT_EQ(ghost.find("code")->str, "model_unavailable");
}

// ---- admin verbs: reload / pin / unpin over the protocol ----

TEST_F(ServeTest, ServerAdminVerbsDriveReloadLifecycle) {
  export_named("reduce1");
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  serve::Server server(options);

  // Load generation 1 and confirm predictions carry the generation.
  const auto first = serve::parse_json(
      server.handle_line(R"({"model":"reduce1","size":65536})"));
  EXPECT_TRUE(first.find("ok")->boolean);
  EXPECT_EQ(first.find("generation")->number, 1.0);

  // Reloading the unchanged file is a no-op.
  const auto unchanged = serve::parse_json(server.handle_line(
      R"({"cmd":"reload","model":"reduce1","id":7})"));
  EXPECT_TRUE(unchanged.find("ok")->boolean);
  EXPECT_EQ(unchanged.find("id")->number, 7.0);
  EXPECT_EQ(unchanged.find("status")->str, "unchanged");
  EXPECT_EQ(unchanged.find("generation")->number, 1.0);

  // Swap the bundle on disk and reload: generation 2 is promoted and
  // subsequent predictions report it.
  serve::export_model(bundle_path("reduce1"), "reduce1", "reduce1", "gtx580",
                      13, trained_predictor());
  const auto promoted = serve::parse_json(server.handle_line(
      R"({"cmd":"reload","model":"reduce1"})"));
  EXPECT_EQ(promoted.find("status")->str, "promoted");
  EXPECT_EQ(promoted.find("generation")->number, 2.0);
  const auto second = serve::parse_json(
      server.handle_line(R"({"model":"reduce1","size":65536})"));
  EXPECT_EQ(second.find("generation")->number, 2.0);

  // Pin freezes the generation against further reloads; unpin restores.
  const auto pinned = serve::parse_json(server.handle_line(
      R"({"cmd":"pin","model":"reduce1"})"));
  EXPECT_TRUE(pinned.find("ok")->boolean);
  EXPECT_TRUE(pinned.find("resident")->boolean);
  const auto refused = serve::parse_json(server.handle_line(
      R"({"cmd":"reload","model":"reduce1"})"));
  EXPECT_EQ(refused.find("status")->str, "pinned");
  const auto unpinned = serve::parse_json(server.handle_line(
      R"({"cmd":"unpin","model":"reduce1"})"));
  EXPECT_TRUE(unpinned.find("resident")->boolean);

  // The stats surface exposes the full per-model identity row.
  const auto stats = serve::parse_json(server.handle_line(
      R"({"cmd":"stats"})"));
  EXPECT_EQ(stats.find("reloads")->number, 3.0);
  EXPECT_EQ(stats.find("promotions")->number, 1.0);
  EXPECT_EQ(stats.find("rollbacks")->number, 0.0);
  ASSERT_EQ(stats.find("models")->array.size(), 1u);
  const auto& row = stats.find("models")->array[0];
  EXPECT_EQ(row.find("name")->str, "reduce1");
  EXPECT_EQ(row.find("generation")->number, 2.0);
  EXPECT_EQ(row.find("checksum")->str.size(), 16u);
  EXPECT_FALSE(row.find("loaded_at")->str.empty());
  EXPECT_EQ(row.find("rollbacks")->number, 0.0);
  EXPECT_FALSE(row.find("pinned")->boolean);
}

TEST_F(ServeTest, ReloadVerbsRejectedWhenDisabled) {
  export_named("reduce1");
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  options.allow_reload = false;
  serve::Server server(options);

  for (const char* line : {R"({"cmd":"reload","model":"reduce1"})",
                           R"({"cmd":"pin","model":"reduce1"})",
                           R"({"cmd":"unpin","model":"reduce1"})"}) {
    const auto reply = serve::parse_json(server.handle_line(line));
    EXPECT_FALSE(reply.find("ok")->boolean) << line;
    EXPECT_EQ(reply.find("code")->str, "reload_disabled") << line;
  }
  // Prediction traffic is unaffected by the admin lockout.
  const auto predict = serve::parse_json(
      server.handle_line(R"({"model":"reduce1","size":65536})"));
  EXPECT_TRUE(predict.find("ok")->boolean);
}

TEST_F(ServeTest, WatcherPromotesChangedBundleUnderLoad) {
  export_named("reduce1");
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  options.reload_watch_ms = 10;
  serve::Server server(options);
  ASSERT_TRUE(serve::parse_json(
                  server.handle_line(R"({"model":"reduce1","size":65536})"))
                  .find("ok")
                  ->boolean);

  // Rewrite the bundle behind the server's back; the watcher thread must
  // notice and promote without any admin verb.
  serve::export_model(bundle_path("reduce1"), "reduce1", "reduce1", "gtx580",
                      13, trained_predictor());
  touch_future("reduce1");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  double generation = 1.0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto reply = serve::parse_json(
        server.handle_line(R"({"model":"reduce1","size":65536})"));
    ASSERT_TRUE(reply.find("ok")->boolean);
    generation = reply.find("generation")->number;
    if (generation == 2.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(generation, 2.0);
}

// ---- per-batch coalescing ----

TEST_F(ServeTest, IdenticalRowsInABatchAreComputedOnce) {
  export_named("reduce1");
  serve::ServerOptions options;
  options.model_dir = dir_.string();
  options.threads = 4;
  serve::Server server(options);

  const auto replies = server.handle_batch({
      R"({"model":"reduce1","size":65536,"id":"a"})",
      R"({"model":"reduce1","size":65536,"id":"b"})",
      R"({"model":"reduce1","size":131072,"id":"c"})",
      R"({"model":"reduce1","size":65536,"id":"d"})",
  });
  ASSERT_EQ(replies.size(), 4u);
  // Every duplicate gets a full reply with its own id and the shared
  // prediction, bit-identical to computing it directly.
  const double direct = trained_predictor().predict_guarded(65536).value;
  for (const std::size_t i : {0u, 1u, 3u}) {
    const auto parsed = serve::parse_json(replies[i]);
    EXPECT_TRUE(parsed.find("ok")->boolean) << replies[i];
    EXPECT_EQ(parsed.find("predicted_ms")->number, direct);
  }
  EXPECT_EQ(serve::parse_json(replies[0]).find("id")->str, "a");
  EXPECT_EQ(serve::parse_json(replies[1]).find("id")->str, "b");
  EXPECT_EQ(serve::parse_json(replies[3]).find("id")->str, "d");
  EXPECT_EQ(server.coalesced(), 2u);  // "b" and "d" rode along with "a"

  // The stats surface reports the coalescing work saved.
  const auto stats = serve::parse_json(server.handle_line(
      R"({"cmd":"stats"})"));
  EXPECT_EQ(stats.find("coalesced")->number, 2.0);
}

// ---- the JSON codec ----

TEST(ServeJson, ParsesEscapesAndRejectsGarbage) {
  const auto v = serve::parse_json(
      R"({"s":"a\"b\nA","n":-1.5e3,"b":true,"z":null,"arr":[1,2]})");
  EXPECT_EQ(v.find("s")->str, "a\"b\nA");
  EXPECT_EQ(v.find("n")->number, -1500.0);
  EXPECT_TRUE(v.find("b")->boolean);
  EXPECT_TRUE(v.find("z")->is_null());
  EXPECT_EQ(v.find("arr")->array.size(), 2u);
  EXPECT_EQ(v.find("missing"), nullptr);

  EXPECT_THROW(serve::parse_json("{"), Error);
  EXPECT_THROW(serve::parse_json("{} trailing"), Error);
  EXPECT_THROW(serve::parse_json("{\"k\":12garbage}"), Error);
  EXPECT_THROW(serve::parse_json("'single'"), Error);
}

TEST(ServeJson, EscapeAndNumberRoundTrip) {
  EXPECT_EQ(serve::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(serve::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(serve::json_number(0.5), "0.5");
  const double v = 0.024005629469124646;
  EXPECT_EQ(serve::parse_json(serve::json_number(v)).number, v);
  EXPECT_EQ(serve::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

}  // namespace
}  // namespace bf
