// Failure injection and edge-case robustness across modules: corrupt
// repository files, malformed datasets, degenerate model inputs,
// misbehaving workloads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/io.hpp"
#include "core/counter_models.hpp"
#include "core/model.hpp"
#include "ml/dataset.hpp"
#include "ml/tree.hpp"
#include "profiling/profiler.hpp"
#include "profiling/repository.hpp"

namespace bf {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bf_robust_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

// ---- repository failure injection ----
//
// Corruption never aborts an analysis: the damaged entry is quarantined
// (renamed to .quarantined) and load() reports it absent, so
// get_or_collect() recollects.

using RepositoryRobustness = TempDir;

namespace {

/// Plant raw bytes where a sweep entry would live.
void plant(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

/// Assert the entry was quarantined and that get_or_collect recollects.
void expect_quarantine_and_recollect(
    const profiling::RunRepository& repo,
    const std::filesystem::path& entry) {
  EXPECT_FALSE(repo.load("needle", "gtx580").has_value());
  EXPECT_FALSE(std::filesystem::exists(entry));
  const std::filesystem::path quarantined =
      entry.string() + ".quarantined";
  EXPECT_TRUE(std::filesystem::exists(quarantined));

  int produced = 0;
  ml::Dataset fresh;
  fresh.add_column("size", {64, 128});
  fresh.add_column("time_ms", {1.5, 2.5});
  const auto got = repo.get_or_collect("needle", "gtx580", [&] {
    ++produced;
    return fresh;
  });
  EXPECT_EQ(produced, 1);
  EXPECT_EQ(got.num_rows(), 2u);
  // The recollected entry is valid and served from disk next time.
  EXPECT_EQ(repo.load("needle", "gtx580")->num_rows(), 2u);
}

}  // namespace

TEST_F(RepositoryRobustness, CorruptCellQuarantinedAndRecollected) {
  const profiling::RunRepository repo(dir_.string());
  const auto entry = dir_ / "needle__gtx580.csv";
  plant(entry, "size,time_ms\n1024,not_a_number\n");
  EXPECT_TRUE(repo.contains("needle", "gtx580"));
  expect_quarantine_and_recollect(repo, entry);
}

TEST_F(RepositoryRobustness, GarbageHeaderQuarantinedAndRecollected) {
  const profiling::RunRepository repo(dir_.string());
  const auto entry = dir_ / "needle__gtx580.csv";
  plant(entry, "\x7f\x45\x4c\x46 this is not a csv at all\n\x01\x02");
  expect_quarantine_and_recollect(repo, entry);
}

TEST_F(RepositoryRobustness, EmptyFileQuarantinedAndRecollected) {
  const profiling::RunRepository repo(dir_.string());
  const auto entry = dir_ / "needle__gtx580.csv";
  plant(entry, "");
  EXPECT_TRUE(repo.contains("needle", "gtx580"));
  expect_quarantine_and_recollect(repo, entry);
}

TEST_F(RepositoryRobustness, TruncatedEntryQuarantinedAndRecollected) {
  const profiling::RunRepository repo(dir_.string());
  ml::Dataset ds;
  ds.add_column("size", {64, 128, 256});
  ds.add_column("time_ms", {1, 2, 3});
  repo.save("needle", "gtx580", ds);
  ASSERT_TRUE(repo.load("needle", "gtx580").has_value());

  // Torn write / partial flush: only half the bytes survived.
  const auto entry = dir_ / "needle__gtx580.csv";
  const auto size = std::filesystem::file_size(entry);
  std::filesystem::resize_file(entry, size / 2);
  expect_quarantine_and_recollect(repo, entry);
}

TEST_F(RepositoryRobustness, BadChecksumQuarantinedAndRecollected) {
  const profiling::RunRepository repo(dir_.string());
  ml::Dataset ds;
  ds.add_column("size", {64, 128});
  ds.add_column("time_ms", {1, 2});
  repo.save("needle", "gtx580", ds);

  // Bit rot: flip one payload byte; the footer no longer matches.
  const auto entry = dir_ / "needle__gtx580.csv";
  std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(18);
  f.put('7');
  f.close();
  expect_quarantine_and_recollect(repo, entry);
}

TEST_F(RepositoryRobustness, EntryBytesArePinned) {
  // The on-disk bytes of an entry: the CSV, then the checksum footer
  // over every byte before it. Stored sweeps written by earlier builds
  // must keep loading, so this literal only changes with a format break.
  const profiling::RunRepository repo(dir_.string());
  ml::Dataset ds;
  ds.add_column("size", {64, 128, 256});
  ds.add_column("time_ms", {0.125, 1.5, 3.0625});
  ds.add_column("inst_issued", {1000, 2000, 4096});
  repo.save("needle", "gtx580", ds);
  EXPECT_EQ(*read_file((dir_ / "needle__gtx580.csv").string()),
            "size,time_ms,inst_issued\n"
            "64,0.125,1000\n"
            "128,1.5,2000\n"
            "256,3.0625,4096\n"
            "#checksum,fnv1a64,05fd20d63b527eec\n");
}

TEST_F(RepositoryRobustness, QuarantinedEntriesExcludedFromKeys) {
  const profiling::RunRepository repo(dir_.string());
  ml::Dataset ds;
  ds.add_column("size", {64});
  ds.add_column("time_ms", {1});
  repo.save("needle", "gtx580", ds);
  plant(dir_ / "reduce1__gtx580.csv", "garbage");
  EXPECT_FALSE(repo.load("reduce1", "gtx580").has_value());  // quarantines
  const auto keys = repo.keys();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].first, "needle");
}

TEST_F(RepositoryRobustness, FailedProducerLeavesNoEntryBehind) {
  const profiling::RunRepository repo(dir_.string());
  EXPECT_THROW(repo.get_or_collect("needle", "gtx580",
                                   []() -> ml::Dataset {
                                     throw Error("producer exploded");
                                   }),
               Error);
  EXPECT_FALSE(repo.contains("needle", "gtx580"));
  // No temp-file debris either: the directory is untouched.
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(RepositoryRobustness, KeySanitisation) {
  const profiling::RunRepository repo(dir_.string());
  ml::Dataset ds;
  ds.add_column("x", {1});
  // Slashes and spaces must not escape the repository directory.
  repo.save("../evil name", "arch/1", ds);
  bool inside = false;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    inside |= e.is_regular_file();
  }
  EXPECT_TRUE(inside);
  EXPECT_FALSE(std::filesystem::exists(
      dir_.parent_path() / "evil name__arch_1.csv"));
}

// ---- atomic_write_file edge cases ----
//
// The crash-safe writer under every persisting layer (repository,
// .bfmodel bundles, guard JSON): empty payloads, overwrites and bad
// target directories must all behave predictably.

using AtomicWriteRobustness = TempDir;

TEST_F(AtomicWriteRobustness, EmptyPayloadWritesEmptyFile) {
  const auto path = (dir_ / "empty.txt").string();
  atomic_write_file(path, "");
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
  EXPECT_EQ(*read_file(path), "");
}

TEST_F(AtomicWriteRobustness, OverwriteReplacesContentCompletely) {
  const auto path = (dir_ / "entry.txt").string();
  atomic_write_file(path, "the longer original content\n");
  atomic_write_file(path, "short");
  // Full replacement, no stale tail from the longer first version.
  EXPECT_EQ(*read_file(path), "short");
  // No temp file left behind by either write.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(AtomicWriteRobustness, MissingTargetDirectoryFailsCleanly) {
  const auto path = (dir_ / "no" / "such" / "dir" / "entry.txt").string();
  EXPECT_THROW(atomic_write_file(path, "payload"), Error);
  // The failed write leaves nothing behind — no destination, no temp.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// ---- dataset / CSV edge cases ----

TEST(DatasetRobustness, FromCsvRejectsNonNumeric) {
  std::istringstream is("a,b\n1,hello\n");
  const CsvTable table = CsvTable::read(is);
  EXPECT_THROW(ml::Dataset::from_csv(table), Error);
}

TEST(DatasetRobustness, SplitOnTinyDataset) {
  ml::Dataset ds;
  ds.add_column("x", {1});
  Rng rng(1);
  EXPECT_THROW(ml::train_test_split(ds, 0.2, rng), Error);  // 1 row
}

TEST(DatasetRobustness, ConstantResponseRejectedByModel) {
  ml::Dataset ds;
  ds.add_column("size", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  ds.add_column("time_ms", std::vector<double>(10, 5.0));
  EXPECT_THROW(core::BlackForestModel::fit(ds, {}), Error);
}

TEST(DatasetRobustness, PLargerThanN) {
  // More predictors than rows must still fit (mtry handles it).
  ml::Dataset ds;
  Rng rng(2);
  for (int c = 0; c < 12; ++c) {
    std::vector<double> col(6);
    for (auto& v : col) v = rng.uniform(0, 1);
    ds.add_column("c" + std::to_string(c), col);
  }
  ds.add_column("time_ms", {1, 2, 3, 4, 5, 6});
  core::ModelOptions opt;
  opt.forest.n_trees = 30;
  opt.test_fraction = 0.0;
  EXPECT_NO_THROW(core::BlackForestModel::fit(ds, opt));
}

// ---- degenerate model inputs ----

TEST(TreeRobustness, AllIdenticalFeatureValuesSingleLeaf) {
  linalg::Matrix x(20, 1);
  std::vector<double> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = 7.0;  // constant feature
    y[i] = static_cast<double>(i);
  }
  ml::RegressionTree tree;
  Rng rng(3);
  tree.fit(x, y, ml::TreeParams{}, rng);
  EXPECT_EQ(tree.leaf_count(), 1u);  // nothing to split on
  EXPECT_DOUBLE_EQ(tree.predict(x)[0], 9.5);
}

TEST(CounterModelsRobustness, OptionFlagsRespected) {
  ml::Dataset ds;
  std::vector<double> sizes;
  std::vector<double> counter;
  for (int i = 1; i <= 24; ++i) {
    sizes.push_back(64.0 * i);
    counter.push_back(5.0 * 64.0 * i);
  }
  ds.add_column("size", sizes);
  ds.add_column("c", counter);

  core::CounterModelOptions glm_only;
  glm_only.kind = core::CounterModelKind::kGlm;
  const auto a = core::CounterModels::fit(ds, {"c"}, glm_only);
  EXPECT_EQ(a.info()[0].chosen, core::CounterModelKind::kGlm);

  core::CounterModelOptions mars_only;
  mars_only.kind = core::CounterModelKind::kMars;
  const auto b = core::CounterModels::fit(ds, {"c"}, mars_only);
  EXPECT_EQ(b.info()[0].chosen, core::CounterModelKind::kMars);
}

TEST(CounterModelsRobustness, NegativeCountersSkipLogResponse) {
  // A counter crossing zero cannot be log-modelled; auto mode must cope.
  ml::Dataset ds;
  std::vector<double> sizes;
  std::vector<double> counter;
  for (int i = 1; i <= 16; ++i) {
    sizes.push_back(16.0 * i);
    counter.push_back(i - 8.0);  // negative half the range
  }
  ds.add_column("size", sizes);
  ds.add_column("c", counter);
  const auto models = core::CounterModels::fit(ds, {"c"});
  EXPECT_GT(models.info()[0].r2, 0.99);
  const auto pred = models.predict(40.0);
  EXPECT_NEAR(pred[0].second, 40.0 / 16.0 - 8.0, 0.5);
}

// ---- misbehaving workloads ----

TEST(ProfilerRobustness, ZeroTimeWorkloadRejected) {
  profiling::Workload w;
  w.name = "broken";
  w.run = [](const gpusim::Device&, double) {
    return gpusim::AggregateResult{};  // zero time, no launches
  };
  const gpusim::Device device(gpusim::gtx580());
  profiling::Profiler profiler;
  EXPECT_THROW(profiler.profile(w, device, 100.0), Error);
}

TEST(ProfilerRobustness, MissingRunFunctionRejected) {
  profiling::Workload w;
  w.name = "empty";
  const gpusim::Device device(gpusim::gtx580());
  profiling::Profiler profiler;
  EXPECT_THROW(profiler.profile(w, device, 100.0), Error);
}

}  // namespace
}  // namespace bf
