// Tests for bf::common: RNG, CSV, string utilities, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"

namespace bf {
namespace {

// ---- error handling ----

TEST(Error, CheckThrowsWithContext) {
  try {
    BF_CHECK_MSG(1 == 2, "custom context " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context 42"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(BF_CHECK(2 + 2 == 4));
}

// ---- RNG ----

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0;
  double hi = 0.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.uniform_index(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(5);
  const int n = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, BootstrapIndicesInRangeAndRepeats) {
  Rng rng(13);
  const auto idx = rng.bootstrap_indices(100);
  EXPECT_EQ(idx.size(), 100u);
  std::set<std::size_t> distinct(idx.begin(), idx.end());
  for (const auto i : idx) EXPECT_LT(i, 100u);
  // A bootstrap of n draws ~63% distinct values on average.
  EXPECT_LT(distinct.size(), 80u);
  EXPECT_GT(distinct.size(), 45u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  const auto s = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<std::size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 20u);
  for (const auto i : s) EXPECT_LT(i, 50u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), Error);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // The child should not replay the parent's stream.
  Rng b(21);
  (void)b.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

// ---- string utilities ----

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, TrimBothEnds) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("inst_executed", "inst"));
  EXPECT_FALSE(starts_with("in", "inst"));
}

TEST(StringUtil, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(2048), "2.0 KB");
  EXPECT_EQ(human_bytes(3.5 * 1024 * 1024), "3.5 MB");
}

// ---- CSV ----

TEST(Csv, RoundTripSimple) {
  CsvTable t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3.5", "x"});
  std::ostringstream os;
  t.write(os);
  std::istringstream is(os.str());
  const CsvTable back = CsvTable::read(is);
  EXPECT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.cell(0, "a"), "1");
  EXPECT_EQ(back.cell(1, "b"), "x");
  EXPECT_DOUBLE_EQ(back.cell_as_double(1, "a"), 3.5);
}

TEST(Csv, QuotingOfCommasAndQuotes) {
  CsvTable t({"text"});
  t.add_row({"hello, \"world\""});
  std::ostringstream os;
  t.write(os);
  EXPECT_EQ(os.str(), "text\n\"hello, \"\"world\"\"\"\n");
  std::istringstream is(os.str());
  const CsvTable back = CsvTable::read(is);
  EXPECT_EQ(back.cell(0, 0), "hello, \"world\"");
}

TEST(Csv, RaggedRowRejected) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Csv, UnknownColumnRejected) {
  CsvTable t({"a"});
  t.add_row({"1"});
  EXPECT_THROW(t.column_index("nope"), Error);
  EXPECT_TRUE(t.has_column("a"));
  EXPECT_FALSE(t.has_column("b"));
}

TEST(Csv, MalformedDoubleRejected) {
  CsvTable t({"a"});
  t.add_row({"not_a_number"});
  EXPECT_THROW(t.cell_as_double(0, 0), Error);
}

TEST(Csv, EmptyInputRejected) {
  std::istringstream is("");
  EXPECT_THROW(CsvTable::read(is), Error);
}

TEST(Csv, ToleratesCrLf) {
  std::istringstream is("a,b\r\n1,2\r\n");
  const CsvTable t = CsvTable::read(is);
  EXPECT_EQ(t.cell(0, "b"), "2");
}

TEST(Csv, ColumnAsDoubles) {
  CsvTable t({"v"});
  t.add_row({"1"});
  t.add_row({"2.5"});
  const auto col = t.column_as_doubles("v");
  ASSERT_EQ(col.size(), 2u);
  EXPECT_DOUBLE_EQ(col[1], 2.5);
}

// ---- thread pool ----

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int count = 0;
  pool.parallel_for(5, 10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 5);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(3, 3, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    // Audited: wait_idle() below keeps `done` alive past every task.
    pool.submit([&] { done++; });  // bf-lint: allow(capture-escape)
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, ConcurrentCallersDoNotWaitOnEachOther) {
  // A's chunks stay blocked until B's parallel_for has returned. If B
  // waited for the whole pool it would wait on A forever; A gives up
  // after a generous timeout so a regression fails instead of hanging.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  bool b_returned = false;
  std::atomic<int> a_saw_b{0};
  std::atomic<int> b_sum{0};
  // Audited: both threads are joined before the captured frame ends.
  std::thread a([&] {  // bf-lint: allow(capture-escape)
    pool.parallel_for(0, 2, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      if (cv.wait_for(lock, std::chrono::seconds(20),
                      [&] { return b_returned; })) {
        ++a_saw_b;
      }
    });
  });
  std::thread b([&] {  // bf-lint: allow(capture-escape)
    pool.parallel_for(0, 100, [&](std::size_t i) {
      b_sum += static_cast<int>(i);
    });
    std::lock_guard<std::mutex> lock(mu);
    b_returned = true;
    cv.notify_all();
  });
  b.join();
  a.join();
  EXPECT_EQ(b_sum.load(), 4950);
  EXPECT_EQ(a_saw_b.load(), 2);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // Every outer index occupies a worker and runs an inner loop on the
  // same pool: the inner callers must finish their own chunks instead of
  // waiting for tasks queued behind the busy workers.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 50);
  pool.parallel_for(0, 8, [&](std::size_t outer) {
    pool.parallel_for(0, 50, [&](std::size_t inner) {
      hits[outer * 50 + inner]++;
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(0, 64, [&](std::size_t i) {
      ++ran;
      if (i == 9 || i == 40) throw Error("index " + std::to_string(i));
    });
    FAIL() << "no exception";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "index 9");
  }
  EXPECT_GE(ran.load(), 10);
  // The pool stays usable after a failed call.
  std::atomic<int> after{0};
  pool.parallel_for(0, 16, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 16);
}

}  // namespace
}  // namespace bf
