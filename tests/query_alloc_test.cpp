// Guarded queries allocate nothing after a thread's first query when no
// counter is demoted or clamped and nothing is extrapolated (the promise
// of docs/prediction_guardrails.md). This binary replaces the global
// operator new with a counting one that counts only on the armed thread
// while armed, builds 100-tree time and power predictors for needle and
// matrixMul, each with GLM-primary counters, warms each up with one
// query, and then counts the allocations of 1000 in-hull time queries
// and 1000 power queries.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>  // bf-lint: allow(raw-new)
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "gpusim/arch.hpp"
#include "power/predictor.hpp"
#include "profiling/sweep.hpp"
#include "profiling/workloads.hpp"

namespace {

thread_local bool t_armed = false;
std::atomic<std::size_t> g_allocations{0};

void* acquire(std::size_t n) noexcept {
  if (t_armed) g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so the compiler cannot pair the free() with a
// new-expression at an inlined call site and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// The replaceable allocation functions, counted. The nothrow forms are
// replaced too: a sanitizer runtime would otherwise supply them, and
// their memory comes back through the plain delete below. The array
// forms forward to these.
void* operator new(std::size_t n) {  // bf-lint: allow(raw-new)
  void* p = acquire(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n,  // bf-lint: allow(raw-new)
                   const std::nothrow_t&) noexcept {
  return acquire(n);
}
void operator delete(void* p) noexcept {  // bf-lint: allow(raw-delete)
  release(p);
}
void operator delete(void* p,  // bf-lint: allow(raw-delete)
                     std::size_t) noexcept {
  release(p);
}
void operator delete(void* p,  // bf-lint: allow(raw-delete)
                     const std::nothrow_t&) noexcept {
  release(p);
}

namespace bf {
namespace {

/// Allocations made by this thread while `fn` runs.
template <class Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  t_armed = true;
  fn();
  t_armed = false;
  return g_allocations.load() - before;
}

bool clean(const guard::PredictionGuardRecord& rec) {
  return rec.demotions.empty() && rec.clamps.empty() && rec.flags.empty();
}

struct Case {
  const char* name;
  profiling::Workload workload;
  std::vector<double> sizes;
};

TEST(QueryAllocations, GuardedTimeAndPowerQueriesAllocateNothing) {
  const auto arch = gpusim::arch_by_name("gtx580");
  const gpusim::Device dev(arch);
  // Small sweeps whose time and power predictors both keep GLM-primary
  // counters.
  for (const Case& c :
       {Case{"needle", profiling::nw_workload(),
             profiling::log2_sizes(64, 4096, 20, 16)},
        Case{"matrixMul", profiling::matmul_workload(16),
             profiling::log2_sizes(32, 512, 12, 16)}}) {
    SCOPED_TRACE(c.name);
    const ml::Dataset sweep = profiling::sweep(c.workload, dev, c.sizes);
    core::ProblemScalingOptions pso;
    pso.model.forest.n_trees = 100;
    pso.arch = arch;
    const auto time = core::ProblemScalingPredictor::build(sweep, pso);
    power::PowerPredictorOptions popts;
    popts.scaling.model.forest.n_trees = 100;
    popts.scaling.arch = arch;
    const auto power = power::PowerPredictor::build(sweep, popts);

    // The defect this guards against lived in the GLM basis expansion,
    // so each predictor must query at least one GLM-primary counter.
    for (const core::CounterModels* cm :
         {&time.counter_models(), &power.scaling().counter_models()}) {
      std::size_t glm_primary = 0;
      for (std::size_t e = 0; e < cm->num_entries(); ++e) {
        if (cm->entry_chain(e).front() == core::CounterModelKind::kGlm) {
          ++glm_primary;
        }
      }
      EXPECT_GE(glm_primary, 1u);
    }

    // In-hull sizes whose time and power queries are neither demoted,
    // clamped nor flagged; the first query of each warms the thread.
    std::vector<double> queries;
    for (std::size_t i = 0; i + 1 < c.sizes.size(); ++i) {
      for (const double s :
           {c.sizes[i], std::sqrt(c.sizes[i] * c.sizes[i + 1])}) {
        if (clean(time.predict_guarded(s)) &&
            clean(power.predict_guarded(s).record)) {
          queries.push_back(s);
        }
      }
    }
    ASSERT_GE(queries.size(), 4u);

    double sink = 0.0;
    const std::size_t time_allocs = allocations_during([&] {
      for (std::size_t q = 0; q < 1000; ++q) {
        sink += time.predict_guarded(queries[q % queries.size()]).value;
      }
    });
    const std::size_t power_allocs = allocations_during([&] {
      for (std::size_t q = 0; q < 1000; ++q) {
        sink += power.predict_guarded(queries[q % queries.size()]).power_w;
      }
    });
    EXPECT_TRUE(std::isfinite(sink));
    EXPECT_EQ(time_allocs, 0u) << "over 1000 time queries";
    EXPECT_EQ(power_allocs, 0u) << "over 1000 power queries";
  }
}

}  // namespace
}  // namespace bf
