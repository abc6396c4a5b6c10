#include "profiling/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/arch.hpp"

namespace bf::profiling {
namespace {

/// Reject replicates whose time deviates from the median by more than
/// `threshold` scaled MADs. Returns the number rejected. With fewer than
/// 3 replicates there is no robust spread estimate, so nothing happens.
int reject_time_outliers(std::vector<ProfileResult>& reps,
                         double threshold) {
  if (threshold <= 0.0 || reps.size() < 3) return 0;
  std::vector<double> times;
  times.reserve(reps.size());
  for (const auto& r : reps) times.push_back(r.time_ms);
  const double med = ml::nan_median(times);
  std::vector<double> dev;
  dev.reserve(times.size());
  for (const double t : times) dev.push_back(std::fabs(t - med));
  const double mad = ml::nan_median(dev);
  if (!(mad > 0.0)) return 0;
  const double cut = threshold * 1.4826 * mad;  // ~sigma for normal data
  const std::size_t before = reps.size();
  reps.erase(std::remove_if(reps.begin(), reps.end(),
                            [&](const ProfileResult& r) {
                              return std::fabs(r.time_ms - med) > cut;
                            }),
             reps.end());
  return static_cast<int>(before - reps.size());
}

}  // namespace

std::string SweepReport::summary() const {
  std::ostringstream os;
  os << sizes_ok << "/" << sizes.size() << " sizes ok, "
     << retried_attempts << " retried attempt(s), " << missing_cells
     << " missing cell(s)";
  return os.str();
}

std::string SweepReport::to_text() const {
  std::ostringstream os;
  os << "sweep report: " << summary() << "\n";
  for (const auto& so : sizes) {
    const bool noteworthy = !so.ok || so.attempts > so.replicates_ok ||
                            !so.dropped_counters.empty() ||
                            so.outliers_rejected > 0;
    if (!noteworthy) continue;
    os << "  size " << so.size << ": ";
    if (!so.ok) {
      os << "FAILED after " << so.attempts << " attempt(s)";
      if (!so.errors.empty()) os << " (" << so.errors.back() << ")";
    } else {
      os << so.attempts << " attempt(s), " << so.replicates_ok
         << " replicate(s)";
      if (so.outliers_rejected > 0) {
        os << ", " << so.outliers_rejected << " outlier(s) rejected";
      }
      if (!so.dropped_counters.empty()) {
        os << ", dropped [";
        for (std::size_t i = 0; i < so.dropped_counters.size(); ++i) {
          os << (i ? " " : "") << so.dropped_counters[i];
        }
        os << "]";
      }
    }
    os << "\n";
  }
  return os.str();
}

ml::Dataset sweep(const Workload& workload, const gpusim::Device& device,
                  const std::vector<double>& sizes,
                  const SweepOptions& options, SweepReport* report) {
  BF_CHECK_MSG(!sizes.empty(), "empty size sweep");
  BF_CHECK_MSG(options.replicates >= 1, "replicates must be >= 1");
  BF_CHECK_MSG(options.max_attempts >= 1, "max_attempts must be >= 1");
  BF_CHECK_MSG(options.min_success_fraction >= 0.0 &&
                   options.min_success_fraction <= 1.0,
               "min_success_fraction must be in [0,1]");
  Profiler profiler(options.profiler);

  SweepReport local;
  SweepReport& rep = report != nullptr ? *report : local;
  rep = SweepReport{};

  // Simulate each size once, all sizes at once. A run is deterministic
  // and draws no faults or noise, so re-measuring the stored run for each
  // attempt and replicate below gives the bytes a fresh run would.
  std::vector<SimulatedRun> runs(sizes.size());
  ThreadPool::global().parallel_for(0, sizes.size(), [&](std::size_t i) {
    runs[i] = simulate(workload, device, sizes[i]);
  });

  ml::Dataset ds;
  bool schema_ready = false;
  std::vector<std::string> counter_names;

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double size = sizes[i];
    SizeOutcome so;
    so.size = size;

    // Collect up to `replicates` successful runs, each with retry.
    std::vector<ProfileResult> reps;
    for (int k = 0; k < options.replicates; ++k) {
      bool got = false;
      for (int attempt = 1; attempt <= options.max_attempts; ++attempt) {
        ++so.attempts;
        if (attempt > 1) ++rep.retried_attempts;
        try {
          reps.push_back(profiler.measure(workload, device, size, runs[i]));
          got = true;
          break;
        } catch (const Error& e) {
          so.errors.emplace_back(e.what());
        }
      }
      if (got) {
        ++so.replicates_ok;
      } else {
        ++so.replicates_failed;
      }
    }
    rep.total_attempts += static_cast<std::size_t>(so.attempts);

    if (reps.empty()) {
      ++rep.sizes_failed;
      BF_WARN("sweep: size " << size << " of '" << workload.name
                             << "' failed all " << so.attempts
                             << " attempt(s)");
      rep.sizes.push_back(std::move(so));
      continue;
    }

    if (!schema_ready) {
      counter_names.clear();
      for (const auto& [name, _] : reps.front().counters) {
        counter_names.push_back(name);
      }
      ds.add_column(kSizeColumn, {});
      for (const auto& name : counter_names) ds.add_column(name, {});
      if (options.machine_characteristics) {
        for (const auto& [name, _] :
             gpusim::machine_characteristics(device.arch())) {
          ds.add_column(name, {});
        }
      }
      ds.add_column(kTimeColumn, {});
      schema_ready = true;
    }

    so.outliers_rejected =
        reject_time_outliers(reps, options.outlier_mad_threshold);

    // Aggregate the surviving replicates into one row. With a single
    // replicate the median is the value itself, so the classic sweep is
    // reproduced bit for bit.
    std::vector<double> row;
    row.reserve(ds.num_cols());
    row.push_back(size);
    for (const auto& name : counter_names) {
      std::vector<double> values;
      values.reserve(reps.size());
      for (const auto& r : reps) {
        const auto it = r.counters.find(name);
        if (it != r.counters.end()) values.push_back(it->second);
      }
      const double cell = ml::nan_median(values);
      if (!std::isfinite(cell)) {
        so.dropped_counters.push_back(name);
        ++rep.missing_cells;
        row.push_back(std::numeric_limits<double>::quiet_NaN());
      } else {
        row.push_back(cell);
      }
    }
    if (options.machine_characteristics) {
      for (const auto& [_, value] :
           gpusim::machine_characteristics(device.arch())) {
        row.push_back(value);
      }
    }
    {
      std::vector<double> times;
      times.reserve(reps.size());
      for (const auto& r : reps) times.push_back(r.time_ms);
      row.push_back(ml::nan_median(times));
    }
    ds.add_row(row);
    so.ok = true;
    ++rep.sizes_ok;
    rep.sizes.push_back(std::move(so));
  }

  if (rep.sizes_ok == 0) {
    BF_FAIL("sweep of '" << workload.name << "' collected no data ("
                         << rep.sizes.front().errors.back() << ")");
  }
  const double success = static_cast<double>(rep.sizes_ok) /
                         static_cast<double>(sizes.size());
  // The full report keeps each failed size's last error (e.g. the
  // violated counter rules), which the summary alone would drop.
  BF_CHECK_MSG(success + 1e-12 >= options.min_success_fraction,
               "sweep of '" << workload.name
                            << "' degraded below policy (min_success_fraction="
                            << options.min_success_fraction
                            << "): " << rep.to_text());
  return ds;
}

std::vector<double> log2_sizes(double lo, double hi, int count,
                               std::int64_t multiple) {
  BF_CHECK_MSG(lo >= 1 && hi > lo && count >= 2, "invalid log2 size range");
  BF_CHECK_MSG(multiple >= 1, "invalid multiple");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  const double llo = std::log2(lo);
  const double lhi = std::log2(hi);
  for (int i = 0; i < count; ++i) {
    const double l = llo + (lhi - llo) * i / (count - 1);
    std::int64_t v = static_cast<std::int64_t>(std::llround(std::exp2(l)));
    v = std::max<std::int64_t>(multiple,
                               (v / multiple) * multiple);  // round down
    out.push_back(static_cast<double>(v));
  }
  // Deduplicate after rounding: coarse `multiple` values over small
  // ranges collide, and a repeated size would double-weight its row in
  // every model trained from the sweep.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<double> linear_sizes(double lo, double hi, double step) {
  BF_CHECK_MSG(step > 0 && hi >= lo, "invalid linear size range");
  std::vector<double> out;
  for (double v = lo; v <= hi + 1e-9; v += step) out.push_back(v);
  return out;
}

}  // namespace bf::profiling
