#include "serve/registry.hpp"

#include <algorithm>
#include <ctime>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace bf::serve {
namespace {

/// UTC wall-clock timestamp of a promotion ("2026-08-07T12:34:56Z").
std::string now_utc() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &t);
#else
  gmtime_r(&t, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Relative tolerance of golden-probe canary validation. Bundle
/// round-trips are bit-identical, so healthy reloads pass at any
/// tolerance; the slack only absorbs float formatting in the probes.
constexpr double kCanaryRtol = 1e-9;

}  // namespace

const char* to_string(ReloadResult::Status status) {
  switch (status) {
    case ReloadResult::Status::kPromoted: return "promoted";
    case ReloadResult::Status::kUnchanged: return "unchanged";
    case ReloadResult::Status::kRolledBack: return "rolled_back";
    case ReloadResult::Status::kPinned: return "pinned";
    case ReloadResult::Status::kNotResident: return "not_resident";
    case ReloadResult::Status::kBusy: return "busy";
    case ReloadResult::Status::kBackoff: return "backoff";
  }
  return "unknown";
}

ModelRegistry::ModelRegistry(std::string model_dir, std::size_t capacity,
                             ReloadPolicy policy)
    : dir_(std::move(model_dir)),
      capacity_(capacity == 0 ? 1 : capacity),
      policy_(policy) {}

std::string ModelRegistry::path_for(const std::string& name) const {
  if (dir_.empty()) return name + kBundleSuffix;
  const char last = dir_.back();
  const std::string sep = (last == '/' || last == '\\') ? "" : "/";
  return dir_ + sep + name + kBundleSuffix;
}

std::uint64_t ModelRegistry::backoff_ms(std::uint64_t failures) const {
  if (policy_.backoff_initial_ms == 0 || failures == 0) return 0;
  std::uint64_t delay = policy_.backoff_initial_ms;
  for (std::uint64_t i = 1; i < failures; ++i) {
    if (delay >= policy_.backoff_max_ms / 2) return policy_.backoff_max_ms;
    delay *= 2;
  }
  return std::min(delay, policy_.backoff_max_ms);
}

void ModelRegistry::note_failure_locked(Lifecycle& lc,
                                        const std::string& error) {
  ++lc.consecutive_failures;
  lc.last_error = error;
  const std::uint64_t delay = backoff_ms(lc.consecutive_failures);
  // delay == 0 (backoff disabled) leaves retry_after in the past, so
  // every request retries the disk immediately.
  lc.retry_after = Clock::now() + std::chrono::milliseconds(delay);
}

std::shared_ptr<const LoadedModel> ModelRegistry::promote_locked(
    const std::string& name, BundleFile&& staged) {
  Lifecycle& lc = lifecycle_[name];
  auto model = std::make_shared<LoadedModel>();
  model->bundle = std::move(staged.bundle);
  model->generation = lc.next_generation++;
  model->checksum = std::move(staged.checksum);
  model->loaded_at = now_utc();
  model->size_bytes = staged.size_bytes;
  model->mtime_ns = staged.mtime_ns;
  lc.consecutive_failures = 0;
  lc.last_error.clear();

  std::promise<std::shared_ptr<const LoadedModel>> ready_promise;
  ready_promise.set_value(model);
  Entry entry;
  entry.future = ready_promise.get_future().share();
  entry.last_used = ++tick_;
  entry.id = next_id_++;
  entry.ready = true;
  entry.stat_size = staged.size_bytes;
  entry.stat_mtime_ns = staged.mtime_ns;
  entries_[name] = std::move(entry);
  ++stats_.promotions;
  evict_locked();
  return model;
}

std::shared_ptr<const LoadedModel> ModelRegistry::get(
    const std::string& name) {
  Future future;
  std::promise<std::shared_ptr<const LoadedModel>> promise;
  std::uint64_t my_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      ++stats_.hits;
      it->second.last_used = ++tick_;
      future = it->second.future;
    } else {
      // Fail fast inside the backoff window: the last load of this name
      // failed moments ago, so rethrow its error without a disk storm.
      auto lit = lifecycle_.find(name);
      if (lit != lifecycle_.end() && lit->second.consecutive_failures > 0 &&
          Clock::now() < lit->second.retry_after) {
        ++stats_.fast_fails;
        BF_FAIL("model " << name << " unavailable (failure backoff): "
                         << lit->second.last_error);
      }
      ++stats_.misses;
      ++stats_.loads;
      future = promise.get_future().share();
      my_id = next_id_++;
      Entry entry;
      entry.future = future;
      entry.last_used = ++tick_;
      entry.id = my_id;
      entries_.emplace(name, std::move(entry));
    }
  }

  if (my_id != 0) {
    // This thread won the single-flight race: perform the load outside
    // the lock so concurrent gets for *other* models are not serialised
    // behind disk I/O.
    try {
      BF_CHECK_MSG(!fault::should_fire(fault::points::kServeCacheLoadFail),
                   "injected load failure for model " << name);
      const std::string path = path_for(name);
      BundleFile staged = load_bundle_file(path);
      std::string why;
      if (!validate_canary(staged.bundle, kCanaryRtol, &why)) {
        quarantine_bundle(path);
        BF_FAIL("model " << name << " failed canary validation: " << why);
      }
      std::shared_ptr<const LoadedModel> model;
      {
        std::lock_guard<std::mutex> lock(mu_);
        Lifecycle& lc = lifecycle_[name];
        auto loaded = std::make_shared<LoadedModel>();
        loaded->bundle = std::move(staged.bundle);
        loaded->generation = lc.next_generation++;
        loaded->checksum = std::move(staged.checksum);
        loaded->loaded_at = now_utc();
        loaded->size_bytes = staged.size_bytes;
        loaded->mtime_ns = staged.mtime_ns;
        lc.consecutive_failures = 0;
        lc.last_error.clear();
        model = loaded;
        auto it = entries_.find(name);
        if (it != entries_.end() && it->second.id == my_id) {
          it->second.ready = true;
          it->second.stat_size = staged.size_bytes;
          it->second.stat_mtime_ns = staged.mtime_ns;
        }
        // Evict only once the load succeeded: a failed load must never
        // push a good bundle out of the cache.
        evict_locked();
      }
      promise.set_value(std::move(model));
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.failures;
        note_failure_locked(lifecycle_[name], e.what());
        auto it = entries_.find(name);
        // Erase only our own entry — a later retry may already have
        // replaced it.
        if (it != entries_.end() && it->second.id == my_id) {
          entries_.erase(it);
        }
      }
      promise.set_exception(std::current_exception());
    }
  }

  return future.get();  // rethrows the load error for every waiter
}

ReloadResult ModelRegistry::reload(const std::string& name) {
  std::shared_ptr<const LoadedModel> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.reloads;
    auto it = entries_.find(name);
    if (it == entries_.end() || !it->second.ready) {
      return {ReloadResult::Status::kNotResident, 0, "model not resident"};
    }
    current = it->second.future.get();  // ready: does not block
    Lifecycle& lc = lifecycle_[name];
    if (lc.pinned) {
      return {ReloadResult::Status::kPinned, current->generation,
              "model pinned"};
    }
    if (lc.reloading) {
      return {ReloadResult::Status::kBusy, current->generation,
              "reload already in flight"};
    }
    lc.reloading = true;
  }

  // Stage the replacement off the request path: parse, checksum-compare
  // and canary-validate happen outside the lock, so in-flight batches
  // keep predicting through the current generation meanwhile.
  const std::string path = path_for(name);
  try {
    BundleFile staged = load_bundle_file(path);
    if (staged.checksum == current->checksum) {
      std::lock_guard<std::mutex> lock(mu_);
      lifecycle_[name].reloading = false;
      auto it = entries_.find(name);
      if (it != entries_.end() && it->second.ready) {
        // Refresh the stat snapshot so a content-identical touch stops
        // triggering re-reads on every staleness poll.
        it->second.stat_size = staged.size_bytes;
        it->second.stat_mtime_ns = staged.mtime_ns;
      }
      return {ReloadResult::Status::kUnchanged, current->generation, ""};
    }
    std::string why;
    if (!validate_canary(staged.bundle, kCanaryRtol, &why)) {
      quarantine_bundle(path);
      std::lock_guard<std::mutex> lock(mu_);
      Lifecycle& lc = lifecycle_[name];
      lc.reloading = false;
      ++lc.rollbacks;
      ++stats_.rollbacks;
      note_failure_locked(lc, why);
      return {ReloadResult::Status::kRolledBack, current->generation, why};
    }
    std::lock_guard<std::mutex> lock(mu_);
    Lifecycle& lc = lifecycle_[name];
    lc.reloading = false;
    if (lc.pinned) {
      // Pinned while we were staging: the pin wins.
      return {ReloadResult::Status::kPinned, current->generation,
              "model pinned"};
    }
    auto model = promote_locked(name, std::move(staged));
    return {ReloadResult::Status::kPromoted, model->generation, ""};
  } catch (const std::exception& e) {
    // Corrupt replacement (already quarantined by the artifact layer):
    // keep serving the old generation, count a rollback, arm backoff.
    std::lock_guard<std::mutex> lock(mu_);
    Lifecycle& lc = lifecycle_[name];
    lc.reloading = false;
    ++lc.rollbacks;
    ++stats_.rollbacks;
    note_failure_locked(lc, e.what());
    return {ReloadResult::Status::kRolledBack, current->generation, e.what()};
  }
}

ReloadResult ModelRegistry::check_stale(const std::string& name) {
  std::shared_ptr<const LoadedModel> current;
  std::uint64_t stat_size = 0;
  std::int64_t stat_mtime_ns = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end() || !it->second.ready) {
      return {ReloadResult::Status::kNotResident, 0, "model not resident"};
    }
    current = it->second.future.get();
    Lifecycle& lc = lifecycle_[name];
    if (lc.pinned) {
      return {ReloadResult::Status::kPinned, current->generation,
              "model pinned"};
    }
    if (lc.consecutive_failures > 0 && Clock::now() < lc.retry_after) {
      return {ReloadResult::Status::kBackoff, current->generation,
              lc.last_error};
    }
    stat_size = it->second.stat_size;
    stat_mtime_ns = it->second.stat_mtime_ns;
  }
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;
  if (!stat_bundle(path_for(name), &size, &mtime_ns)) {
    // File deleted out from under us: keep serving the resident
    // generation (shared_ptr ownership makes that safe indefinitely).
    return {ReloadResult::Status::kUnchanged, current->generation, ""};
  }
  if (size == stat_size && mtime_ns == stat_mtime_ns) {
    return {ReloadResult::Status::kUnchanged, current->generation, ""};
  }
  return reload(name);
}

std::vector<std::pair<std::string, ReloadResult>> ModelRegistry::poll_stale() {
  std::vector<std::pair<std::string, ReloadResult>> events;
  for (const auto& name : resident()) {
    ReloadResult result = check_stale(name);
    if (result.status != ReloadResult::Status::kUnchanged) {
      events.emplace_back(name, std::move(result));
    }
  }
  return events;
}

bool ModelRegistry::pin(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  lifecycle_[name].pinned = true;
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.ready;
}

bool ModelRegistry::unpin(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  lifecycle_[name].pinned = false;
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.ready;
}

std::vector<std::string> ModelRegistry::resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, entry] : entries_) {
    if (entry.ready) names.push_back(name);
  }
  return names;
}

std::vector<ModelInfo> ModelRegistry::models() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ModelInfo> infos;
  for (const auto& [name, entry] : entries_) {
    if (!entry.ready) continue;
    const auto model = entry.future.get();  // ready: does not block
    ModelInfo info;
    info.name = name;
    info.generation = model->generation;
    info.checksum = model->checksum;
    info.loaded_at = model->loaded_at;
    info.power = model->bundle.power.has_value();
    auto lit = lifecycle_.find(name);
    if (lit != lifecycle_.end()) {
      info.rollbacks = lit->second.rollbacks;
      info.pinned = lit->second.pinned;
    }
    infos.push_back(std::move(info));
  }
  return infos;
}

RegistryStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ModelRegistry::evict_locked() {
  while (entries_.size() > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready) continue;
      auto lit = lifecycle_.find(it->first);
      if (lit != lifecycle_.end() && lit->second.pinned) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    // Everything over capacity is still loading or pinned: let the cache
    // run hot rather than evicting an in-flight load or a pinned model.
    if (victim == entries_.end()) return;
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

}  // namespace bf::serve
