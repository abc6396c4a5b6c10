// Thread-safe model registry: the serving layer's supervised bundle cache.
//
// get() resolves a model name to a loaded, immutable bundle generation.
// Loads are single-flight — when N threads request a bundle that is not
// resident, exactly one thread performs the disk load while the others
// wait on a shared future, so a popular model is never parsed twice
// concurrently. Resident bundles are evicted least-recently-used once the
// cache holds more than `capacity` completed entries; shared_ptr
// ownership keeps an evicted generation alive for requests already
// holding it.
//
// Hot reload (supervised, reversible): the registry tracks each bundle's
// on-disk identity — path, the fnv1a64 checksum of its footer, outer
// format version, stat snapshot — plus a per-name monotonically increasing
// generation counter that survives eviction. reload(name) stages the new
// file off the request path, validates it against the golden-probe
// canary, and only then atomically promotes it via shared_ptr swap:
// in-flight batches keep the generation they pinned, so no request ever
// sees a torn model. A corrupt or canary-failing replacement is
// quarantined, the old generation keeps serving, and a rollback is
// counted. check_stale()/poll_stale() drive watch-style staleness
// detection (stat mtime/size first, re-checksum on change) with bounded
// exponential backoff after failures; pin(name) freezes a generation
// against both reload and eviction.
//
// A failed load (missing file, corrupt bundle, injected
// serve.cache.load_fail fault) propagates its error to every waiter and
// removes the cache entry; subsequent requests within the backoff window
// fail fast on the cached error instead of turning every miss into a
// disk storm.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/artifact.hpp"

namespace bf::serve {

/// One immutable, promoted model generation. Requests pin it with a
/// shared_ptr for the whole batch; reloads swap the registry slot but
/// never mutate a LoadedModel in place.
struct LoadedModel {
  ModelBundle bundle;
  std::uint64_t generation = 0;  ///< per-name, monotonic, survives eviction
  std::string checksum;          ///< the bundle's footer checksum (hex)
  std::string loaded_at;         ///< UTC timestamp of the promotion
};

/// Reload supervision knobs (the PR 2 sweep retry-policy shape: an
/// initial delay doubling per consecutive failure, capped).
struct ReloadPolicy {
  /// First-failure backoff; 0 disables backoff entirely (every request
  /// retries the disk — the pre-supervision behaviour, used by tests).
  std::uint64_t backoff_initial_ms = 100;
  std::uint64_t backoff_max_ms = 5000;
};

struct ReloadResult {
  enum class Status {
    kPromoted,     ///< new generation validated and swapped in
    kUnchanged,    ///< on-disk bundle identical (checksum match)
    kRolledBack,   ///< staged bundle rejected; old generation kept
    kPinned,       ///< model pinned; reload refused
    kNotResident,  ///< nothing loaded under this name
    kBusy,         ///< another reload of this name is in flight
    kBackoff,      ///< within the failure backoff window; not retried
  };
  Status status = Status::kUnchanged;
  std::uint64_t generation = 0;  ///< generation serving after the call
  std::string error;             ///< first violation when rolled back
};

/// Per-resident-model identity row for the stats reply.
struct ModelInfo {
  std::string name;
  std::uint64_t generation = 0;
  std::string checksum;
  std::string loaded_at;
  std::uint64_t rollbacks = 0;
  bool pinned = false;
  bool power = false;  ///< bundle carries the power record
};

struct RegistryStats {
  std::uint64_t hits = 0;        ///< served from a resident entry
  std::uint64_t misses = 0;      ///< entry not resident; a load started
  std::uint64_t loads = 0;       ///< disk loads actually performed
  std::uint64_t evictions = 0;   ///< LRU evictions
  std::uint64_t failures = 0;    ///< loads that threw
  std::uint64_t fast_fails = 0;  ///< misses rejected inside the backoff window
  std::uint64_t reloads = 0;     ///< reload attempts (admin verb or watcher)
  std::uint64_t promotions = 0;  ///< reloads that swapped in a new generation
  std::uint64_t rollbacks = 0;   ///< reloads rejected (corrupt / canary)
};

class ModelRegistry {
 public:
  /// Bundles live in `model_dir` as "<name>.bfmodel". `capacity` bounds
  /// the number of resident bundles (>= 1).
  explicit ModelRegistry(std::string model_dir, std::size_t capacity = 8,
                         ReloadPolicy policy = {});

  /// Resolve `name` to its loaded bundle generation, loading from disk
  /// on a miss. Throws bf::Error when the bundle is missing or corrupt
  /// (corrupt files are quarantined by the artifact layer) — and,
  /// within the backoff window after a failed load, fails fast on the
  /// cached error without touching the disk.
  std::shared_ptr<const LoadedModel> get(const std::string& name);

  /// Force a reload of a resident model: stage the on-disk bundle,
  /// canary-validate, promote atomically. Explicit reloads bypass the
  /// failure backoff window (an operator forcing a retry means it).
  ReloadResult reload(const std::string& name);

  /// Watch-style staleness check: stat the file (cheap) and reload only
  /// when size/mtime changed since the resident generation was loaded.
  /// Honours pin and the failure backoff window.
  ReloadResult check_stale(const std::string& name);

  /// check_stale() every resident model; returns the names whose result
  /// was anything but kUnchanged, paired with that result.
  std::vector<std::pair<std::string, ReloadResult>> poll_stale();

  /// Freeze / unfreeze a model's current generation: a pinned model is
  /// exempt from reload, staleness promotion and LRU eviction. Returns
  /// true when the model is currently resident.
  bool pin(const std::string& name);
  bool unpin(const std::string& name);

  /// Disk path a model name resolves to.
  std::string path_for(const std::string& name) const;

  /// Names of resident (successfully loaded) bundles, sorted.
  std::vector<std::string> resident() const;

  /// Identity rows of every resident bundle, sorted by name.
  std::vector<ModelInfo> models() const;

  RegistryStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;
  using Future = std::shared_future<std::shared_ptr<const LoadedModel>>;

  struct Entry {
    Future future;
    std::uint64_t last_used = 0;
    std::uint64_t id = 0;  ///< identity for failure-path erasure
    bool ready = false;    ///< set once the load completed successfully
    /// Stat snapshot of the file content this entry was loaded from;
    /// refreshed on checksum-identical reloads so a touch that changes
    /// nothing does not re-read the bundle on every poll.
    std::uint64_t stat_size = 0;
    std::int64_t stat_mtime_ns = 0;
  };

  /// Per-name lifecycle state. Lives in a separate map so it survives
  /// eviction: a model that is evicted and re-loaded continues its
  /// generation sequence instead of restarting at 1.
  struct Lifecycle {
    std::uint64_t next_generation = 1;
    std::uint64_t rollbacks = 0;
    bool pinned = false;
    bool reloading = false;  ///< a staged reload is in flight
    std::uint64_t consecutive_failures = 0;
    Clock::time_point retry_after{};  ///< failure backoff deadline
    std::string last_error;
  };

  /// Evict least-recently-used ready entries beyond capacity. Entries
  /// still loading are never evicted (eviction mid-flight would let a
  /// second load start and break single-flight accounting); pinned
  /// entries are never evicted either.
  void evict_locked();

  /// Current backoff delay after `failures` consecutive failures
  /// (0 when backoff is disabled).
  std::uint64_t backoff_ms(std::uint64_t failures) const;

  /// Record a load/reload failure in the lifecycle: bump the failure
  /// count, arm the backoff deadline, cache the error text.
  void note_failure_locked(Lifecycle& lc, const std::string& error);

  /// Build the next generation of `name` from a validated staged file
  /// (moving its bundle and checksum out) and clear the name's failure
  /// backoff. Caller holds the lock.
  std::shared_ptr<const LoadedModel> next_generation_locked(
      const std::string& name, BundleFile& staged);

  /// Install a reloaded generation as the ready entry under `name`
  /// and count the promotion. Returns the promoted model. Caller holds
  /// the lock.
  std::shared_ptr<const LoadedModel> promote_locked(const std::string& name,
                                                    BundleFile&& staged);

  mutable std::mutex mu_;
  std::string dir_;
  std::size_t capacity_;
  ReloadPolicy policy_;
  std::uint64_t tick_ = 0;
  std::uint64_t next_id_ = 1;
  RegistryStats stats_;
  std::map<std::string, Entry> entries_;
  std::map<std::string, Lifecycle> lifecycle_;
};

/// Human-readable tag of a reload status ("promoted", "rolled_back", ...)
/// for stats replies and logs.
const char* to_string(ReloadResult::Status status);

}  // namespace bf::serve
