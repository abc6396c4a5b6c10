// On-disk run repository: the paper stores profiler output "in either a
// database or a structured repository (we used the latter)". Sweeps are
// stored as CSV files under a root directory, keyed by workload and
// architecture, so expensive collections can be reused across analyses.
//
// Stored entries are written atomically (temp file + rename, see
// bf::atomic_write_file) and sealed with a FNV-1a checksum footer
// (bf::seal). A corrupt entry — truncated, bit-rotted, garbage, or
// missing its footer — is quarantined on load (bf::quarantine_file
// renames it to "<entry>.quarantined") and reported as absent, so
// get_or_collect() transparently recollects instead of aborting the
// analysis.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace bf::profiling {

struct RepositoryOptions {
  /// Validate every loaded sweep against the bf::check counter
  /// invariants when its arch key resolves to a known architecture;
  /// throws bf::Error listing the violations. A repository entry that
  /// breaks a conservation law would silently poison every model trained
  /// from it, so this is on by default.
  bool validate_on_load = true;
};

class RunRepository {
 public:
  /// Creates `root` if it does not exist.
  explicit RunRepository(std::string root, RepositoryOptions options = {});

  /// Store a sweep dataset under (workload, arch); overwrites. The write
  /// is atomic and checksummed.
  void save(const std::string& workload, const std::string& arch,
            const ml::Dataset& ds) const;

  /// Load a stored sweep; std::nullopt when absent or quarantined.
  std::optional<ml::Dataset> load(const std::string& workload,
                                  const std::string& arch) const;

  bool contains(const std::string& workload, const std::string& arch) const;

  /// All (workload, arch) keys present, sorted. Quarantined entries are
  /// excluded.
  std::vector<std::pair<std::string, std::string>> keys() const;

  /// Load if present, else compute via `producer`, save, and return. A
  /// throwing producer leaves no trace in the repository (saves are
  /// atomic), and a corrupt cached entry is quarantined and recollected.
  template <typename Producer>
  ml::Dataset get_or_collect(const std::string& workload,
                             const std::string& arch,
                             Producer&& producer) const {
    if (auto existing = load(workload, arch)) return *std::move(existing);
    ml::Dataset ds = producer();
    save(workload, arch, ds);
    return ds;
  }

  const std::string& root() const { return root_; }

 private:
  std::string path_for(const std::string& workload,
                       const std::string& arch) const;

  std::string root_;
  RepositoryOptions options_;
};

}  // namespace bf::profiling
