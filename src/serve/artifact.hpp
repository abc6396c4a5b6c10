// .bfmodel artifact bundles — the train-once / predict-many layer.
//
// A bundle serialises everything one problem-scaling prediction needs:
// the reduced random forest, the per-counter fallback chains, the
// DomainGuard training hull (with its margin), sanity envelopes and the
// architecture whose physical caps clamp predictions — plus provenance
// (who trained it, with which build) and a counter-name schema. The
// on-disk format is a three-line header
//
//   bfmodel <format_version>
//   bytes <payload_size>
//   checksum fnv1a64 <hex64>
//
// followed by exactly `payload_size` payload bytes. The checksum covers
// the payload, so truncation, bit rot and torn writes are all detected
// on load; writes go through bf::atomic_write_file so readers never see
// a partial bundle. A corrupt bundle is quarantined (renamed to
// "<path>.quarantined", the run-repository convention) and the load
// throws — the serving layer degrades to an error reply, never a crash.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "power/predictor.hpp"

namespace bf::serve {

/// Version of the outer bundle format, the only one this build reads or
/// writes. Every record inside the payload likewise has exactly one
/// readable version; a bundle written by an older build is rejected (and
/// quarantined) rather than converted — re-export it with
/// `bf_analyze --export-model`.
inline constexpr int kBundleFormatVersion = 6;

/// File suffix of model bundles ("reduce1.bfmodel").
inline constexpr const char* kBundleSuffix = ".bfmodel";

/// One golden-probe canary point: a problem size and the guarded
/// prediction the exporter's in-memory predictor produced for it. Since
/// bundle round-trips are bit-identical, a healthy reload reproduces
/// these outputs exactly; a torn, stale-schema or otherwise damaged
/// bundle that still parses will not.
struct GoldenProbe {
  double size = 0.0;
  double predicted_ms = 0.0;
};

struct BundleMeta {
  /// Model name (registry display key); sanitised to one token.
  std::string name;
  /// Workload and architecture the sweep was collected on.
  std::string workload;
  std::string arch;
  /// Build identity of the exporter (bf::version_string()).
  std::string provenance;
  /// Rows of the training sweep.
  std::size_t trained_rows = 0;
  /// Counter-name schema: the reduced model's predictor columns, in
  /// order. Validated against the embedded forest on load.
  std::vector<std::string> schema;
  /// Golden-probe record written at export time. A bundle exported
  /// without probes is canary-checked against hull-synthesized sizes
  /// instead.
  std::vector<GoldenProbe> probes;
};

struct ModelBundle {
  BundleMeta meta;
  core::ProblemScalingPredictor predictor;
  /// Power response predictor (optional record): present only when the
  /// exporter embedded one; replies then carry power_w/energy_j fields.
  std::optional<bf::power::PowerPredictor> power;
};

/// A bundle plus the on-disk identity the hot-reload layer supervises:
/// payload checksum and the stat snapshot used for cheap staleness
/// detection.
struct BundleFile {
  ModelBundle bundle;
  std::string checksum;  ///< fnv1a64 hex of the payload
  std::uint64_t size_bytes = 0;
  std::int64_t mtime_ns = 0;
};

/// Stat a bundle file without reading it (the staleness fast path).
/// Returns false when the file does not exist.
bool stat_bundle(const std::string& path, std::uint64_t* size_bytes,
                 std::int64_t* mtime_ns);

/// Serialise a bundle to its full file content (header + payload).
std::string bundle_to_string(const ModelBundle& bundle);

/// Parse and validate bundle file content. `origin` names the source in
/// diagnostics. Throws bf::Error on any validation failure (magic,
/// version, checksum, truncation, schema mismatch).
ModelBundle bundle_from_string(const std::string& content,
                               const std::string& origin);

/// Write a bundle atomically (temp file + rename).
void save_bundle(const std::string& path, const ModelBundle& bundle);

/// Read, verify and parse a bundle. Corrupt bundles are quarantined to
/// "<path>.quarantined" before the error is thrown, so the next load
/// attempt fails fast on a missing file instead of re-parsing garbage.
/// The fault point serve.artifact.bitrot flips one payload byte between
/// disk and the parser to prove that path works.
ModelBundle load_bundle(const std::string& path);

/// load_bundle plus the identity record the registry's reload
/// supervision needs (checksum, stat snapshot).
BundleFile load_bundle_file(const std::string& path);

/// Move a rejected bundle to "<path>.quarantined" (the load path does
/// this automatically on parse failure; the reload path calls it for
/// bundles that parse but fail canary validation).
void quarantine_bundle(const std::string& path);

/// Golden-probe canary validation: every probe prediction must be
/// finite, non-negative, guard-gradeable, and within `rtol` relative
/// tolerance of the bundle's own recorded output. Bundles without a
/// probe record are checked for finiteness on sizes synthesized from
/// the training hull. The fault point serve.reload.canary_fail forces a
/// failure deterministically. Returns true when the canary passes;
/// otherwise fills `why` with the first violation.
bool validate_canary(const ModelBundle& bundle, double rtol,
                     std::string* why);

/// Convenience: assemble meta + predictor and save. `probe_count` > 0
/// records that many golden probes (log-spaced across the training
/// hull) into the bundle for reload-time canary validation. A non-null
/// `power` predictor is embedded as the optional power record.
void export_model(const std::string& path, const std::string& name,
                  const std::string& workload, const std::string& arch,
                  std::size_t trained_rows,
                  const core::ProblemScalingPredictor& predictor,
                  std::size_t probe_count = 5,
                  const bf::power::PowerPredictor* power = nullptr);

}  // namespace bf::serve
