#include "serve/artifact.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "common/version.hpp"
#include "guard/guard.hpp"
#include "profiling/sweep.hpp"

namespace bf::serve {
namespace {

/// Collapse whitespace to '_' so meta fields stay single tokens.
std::string tokenize_field(const std::string& s) {
  std::string out = s.empty() ? std::string("-") : s;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

/// Move a corrupt bundle out of the registry's way. Rename is atomic;
/// when it fails (cross-device, permissions) fall back to removal so a
/// poisoned file cannot be retried forever.
void quarantine(const std::string& path) {
  const std::string target = path + ".quarantined";
  if (std::rename(path.c_str(), target.c_str()) != 0) {
    std::remove(path.c_str());
  }
}

std::string payload_to_string(const ModelBundle& bundle) {
  std::ostringstream os;
  os << "bf_bundle_meta 2\n";
  os << "name " << tokenize_field(bundle.meta.name) << "\n";
  os << "workload " << tokenize_field(bundle.meta.workload) << "\n";
  os << "arch " << tokenize_field(bundle.meta.arch) << "\n";
  // Provenance is free text (version strings contain spaces); it is the
  // one rest-of-line field in the format.
  os << "provenance " << bundle.meta.provenance << "\n";
  os << "trained_rows " << bundle.meta.trained_rows << "\n";
  os << "schema " << bundle.meta.schema.size();
  for (const auto& name : bundle.meta.schema) os << ' ' << name;
  os << "\n";
  os.precision(17);
  os << "probes " << bundle.meta.probes.size();
  for (const auto& p : bundle.meta.probes) {
    os << ' ' << p.size << ' ' << p.predicted_ms;
  }
  os << "\n";
  bundle.predictor.save(os);
  os << "power " << (bundle.power.has_value() ? 1 : 0) << "\n";
  if (bundle.power.has_value()) bundle.power->save(os);
  return os.str();
}

ModelBundle payload_from_string(const std::string& payload,
                                const std::string& origin) {
  std::istringstream is(payload);
  read_format_version(is, "bf_bundle_meta", 2);
  ModelBundle bundle;
  std::string tag;
  is >> tag >> bundle.meta.name;
  BF_CHECK_MSG(is && tag == "name", origin << ": bad bundle meta (name)");
  is >> tag >> bundle.meta.workload;
  BF_CHECK_MSG(is && tag == "workload",
               origin << ": bad bundle meta (workload)");
  is >> tag >> bundle.meta.arch;
  BF_CHECK_MSG(is && tag == "arch", origin << ": bad bundle meta (arch)");
  is >> tag;
  BF_CHECK_MSG(is && tag == "provenance",
               origin << ": bad bundle meta (provenance)");
  std::getline(is, bundle.meta.provenance);
  if (!bundle.meta.provenance.empty() &&
      bundle.meta.provenance.front() == ' ') {
    bundle.meta.provenance.erase(0, 1);
  }
  is >> tag >> bundle.meta.trained_rows;
  BF_CHECK_MSG(is && tag == "trained_rows",
               origin << ": bad bundle meta (trained_rows)");
  std::size_t n_schema = 0;
  is >> tag >> n_schema;
  BF_CHECK_MSG(is && tag == "schema" && n_schema <= 10'000,
               origin << ": bad bundle meta (schema)");
  bundle.meta.schema.resize(n_schema);
  for (auto& name : bundle.meta.schema) {
    is >> name;
    BF_CHECK_MSG(is, origin << ": truncated bundle schema");
  }
  std::size_t n_probes = 0;
  is >> tag >> n_probes;
  BF_CHECK_MSG(is && tag == "probes" && n_probes <= 10'000,
               origin << ": bad bundle meta (probes)");
  bundle.meta.probes.resize(n_probes);
  for (auto& p : bundle.meta.probes) {
    is >> p.size >> p.predicted_ms;
    BF_CHECK_MSG(is, origin << ": truncated bundle probes");
  }
  bundle.predictor = core::ProblemScalingPredictor::load(is);
  // The schema must describe the model it travels with: retained
  // counters drive the counter chains and the reduced forest inputs.
  BF_CHECK_MSG(bundle.meta.schema == bundle.predictor.retained(),
               origin << ": bundle schema does not match embedded model");
  int has_power = 0;
  is >> tag >> has_power;
  BF_CHECK_MSG(is && tag == "power" && (has_power == 0 || has_power == 1),
               origin << ": bad bundle power record");
  if (has_power == 1) bundle.power = bf::power::PowerPredictor::load(is);
  return bundle;
}

/// Full parse of bundle file content, keeping the payload checksum the
/// reload layer supervises. The stat fields of the returned BundleFile
/// are left zero; load_bundle_file fills them from the filesystem.
BundleFile bundle_file_from_string(const std::string& content,
                                   const std::string& origin) {
  std::istringstream is(content);
  read_format_version(is, "bfmodel", kBundleFormatVersion);
  std::string tag;
  std::size_t payload_size = 0;
  is >> tag >> payload_size;
  BF_CHECK_MSG(is && tag == "bytes",
               origin << ": bad bundle header (bytes)");
  std::string algo;
  std::string want_hex;
  is >> tag >> algo >> want_hex;
  BF_CHECK_MSG(is && tag == "checksum" && algo == "fnv1a64" &&
                   want_hex.size() == 16,
               origin << ": bad bundle header (checksum)");
  // Exactly one newline separates the header from the payload; anything
  // else would shift the byte count and is corruption.
  BF_CHECK_MSG(is.get() == '\n', origin << ": bad bundle header framing");
  std::string payload(payload_size, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(payload_size));
  BF_CHECK_MSG(is.gcount() == static_cast<std::streamsize>(payload_size),
               origin << ": truncated bundle payload (want " << payload_size
                      << " bytes, got " << is.gcount() << ")");
  const std::string got_hex = to_hex64(fnv1a64(payload));
  BF_CHECK_MSG(got_hex == want_hex,
               origin << ": bundle checksum mismatch (stored " << want_hex
                      << ", computed " << got_hex << ")");
  BundleFile file;
  file.bundle = payload_from_string(payload, origin);
  file.checksum = got_hex;
  return file;
}

/// Shared read path of load_bundle / load_bundle_file: read, inject the
/// bitrot fault, parse; quarantine the file on any parse failure.
BundleFile read_bundle_file(const std::string& path) {
  auto content = read_file(path);
  BF_CHECK_MSG(content.has_value(), "cannot open model bundle " << path);
  if (fault::should_fire(fault::points::kServeArtifactBitrot) &&
      !content->empty()) {
    // Flip one bit mid-file — deep enough to land in the payload — to
    // emulate storage rot between the writer and this reader.
    (*content)[content->size() / 2] ^= 0x01;
  }
  try {
    BundleFile file = bundle_file_from_string(*content, path);
    // A staged replacement bundle that parses cleanly can still be
    // declared corrupt by the reload chaos point (torn-replacement
    // emulation); it takes the same quarantine path as real damage.
    BF_CHECK_MSG(!fault::should_fire(fault::points::kServeReloadCorrupt),
                 path << ": injected reload corruption");
    file.size_bytes = static_cast<std::uint64_t>(content->size());
    return file;
  } catch (const Error&) {
    quarantine(path);
    throw;
  }
}

}  // namespace

std::string bundle_to_string(const ModelBundle& bundle) {
  const std::string payload = payload_to_string(bundle);
  std::ostringstream os;
  os << "bfmodel " << kBundleFormatVersion << "\n";
  os << "bytes " << payload.size() << "\n";
  os << "checksum fnv1a64 " << to_hex64(fnv1a64(payload)) << "\n";
  os << payload;
  return os.str();
}

ModelBundle bundle_from_string(const std::string& content,
                               const std::string& origin) {
  return bundle_file_from_string(content, origin).bundle;
}

void save_bundle(const std::string& path, const ModelBundle& bundle) {
  atomic_write_file(path, bundle_to_string(bundle));
}

void quarantine_bundle(const std::string& path) { quarantine(path); }

bool stat_bundle(const std::string& path, std::uint64_t* size_bytes,
                 std::int64_t* mtime_ns) {
  std::error_code ec;
  const auto status = std::filesystem::status(path, ec);
  if (ec || !std::filesystem::is_regular_file(status)) return false;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return false;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return false;
  if (size_bytes != nullptr) *size_bytes = static_cast<std::uint64_t>(size);
  if (mtime_ns != nullptr) {
    *mtime_ns = static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            mtime.time_since_epoch())
            .count());
  }
  return true;
}

ModelBundle load_bundle(const std::string& path) {
  return read_bundle_file(path).bundle;
}

BundleFile load_bundle_file(const std::string& path) {
  BundleFile file = read_bundle_file(path);
  // The stat snapshot is taken after the successful read: a writer that
  // lands between read and stat makes the snapshot *newer* than the
  // loaded content, so the watcher re-detects the change — staleness
  // detection errs toward an extra reload, never a missed one.
  std::uint64_t size_bytes = 0;
  std::int64_t mtime_ns = 0;
  if (stat_bundle(path, &size_bytes, &mtime_ns)) {
    file.size_bytes = size_bytes;
    file.mtime_ns = mtime_ns;
  }
  return file;
}

bool validate_canary(const ModelBundle& bundle, double rtol,
                     std::string* why) {
  const auto fail = [why](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  if (fault::should_fire(fault::points::kServeReloadCanaryFail)) {
    return fail("injected canary failure");
  }
  std::vector<GoldenProbe> probes = bundle.meta.probes;
  const bool recorded = !probes.empty();
  if (!recorded) {
    // Probe-less bundle: synthesize sizes from the training hull and
    // check the predictions are well-formed (there is no recorded
    // output to compare against).
    const auto* range = bundle.predictor.hull().range(profiling::kSizeColumn);
    if (range == nullptr) return true;  // no size column in the hull
    const double lo = std::max(range->lo, 1.0);
    const double hi = std::max(range->hi, lo);
    constexpr int kSynthesized = 3;
    for (int i = 0; i < kSynthesized; ++i) {
      const double t =
          kSynthesized == 1 ? 0.0 : static_cast<double>(i) / (kSynthesized - 1);
      probes.push_back({std::exp(std::log(lo) + t * (std::log(hi) - std::log(lo))),
                        0.0});
    }
  }
  for (const auto& p : probes) {
    guard::PredictionGuardRecord pred;
    try {
      pred = bundle.predictor.predict_guarded(p.size);
    } catch (const std::exception& e) {
      std::ostringstream os;
      os << "canary probe size=" << p.size << " threw: " << e.what();
      return fail(os.str());
    }
    if (!std::isfinite(pred.value) || pred.value < 0.0) {
      std::ostringstream os;
      os << "canary probe size=" << p.size << " produced non-finite or "
         << "negative prediction " << pred.value;
      return fail(os.str());
    }
    const char grade = guard::grade_letter(pred.grade);
    if (grade != 'A' && grade != 'B' && grade != 'C') {
      std::ostringstream os;
      os << "canary probe size=" << p.size << " is not guard-gradeable"
         << " (grade " << grade << ")";
      return fail(os.str());
    }
    if (recorded) {
      const double tol = rtol * std::max(std::abs(p.predicted_ms), 1e-12);
      if (std::abs(pred.value - p.predicted_ms) > tol) {
        std::ostringstream os;
        os.precision(17);
        os << "canary probe size=" << p.size << " predicted " << pred.value
           << " but the bundle recorded " << p.predicted_ms << " (rtol "
           << rtol << ")";
        return fail(os.str());
      }
    }
  }
  return true;
}

void export_model(const std::string& path, const std::string& name,
                  const std::string& workload, const std::string& arch,
                  std::size_t trained_rows,
                  const core::ProblemScalingPredictor& predictor,
                  std::size_t probe_count,
                  const bf::power::PowerPredictor* power) {
  ModelBundle bundle;
  if (power != nullptr) bundle.power = *power;
  bundle.meta.name = name;
  bundle.meta.workload = workload;
  bundle.meta.arch = arch;
  bundle.meta.provenance = version_string();
  bundle.meta.trained_rows = trained_rows;
  bundle.meta.schema = predictor.retained();
  bundle.predictor = predictor;
  // Record golden probes: log-spaced sizes across the training hull,
  // answered by the exporter's own predictor. Round-trips are
  // bit-identical, so a healthy reload reproduces these outputs exactly.
  const auto* range = predictor.hull().range(profiling::kSizeColumn);
  if (probe_count > 0 && range != nullptr) {
    const double lo = std::max(range->lo, 1.0);
    const double hi = std::max(range->hi, lo);
    bundle.meta.probes.reserve(probe_count);
    for (std::size_t i = 0; i < probe_count; ++i) {
      const double t = probe_count == 1
                           ? 0.0
                           : static_cast<double>(i) /
                                 static_cast<double>(probe_count - 1);
      const double size =
          std::exp(std::log(lo) + t * (std::log(hi) - std::log(lo)));
      bundle.meta.probes.push_back(
          {size, predictor.predict_guarded(size).value});
    }
  }
  save_bundle(path, bundle);
}

}  // namespace bf::serve
