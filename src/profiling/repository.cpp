#include "profiling/repository.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "check/check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"
#include "gpusim/arch.hpp"

namespace fs = std::filesystem;

namespace bf::profiling {
namespace {

// Keep keys filesystem-safe.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  BF_CHECK_MSG(!out.empty(), "empty repository key");
  return out;
}

// Content checksum footer, last line of every entry. The hash covers
// every byte before the footer, so truncation, bit rot and torn writes
// are all detected on load.
constexpr const char* kChecksumPrefix = "#checksum,fnv1a64,";

std::string with_footer(const std::string& payload) {
  return payload + kChecksumPrefix + to_hex64(fnv1a64(payload)) + "\n";
}

/// Split a stored entry into payload + verified footer. Returns the
/// payload, or an error reason via `why`.
std::optional<std::string> verify_footer(const std::string& content,
                                         std::string& why) {
  if (content.empty()) {
    why = "file is empty";
    return std::nullopt;
  }
  const std::size_t pos = content.rfind(kChecksumPrefix);
  if (pos == std::string::npos ||
      (pos != 0 && content[pos - 1] != '\n')) {
    why = "missing checksum footer";
    return std::nullopt;
  }
  const std::string payload = content.substr(0, pos);
  const std::string footer =
      std::string(trim(std::string_view(content).substr(pos)));
  const std::string expected =
      kChecksumPrefix + to_hex64(fnv1a64(payload));
  if (footer != expected) {
    why = "checksum mismatch (stored " + footer.substr(footer.rfind(',') + 1) +
          ", computed " + expected.substr(expected.rfind(',') + 1) + ")";
    return std::nullopt;
  }
  return payload;
}

/// Post-save disk-rot fault points (see bf::fault): a torn write leaves
/// a truncated entry; bit rot flips one byte mid-file.
void inject_storage_faults(const std::string& path) {
  if (!fault::active()) return;
  if (fault::should_fire(fault::points::kRepoTornWrite)) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (!ec && size > 1) fs::resize_file(path, size / 2, ec);
  }
  if (fault::should_fire(fault::points::kRepoBitrot)) {
    if (auto content = read_file(path); content && !content->empty()) {
      (*content)[content->size() / 2] ^= 0x20;
      atomic_write_file(path, *content);
    }
  }
}

}  // namespace

RunRepository::RunRepository(std::string root, RepositoryOptions options)
    : root_(std::move(root)), options_(options) {
  BF_CHECK_MSG(!root_.empty(), "empty repository root");
  fs::create_directories(root_);
}

std::string RunRepository::path_for(const std::string& workload,
                                    const std::string& arch) const {
  return root_ + "/" + sanitize(workload) + "__" + sanitize(arch) + ".csv";
}

void RunRepository::save(const std::string& workload, const std::string& arch,
                         const ml::Dataset& ds) const {
  const std::string path = path_for(workload, arch);
  std::ostringstream os;
  ds.to_csv().write(os);
  atomic_write_file(path, with_footer(os.str()));
  inject_storage_faults(path);
}

std::optional<ml::Dataset> RunRepository::handle_corrupt(
    const std::string& path, const std::string& reason) const {
  if (!options_.quarantine_on_corrupt) {
    BF_FAIL("corrupt repository entry " << path << ": " << reason);
  }
  const std::string quarantined = path + ".quarantined";
  std::error_code ec;
  fs::rename(path, quarantined, ec);
  if (ec) {
    // Cannot move it aside; remove so the entry is recollected anyway.
    fs::remove(path, ec);
  }
  BF_WARN("repository entry " << path << " is corrupt (" << reason
                              << "); quarantined to " << quarantined
                              << " — the sweep will be recollected");
  return std::nullopt;
}

std::optional<ml::Dataset> RunRepository::load(const std::string& workload,
                                               const std::string& arch) const {
  const std::string path = path_for(workload, arch);
  if (!fs::exists(path)) return std::nullopt;

  const std::optional<std::string> content = read_file(path);
  if (!content) return handle_corrupt(path, "file cannot be read");
  std::string why;
  const std::optional<std::string> payload = verify_footer(*content, why);
  if (!payload) return handle_corrupt(path, why);

  ml::Dataset ds;
  try {
    std::istringstream is(*payload);
    ds = ml::Dataset::from_csv(CsvTable::read(is));
  } catch (const Error& e) {
    return handle_corrupt(path, e.what());
  }

  if (options_.validate_on_load) {
    // Keys that do not name a registered architecture (foreign data sets)
    // cannot be checked against machine constants; load them as-is.
    const gpusim::ArchSpec* spec = nullptr;
    try {
      spec = &gpusim::arch_by_name(arch);
    } catch (const Error&) {
    }
    if (spec != nullptr) {
      // Invariant-breaking data is semantically wrong rather than
      // damaged, so it fails loudly instead of being quarantined.
      check::throw_if_errors(check::validate_dataset(ds, *spec),
                             "repository sweep " + path);
    }
  }
  return ds;
}

bool RunRepository::contains(const std::string& workload,
                             const std::string& arch) const {
  return fs::exists(path_for(workload, arch));
}

std::vector<std::pair<std::string, std::string>> RunRepository::keys() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& entry : fs::directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    // Quarantined/temp leftovers are not entries.
    if (entry.path().extension() != ".csv") continue;
    const std::string stem = entry.path().stem().string();
    const std::size_t sep = stem.find("__");
    if (sep == std::string::npos) continue;
    out.emplace_back(stem.substr(0, sep), stem.substr(sep + 2));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace bf::profiling
