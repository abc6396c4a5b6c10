// Crash-safe file I/O helpers shared by every component that persists
// state (most importantly the profiling run repository).
//
// A plain std::ofstream write can be interrupted half-way (crash, full
// disk, kill -9) and leave a torn file behind that poisons the next
// reader. atomic_write_file() writes to "<path>.tmp" and renames over the
// destination only after the full payload hit the stream, so readers see
// either the old content or the new content, never a prefix.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace bf {

/// Write `content` to `path` atomically (temp file + rename). Throws
/// bf::Error when the temp file cannot be written or the rename fails;
/// the temp file is removed on failure, so no partial entry survives.
void atomic_write_file(const std::string& path, std::string_view content);

/// Whole-file read (binary); std::nullopt when the file cannot be opened.
std::optional<std::string> read_file(const std::string& path);

/// Read a "<magic> <version>" header from a serialized stream and
/// validate both fields. Every serialized-struct reader must call this
/// before parsing any field, so that a changed format is rejected
/// instead of silently misinterpreted — enforced by the bf_lint
/// `artifact-version` rule. Each record has exactly one readable
/// version: throws bf::Error on a magic mismatch or any version other
/// than `version`.
void read_format_version(std::istream& is, const char* magic, int version);

/// FNV-1a 64-bit hash — the repository's content checksum.
std::uint64_t fnv1a64(std::string_view data);

/// Fixed-width lowercase hex rendering of a 64-bit hash.
std::string to_hex64(std::uint64_t value);

}  // namespace bf
