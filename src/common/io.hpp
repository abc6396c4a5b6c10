// Crash-safe file I/O helpers shared by every component that persists
// state (the profiling run repository and .bfmodel bundles).
//
// A plain std::ofstream write can be interrupted half-way (crash, full
// disk, kill -9) and leave a torn file behind that poisons the next
// reader. atomic_write_file() writes to "<path>.tmp" and renames over the
// destination only after the full payload hit the stream, so readers see
// either the old content or the new content, never a prefix.
//
// A file that must prove it is whole when read back (a repository entry,
// a .bfmodel bundle) is sealed: its last line is the checksum footer
// "#checksum,fnv1a64,<hex>" over every byte before it, so unseal() catches
// truncation, bit rot and torn writes before any field is parsed, and the
// reader moves a rejected file aside with quarantine_file().
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
/// validate both fields. Every serialized-struct reader calls this
/// before parsing any field, so that a changed format is rejected
/// instead of silently misinterpreted (a serve test bumps each record
/// header of an exported bundle and expects this function's message).
/// Each record has exactly one readable version: throws bf::Error on a
/// magic mismatch or any version other than `version`.
void read_format_version(std::istream& is, const char* magic, int version);

/// A sealed file's payload and the checksum its footer carries.
struct Unsealed {
  std::string payload;
  std::string checksum;  ///< fnv1a64 hex of the payload
};

/// `payload` followed by its checksum footer line.
std::string seal(std::string_view payload);

/// Verify and strip the checksum footer of `content`, hashing it once.
/// Throws bf::Error saying why when the content is empty, the footer is
/// missing or does not start a line, its hash is not 16 hex digits, bytes
/// follow it, or its hash is not the FNV-1a of every byte before it.
Unsealed unseal(std::string_view content);

/// Move a rejected file aside to "<path>.quarantined" so it is neither
/// read again nor lost for post-mortem; when the rename fails
/// (cross-device, permissions) the file is removed instead.
void quarantine_file(const std::string& path);

/// FNV-1a 64-bit hash — the checksum of sealed files.
std::uint64_t fnv1a64(std::string_view data);

/// Fixed-width lowercase hex rendering of a 64-bit hash.
std::string to_hex64(std::uint64_t value);

}  // namespace bf
