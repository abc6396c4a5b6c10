// Small string helpers shared across the library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bf {

/// Split `s` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char delim);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Join the range with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Lower-case an ASCII string.
std::string to_lower(std::string_view s);

/// printf-like formatting for doubles with fixed precision.
std::string format_double(double v, int precision);

/// Parse a full string as a double/integer; throws bf::Error on trailing
/// garbage or empty input (unlike atof/stod, which swallow both — the
/// failure mode that corrupts CSV-derived datasets silently).
double parse_double(std::string_view s);
std::int64_t parse_int(std::string_view s);

/// Format a byte/size count with a human suffix (e.g. "16.0 MB").
std::string human_bytes(double bytes);

/// Escape a string for embedding between JSON double quotes: quote,
/// backslash and every control character.
std::string json_escape(std::string_view s);

/// Render a double as JSON with 17 significant digits (round-trips
/// exactly); non-finite values, which JSON cannot carry, become null.
std::string json_number(double v);

}  // namespace bf
