// A minimal JSON reader for the bf_serve request/response
// protocol (newline-delimited JSON objects). Supports the full value
// grammar (objects, arrays, strings with escapes, numbers, booleans,
// null) but is tuned for the small flat objects the server exchanges;
// numbers are parsed through bf::parse_double so trailing garbage is an
// error, not a silent truncation.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.hpp"

namespace bf::serve {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }
  /// Member lookup (objects only); nullptr when absent.
  const JsonValue* find(std::string_view key) const;
};

/// Parse one JSON document; throws bf::Error on malformed input or
/// trailing non-whitespace.
JsonValue parse_json(std::string_view text);

/// The writers are bf::json_escape and bf::json_number
/// (common/string_util.hpp); serve::json_number names the latter for
/// callers outside the library.
using bf::json_number;

}  // namespace bf::serve
