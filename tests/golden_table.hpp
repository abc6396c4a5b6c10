// Shared plumbing of the golden digest tests: IEEE-754 bit rendering,
// the committed "a b c digest" table format and the comparison that
// prints the complete recomputed table on a mismatch, so a deliberate
// change can be reviewed and pasted over the file.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/io.hpp"

namespace bf {

/// The IEEE-754 bit pattern of `v` as 16 lowercase hex digits.
inline std::string bits_hex(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(v));
  return to_hex64(bits);
}

/// Committed table: "k1 k2 k3 digest" per row, '#' comments. Returns
/// "k1 k2 k3" -> digest.
inline std::map<std::string, std::string> load_golden_table(
    const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::map<std::string, std::string> table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string a, b, c, hash;
    fields >> a >> b >> c >> hash;
    table[a + ' ' + b + ' ' + c] = hash;
  }
  return table;
}

/// Every recomputed (key, digest) must match the table at `path`, and the
/// table must have no rows beyond them.
inline void expect_golden_table(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& got) {
  const auto table = load_golden_table(path);
  std::ostringstream recomputed;
  std::vector<std::string> mismatches;
  for (const auto& [key, hash] : got) {
    recomputed << key << ' ' << hash << '\n';
    const auto it = table.find(key);
    if (it == table.end() || it->second != hash) mismatches.push_back(key);
  }
  EXPECT_EQ(table.size(), got.size()) << "table rows without a matching case";
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " of " << got.size()
      << " digests differ, first: "
      << (mismatches.empty() ? std::string() : mismatches.front())
      << "\nrecomputed table:\n"
      << recomputed.str();
}

}  // namespace bf
