#include "common/io.hpp"

#include <filesystem>
#include <fstream>
#include <istream>
#include <sstream>
#include <system_error>

#include "common/error.hpp"

namespace fs = std::filesystem;

namespace bf {

void atomic_write_file(const std::string& path, std::string_view content) {
  BF_CHECK_MSG(!path.empty(), "atomic_write_file: empty path");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.good()) {
      BF_FAIL("cannot open for writing: " << tmp);
    }
    os.write(content.data(),
             static_cast<std::streamsize>(content.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      BF_FAIL("write failed: " << tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    fs::remove(tmp, rm);
    BF_FAIL("cannot rename " << tmp << " -> " << path << ": "
                             << ec.message());
  }
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void read_format_version(std::istream& is, const char* magic, int version) {
  std::string tag;
  int got = 0;
  BF_CHECK_MSG(static_cast<bool>(is >> tag >> got),
               "truncated stream: expected '" << magic << " <version>'");
  BF_CHECK_MSG(tag == magic, "bad magic: expected '" << magic << "', got '"
                                                     << tag << "'");
  BF_CHECK_MSG(got == version, magic << " format_version " << got
                                     << " is unsupported (this build reads "
                                     << magic << ' ' << version << " only)");
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string to_hex64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

}  // namespace bf
