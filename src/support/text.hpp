// Small text utilities shared by the assembler, config parser and
// table-printing benches. GCC 12 lacks <format>, so `cat()` provides the
// variadic string building used throughout.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace cepic {

namespace detail {
inline void cat_one(std::ostringstream& os, const std::string& v) { os << v; }
inline void cat_one(std::ostringstream& os, std::string_view v) { os << v; }
inline void cat_one(std::ostringstream& os, const char* v) { os << v; }
inline void cat_one(std::ostringstream& os, char v) { os << v; }
inline void cat_one(std::ostringstream& os, bool v) {
  os << (v ? "true" : "false");
}
template <typename T>
void cat_one(std::ostringstream& os, T v) {
  os << v;
}
}  // namespace detail

/// Concatenate heterogeneous values into a string.
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  (detail::cat_one(os, args), ...);
  return os.str();
}

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter character; empty pieces are kept.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Split on any whitespace; empty pieces are dropped.
std::vector<std::string_view> split_ws(std::string_view s);

/// Case-sensitive prefix test (string_view helper for older call sites).
bool starts_with(std::string_view s, std::string_view prefix);

/// Lower-case an ASCII string.
std::string to_lower(std::string_view s);

/// Parse a MiniC/assembly integer literal: decimal, 0x hex, or negative.
/// Returns false if `s` is not a valid literal or overflows 64 bits.
bool parse_int(std::string_view s, std::int64_t& out);

/// Fixed-width right-aligned rendering used by the bench table printers.
std::string pad_left(const std::string& s, std::size_t width);
/// Fixed-width left-aligned rendering.
std::string pad_right(const std::string& s, std::size_t width);

/// Render a double with `digits` fractional digits.
std::string fixed(double v, int digits);

/// Lower-case hexadecimal rendering without prefix or padding.
std::string hex64(std::uint64_t v);

/// Escape `s` for use inside a JSON string literal: quote, backslash,
/// \n, \r and \t by name, other control characters as \u00XX.
std::string json_escape(std::string_view s);

}  // namespace cepic
