#pragma once
// Whole-token numeric parsing for text that arrives from outside the
// program: CLI flag values (tools/cli_parse.h) and spec lines
// (verify::parse_spec, which the fabric worker also applies to lines that
// arrive over the wire).  Unlike std::stoi/stoull/stod, the whole string
// must parse: no trailing junk, no sign on unsigned types (so "-1" does not
// wrap to 2^64 - 1), and out-of-range values are rejected, not truncated.

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace fle {

/// from_chars over the whole string: nullopt on empty input, non-numeric
/// characters, trailing junk, or out-of-range values.
template <typename Int>
std::optional<Int> try_parse_int(std::string_view text) {
  Int value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

/// The floating-point counterpart of try_parse_int.
inline std::optional<double> try_parse_double(std::string_view text) {
  double value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

}  // namespace fle
