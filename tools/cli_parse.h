#pragma once
// Checked numeric CLI parsing shared by every fle_* tool.
//
// The tools used to feed flag values straight into atoi/strtol/strtoull,
// so `--threads foo` silently became 0.  Every numeric flag now routes
// through these helpers: the full argument must parse (no trailing junk),
// fit the requested range, and a failure names the flag, echoes the
// offending value and exits with code 2 — the usage-error convention the
// tools already use for unknown flags.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <type_traits>

#include "core/parse_number.h"

namespace fle::cli {

/// Parses `text` for flag `flag` into [min, max]; on any failure prints
/// "<prog>: <flag>: ..." to stderr and exits 2.
template <typename Int>
Int parse_int(const char* prog, const char* flag, std::string_view text,
              Int min_value, Int max_value) {
  const std::optional<Int> value = try_parse_int<Int>(text);
  if (!value) {
    std::fprintf(stderr, "%s: %s: '%.*s' is not a valid integer\n", prog, flag,
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  if (*value < min_value || *value > max_value) {
    if constexpr (std::is_signed_v<Int>) {
      std::fprintf(stderr, "%s: %s: %lld is out of range [%lld, %lld]\n", prog, flag,
                   static_cast<long long>(*value), static_cast<long long>(min_value),
                   static_cast<long long>(max_value));
    } else {
      std::fprintf(stderr, "%s: %s: %llu is out of range [%llu, %llu]\n", prog, flag,
                   static_cast<unsigned long long>(*value),
                   static_cast<unsigned long long>(min_value),
                   static_cast<unsigned long long>(max_value));
    }
    std::exit(2);
  }
  return *value;
}

/// Millisecond durations: positive, capped so downstream chrono arithmetic
/// (deadline backoff multiplies by up to 8) cannot overflow.
inline std::int64_t parse_ms(const char* prog, const char* flag, std::string_view text) {
  return parse_int<std::int64_t>(prog, flag, text, 1, 1ll << 40);
}

/// Seeds and other full-width unsigned values.
inline std::uint64_t parse_u64(const char* prog, const char* flag, std::string_view text) {
  return parse_int<std::uint64_t>(prog, flag, text, 0, UINT64_MAX);
}

/// Named-choice flags ("--engine auto|scalar" and friends): the
/// value must match one of `choices` exactly; a failure names the flag,
/// lists the valid spellings and exits 2 like the numeric parsers.
template <std::size_t N>
std::string_view parse_choice(const char* prog, const char* flag, std::string_view text,
                              const std::string_view (&choices)[N]) {
  for (const std::string_view choice : choices) {
    if (text == choice) return choice;
  }
  std::fprintf(stderr, "%s: %s: '%.*s' is not one of:", prog, flag,
               static_cast<int>(text.size()), text.data());
  for (const std::string_view choice : choices) {
    std::fprintf(stderr, " %.*s", static_cast<int>(choice.size()), choice.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace fle::cli
