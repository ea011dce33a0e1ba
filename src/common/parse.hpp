#pragma once
// Strict parsing of numbers from command-line flags and environment
// variables.
//
// std::stoul skips leading whitespace, wraps "-1" to the largest unsigned
// value, stops at the first non-digit ("12x" reads as 12) and throws on
// "abc"; strtol silently returns 0 and a cast to a narrower type wraps. A
// worker count or a cycle budget wants none of that: parse_number takes the
// whole token or nothing.

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mempool {

/// Parse @p text into @p out when the whole token is a non-negative decimal
/// number that fits T: digits only for an integral T, digits with an
/// optional fraction ("0.5") for a floating-point T. An empty token, a sign,
/// whitespace, trailing characters or an out-of-range value leave @p out
/// untouched and return false.
template <typename T>
bool parse_number(std::string_view text, T* out) {
  if (text.empty() || text.front() < '0' || text.front() > '9') return false;
  const char* end = text.data() + text.size();
  T v{};
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(text.data(), end, v, std::chars_format::fixed);
  } else {
    r = std::from_chars(text.data(), end, v);
  }
  if (r.ec != std::errc{} || r.ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace mempool
