#pragma once

/// \file env.hpp
/// \brief Strict parsing of the numbers a run reads from outside the
/// program, and the one declaration each PML_* environment knob gets.
///
/// The runtime's tuning knobs (PML_MP_EAGER_BYTES, PML_MP_COLLECTIVE_TIMEOUT_MS,
/// PML_CKPT, ...) and the runner's numeric flags were once read with
/// atol/strtoull, which silently map garbage to 0 and accept negative values
/// — "abc" became a 0-byte eager threshold (surprise all-rendezvous mode) and
/// "-5" became a giant unsigned timeout. These helpers accept only a full
/// string of decimal digits and reject everything else with a UsageError
/// naming the variable or flag, so a typo fails loudly at job start instead
/// of warping behaviour.

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "core/error.hpp"

namespace pml::env {

namespace detail {

/// Digits of \p text from \p from on, at most \p max; rejections quote
/// \p name and the whole \p text.
inline std::uint64_t parse_digits(std::string_view name, std::string_view text,
                                  std::size_t from, std::uint64_t max,
                                  const char* expected) {
  const auto bad = [&](const char* why) {
    return UsageError(std::string(name) + "=\"" + std::string(text) + "\": " + why +
                      " (expected " + expected + ")");
  };
  if (text.size() == from) throw bad("empty value");
  std::uint64_t value = 0;
  for (const char c : text.substr(from)) {
    if (c < '0' || c > '9') throw bad("not a decimal digit string");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) throw bad("value out of range");
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace detail

/// Strict decimal parse of \p text, attributed to variable or flag \p name.
///
/// Accepts only a non-empty string of ASCII digits (no sign, no whitespace,
/// no trailing junk, no hex/octal prefixes) whose value fits in a uint64.
/// Anything else throws UsageError quoting \p name and \p text.
inline std::uint64_t parse_u64(std::string_view name, std::string_view text) {
  return detail::parse_digits(name, text, 0, UINT64_MAX,
                              "a non-negative decimal integer");
}

/// parse_u64 held to [\p lo, \p hi]; a value outside throws UsageError.
inline std::uint64_t parse_in(std::string_view name, std::string_view text,
                              std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t value = parse_u64(name, text);
  if (value < lo || value > hi) {
    throw UsageError(std::string(name) + "=\"" + std::string(text) +
                     "\": out of range (expected " + std::to_string(lo) + ".." +
                     std::to_string(hi) + ")");
  }
  return value;
}

/// Signed sibling of parse_u64: an optional leading '-', then digits, within
/// int64.
inline std::int64_t parse_i64(std::string_view name, std::string_view text) {
  const bool negative = !text.empty() && text[0] == '-';
  const std::uint64_t magnitude = detail::parse_digits(
      name, text, negative ? 1 : 0, negative ? std::uint64_t{1} << 63 : INT64_MAX,
      "a decimal integer");
  return static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
}

/// A PML_* environment variable as the runner's --help lists it.
struct Doc {
  const char* name;
  const char* help;  ///< One line.
};

/// One PML_* knob, declared once by the layer that reads it: the variable,
/// its help line, and the strict parser the layer's resolver applies.
template <typename T>
struct Knob : Doc {
  T (*parse)(std::string_view name, std::string_view text);

  /// \p given when set, else the variable, else \p fallback — the
  /// precedence every knob shares. Reads the environment only when
  /// \p given is empty and allocates only to report a malformed value.
  T resolve(const std::optional<T>& given, T fallback) const {
    if (given.has_value()) return *given;
    const char* raw = std::getenv(name);
    return raw == nullptr ? fallback : parse(name, raw);
  }
};

}  // namespace pml::env
