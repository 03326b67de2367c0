// The one tokenizer behind every spec grammar: fault specs, arrival
// processes, tenant lists, SLO rules, BIGK_CHECK and the bench harness's
// numeric flags.
//
// One rule for blanks and empty pieces: blanks (spaces, tabs) around a
// piece, a key or a value are trimmed and empty pieces are skipped, so
// "poisson, rate=5" reads as "poisson,rate=5" and "a;;b;" as "a;b".
// Numbers are whole tokens in the field's own type: integers go through
// std::from_chars and must fit (no sign on unsigned fields, no fraction,
// no trailing text); floating-point values must be finite. Every failure
// throws std::invalid_argument naming the grammar, the key and the token.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace bigk::sim::spec {

/// Throws std::invalid_argument("<grammar>: <key>='<token>': <why>"); the
/// "<key>=" part is left out when `key` is empty.
[[noreturn]] inline void fail(std::string_view grammar, std::string_view key,
                              std::string_view token, std::string_view why) {
  throw std::invalid_argument(std::string(grammar) + ": " + std::string(key) +
                              (key.empty() ? "'" : "='") + std::string(token) +
                              "': " + std::string(why));
}

inline std::string_view trim(std::string_view text) {
  const std::size_t begin = text.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return {};
  return text.substr(begin, text.find_last_not_of(" \t") + 1 - begin);
}

/// The trimmed, non-empty pieces of `text` between `separator`s.
inline std::vector<std::string_view> split(std::string_view text,
                                           char separator) {
  std::vector<std::string_view> pieces;
  for (std::size_t end = 0; end != std::string_view::npos;) {
    end = text.find(separator);
    const std::string_view piece = trim(text.substr(0, end));
    if (!piece.empty()) pieces.push_back(piece);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
  }
  return pieces;
}

/// One key=value field of a grammar, or a bare token when `key` is empty.
/// The typed reads parse the whole value; every failure names the grammar,
/// the key and the value.
struct Field {
  std::string_view grammar;
  std::string_view key;
  std::string_view value;

  [[noreturn]] void fail(std::string_view why) const {
    spec::fail(grammar, key, value, why);
  }

  /// The value as a T.
  template <class T>
  T number() const {
    T out{};
    const char* last = value.data() + value.size();
    const auto [end, ec] = std::from_chars(value.data(), last, out);
    const bool ok = ec == std::errc{} && end == last;
    if constexpr (std::is_integral_v<T>) {
      if (!ok) {
        fail("not an integer in [" +
             std::to_string(std::numeric_limits<T>::min()) + ", " +
             std::to_string(std::numeric_limits<T>::max()) + "]");
      }
    } else if (!ok || !std::isfinite(out)) {
      fail("not a finite number");
    }
    return out;
  }

  /// The value as a T greater than 0.
  template <class T>
  T positive() const {
    const T out = number<T>();
    if (!(out > 0)) fail("must be > 0");
    return out;
  }

  /// The value as a count of `unit` picoseconds: a whole count when Count
  /// is std::uint64_t, a decimal one rounded to the nearest picosecond when
  /// it is double. Negative durations and ones past 64-bit picoseconds
  /// throw.
  template <class Count>
  DurationPs duration(DurationPs unit) const {
    const Count count = number<Count>();
    if constexpr (std::is_integral_v<Count>) {
      if (count <= std::numeric_limits<DurationPs>::max() / unit) {
        return count * unit;
      }
    } else {
      if (count < 0) fail("negative duration");
      const double ps = count * static_cast<double>(unit) + 0.5;
      if (ps < 0x1p64) return static_cast<DurationPs>(ps);
    }
    fail("past 64-bit picoseconds");
  }
};

/// Splits a "key=value" piece at its first '='; both sides are trimmed and
/// must be non-empty.
inline Field key_value(std::string_view grammar, std::string_view piece) {
  const std::size_t eq = piece.find('=');
  const Field field{grammar, trim(piece.substr(0, eq)),
                    eq == std::string_view::npos ? std::string_view{}
                                                 : trim(piece.substr(eq + 1))};
  if (field.key.empty() || field.value.empty()) {
    fail(grammar, {}, piece, "expected key=value");
  }
  return field;
}

}  // namespace bigk::sim::spec
