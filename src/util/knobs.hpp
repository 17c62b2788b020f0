// Knob tables: each config struct that reads a key namespace declares
// its knobs once, as a constexpr array of Knob rows next to the struct
// (the config-side twin of obs::Field). parse_knobs derives the
// namespace's typo rejection, typed parsing, range checks and
// "configured" flag from that array; the struct's member initializers
// are the defaults. Cross-field rules, open bounds and list grammars
// stay hand-written after the table parse.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/config.hpp"
#include "util/error.hpp"
#include "util/time_types.hpp"

namespace pgasq {

/// A Time member read and bounded in microseconds (Time is int64_t, so
/// the unit needs its own row kind).
template <class S>
struct Micros {
  Time S::* member;
};

/// A list key: the parser reads one comma-separated item into the
/// struct (an empty value has no items).
template <class S>
using KnobParser = void (*)(S& out, const std::string& key, const std::string& item);

/// One knob "<ns>.<key>" of struct S. Bounds are inclusive and apply to
/// numeric rows; integer rows must also fit their member type.
template <class S>
struct Knob {
  const char* key;
  std::variant<int S::*, std::int64_t S::*, std::uint64_t S::*, double S::*,
               bool S::*, std::string S::*, Micros<S>, KnobParser<S>>
      member;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

template <class S>
using Knobs = std::type_identity_t<std::span<const Knob<S>>>;

namespace detail {

/// Parses `value` into the row's member of `out`, or throws naming `key`.
template <class S>
void read_knob(const Knob<S>& k, const std::string& key, const std::string& value,
               S& out) {
  auto in_bounds = [&](double v) {
    PGASQ_CHECK(v >= k.lo && v <= k.hi, << "config key '" << key << "' = " << value
                                        << " is outside [" << k.lo << ", " << k.hi
                                        << "]");
  };
  std::visit(
      [&](auto m) {
        using M = decltype(m);
        if constexpr (std::is_same_v<M, KnobParser<S>>) {
          if (value.empty()) return;
          for (const std::string& item : split(value, ',')) m(out, key, item);
        } else if constexpr (std::is_same_v<M, Micros<S>>) {
          const double us = parse_double(key, value);
          in_bounds(us);
          out.*m.member = from_us(us);
        } else {
          using V = std::remove_reference_t<decltype(out.*m)>;
          if constexpr (std::is_same_v<V, std::string>) {
            out.*m = value;
          } else if constexpr (std::is_same_v<V, bool>) {
            out.*m = parse_bool(key, value);
          } else if constexpr (std::is_same_v<V, double>) {
            out.*m = parse_double(key, value);
            in_bounds(out.*m);
          } else {
            const std::int64_t v = parse_int(key, value);
            PGASQ_CHECK(std::in_range<V>(v), << "config key '" << key << "' = "
                                             << value << " does not fit its type");
            in_bounds(static_cast<double>(v));
            out.*m = static_cast<V>(v);
          }
        }
      },
      k.member);
}

}  // namespace detail

/// Rejects every "<ns>.*" key of `cfg` that no row declares (with a typo
/// suggestion), then reads each row present into `out`, leaving absent
/// rows at the caller's values. Returns whether any row was set.
template <class S>
bool parse_knobs(const Config& cfg, const std::string& ns, Knobs<S> knobs, S& out) {
  std::vector<std::string> known;
  for (const Knob<S>& k : knobs) known.emplace_back(k.key);
  cfg.reject_unknown(ns, known);
  bool configured = false;
  for (const Knob<S>& k : knobs) {
    const std::string key = ns + "." + k.key;
    if (!cfg.has(key)) continue;
    configured = true;
    detail::read_knob(k, key, cfg.get_string(key, ""), out);
  }
  return configured;
}

}  // namespace pgasq
