// Small key=value configuration store with typed getters, used by the
// benchmark binaries to accept "--key=value" overrides without pulling
// in a CLI library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace pgasq {

class Config {
 public:
  Config() = default;

  /// Parses "--key=value" / "key=value" tokens; other tokens are kept
  /// in positional(). Throws Error on malformed "--key" without value.
  static Config from_args(int argc, char** argv);

  void set(const std::string& key, const std::string& value);
  /// Every has() and get_*() call records its key as asked for, present
  /// or not (see reject_unused).
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// A comma-separated list of numbers, e.g. "0.99,0".
  std::vector<double> get_doubles(const std::string& key,
                                  const std::vector<double>& fallback) const;

  const std::vector<std::string>& positional() const {
    positional_read_ = true;
    return positional_;
  }
  /// All keys, for diagnostics.
  std::vector<std::string> keys() const;

  /// Validates a reserved key namespace: every stored key of the form
  /// "<ns>.<suffix>" must have its suffix in `known`, otherwise throws
  /// Error naming the bad key — with a "did you mean" suggestion when a
  /// known suffix is within edit distance 2. Knob tables
  /// (util/knobs.hpp) call this with their row keys.
  void reject_unknown(const std::string& ns,
                      const std::vector<std::string>& known) const;

  /// Throws Error for the first stored key that no has()/get_*() call
  /// asked for — suggesting the closest asked-for key within edit
  /// distance 2 — and for stray positional tokens when positional()
  /// was never read. Command-line mains call it after their last read.
  void reject_unused() const;

 private:
  std::optional<std::string> find(const std::string& key) const;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> asked_;
  mutable bool positional_read_ = false;
};

/// The number and boolean vocabulary of every config surface. Each
/// throws Error naming `key` on a malformed value. Integers are decimal
/// and must fit int64; doubles must be finite; booleans are
/// 1/true/yes/on and 0/false/no/off.
std::int64_t parse_int(const std::string& key, const std::string& value);
double parse_double(const std::string& key, const std::string& value);
bool parse_bool(const std::string& key, const std::string& value);

/// Splits on every `sep`: "a,,b" -> {"a", "", "b"}; "" -> {""}.
std::vector<std::string> split(const std::string& s, char sep);

}  // namespace pgasq
