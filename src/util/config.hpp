// Small key=value configuration store with typed getters, used by the
// benchmark binaries to accept "--key=value" overrides without pulling
// in a CLI library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
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
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  /// All keys, for diagnostics.
  std::vector<std::string> keys() const;

  /// Validates a reserved key namespace: every stored key of the form
  /// "<ns>.<suffix>" must have its suffix in `known`, otherwise throws
  /// Error naming the bad key — with a "did you mean" suggestion when a
  /// known suffix is within edit distance 2 (a misspelled knob used to
  /// be silently ignored). Subsystem parsers (fault.*, ft.*, coll.*)
  /// call this before reading their keys.
  void reject_unknown(const std::string& ns,
                      const std::vector<std::string>& known) const;

 private:
  std::optional<std::string> find(const std::string& key) const;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The boolean vocabulary of every config surface: 1/true/yes/on and
/// 0/false/no/off. Throws Error naming `key` on anything else.
bool parse_bool(const std::string& key, const std::string& value);

}  // namespace pgasq
