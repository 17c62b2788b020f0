#include "util/config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "util/error.hpp"

namespace pgasq {

Config Config::from_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    std::string body = tok;
    if (body.rfind("--", 0) == 0) body = body.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      if (tok.rfind("--", 0) == 0) {
        // Bare flag: treat as boolean true.
        cfg.set(body, "true");
      } else {
        cfg.positional_.push_back(tok);
      }
      continue;
    }
    cfg.set(body.substr(0, eq), body.substr(eq + 1));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  PGASQ_CHECK(!key.empty());
  values_[key] = value;
}

bool Config::has(const std::string& key) const { return find(key).has_value(); }

std::optional<std::string> Config::find(const std::string& key) const {
  asked_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  return find(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = find(key);
  return v ? parse_int(key, *v) : fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = find(key);
  return v ? parse_double(key, *v) : fallback;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = find(key);
  return v ? parse_bool(key, *v) : fallback;
}

std::vector<double> Config::get_doubles(const std::string& key,
                                        const std::vector<double>& fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  std::vector<double> out;
  for (const std::string& item : split(*v, ',')) out.push_back(parse_double(key, item));
  return out;
}

namespace {

/// std::from_chars over the whole of `v`: no sign prefix, whitespace or
/// base prefix, and out-of-range values are errors, not saturation.
template <class T>
T parse_number(const std::string& key, const std::string& v, const char* what) {
  T out{};
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  PGASQ_CHECK(ec != std::errc::result_out_of_range,
              << "config key '" << key << "' is out of range: " << v);
  PGASQ_CHECK(ec == std::errc() && ptr == v.data() + v.size(),
              << "config key '" << key << "' is not " << what << ": " << v);
  return out;
}

}  // namespace

std::int64_t parse_int(const std::string& key, const std::string& v) {
  return parse_number<std::int64_t>(key, v, "an integer");
}

double parse_double(const std::string& key, const std::string& v) {
  const double out = parse_number<double>(key, v, "a number");
  PGASQ_CHECK(std::isfinite(out), << "config key '" << key << "' is not finite: " << v);
  return out;
}

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  PGASQ_CHECK(v == "0" || v == "false" || v == "no" || v == "off",
              << "config key '" << key << "' is not a boolean: " << v);
  return false;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (std::size_t next; (next = s.find(sep, pos)) != std::string::npos; pos = next + 1) {
    out.push_back(s.substr(pos, next - pos));
  }
  out.push_back(s.substr(pos));
  return out;
}

namespace {

/// Plain Levenshtein distance, small strings only.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Throws "unknown option <key>" for the first key of `values` under
/// `prefix` that `known` lacks, suggesting the closest known key within
/// edit distance 2.
void reject_keys(const std::map<std::string, std::string>& values,
                 const std::string& prefix, const std::set<std::string>& known) {
  for (const auto& [key, _] : values) {
    if (key.rfind(prefix, 0) != 0 || known.count(key) != 0) continue;
    std::size_t best_dist = 3;
    std::string best;
    for (const std::string& k : known) {
      const std::size_t d = edit_distance(key, k);
      if (d < best_dist) {
        best_dist = d;
        best = k;
      }
    }
    throw Error("unknown option " + key +
                (best.empty() ? "" : " (did you mean " + best + "?)"));
  }
}

}  // namespace

void Config::reject_unknown(const std::string& ns,
                            const std::vector<std::string>& known) const {
  std::set<std::string> names;
  for (const std::string& k : known) names.insert(ns + "." + k);
  reject_keys(values_, ns + ".", names);
}

void Config::reject_unused() const {
  reject_keys(values_, "", asked_);
  PGASQ_CHECK(positional_.empty() || positional_read_,
              << "unexpected argument " << positional_.front());
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace pgasq
