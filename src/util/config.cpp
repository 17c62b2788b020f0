#include "util/config.hpp"

#include <algorithm>
#include <cstdlib>

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

bool Config::has(const std::string& key) const { return values_.count(key) != 0; }

std::optional<std::string> Config::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  return find(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 0);
  PGASQ_CHECK(end && *end == '\0', << "config key '" << key << "' is not an integer: " << *v);
  return parsed;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = find(key);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  PGASQ_CHECK(end && *end == '\0', << "config key '" << key << "' is not a number: " << *v);
  return parsed;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = find(key);
  return v ? parse_bool(key, *v) : fallback;
}

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  PGASQ_CHECK(v == "0" || v == "false" || v == "no" || v == "off",
              << "config key '" << key << "' is not a boolean: " << v);
  return false;
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

}  // namespace

void Config::reject_unknown(const std::string& ns,
                            const std::vector<std::string>& known) const {
  const std::string prefix = ns + ".";
  for (const auto& [key, _] : values_) {
    if (key.rfind(prefix, 0) != 0) continue;
    const std::string suffix = key.substr(prefix.size());
    bool ok = false;
    for (const auto& k : known) {
      if (k == suffix) {
        ok = true;
        break;
      }
    }
    if (ok) continue;
    // Closest known suffix, for the typo hint.
    std::size_t best_dist = static_cast<std::size_t>(-1);
    std::string best;
    for (const auto& k : known) {
      const std::size_t d = edit_distance(suffix, k);
      if (d < best_dist) {
        best_dist = d;
        best = k;
      }
    }
    if (!best.empty() && best_dist <= 2) {
      PGASQ_CHECK(false, << "unknown option " << key << " (did you mean " << ns
                         << "." << best << "?)");
    }
    PGASQ_CHECK(false, << "unknown option " << key);
  }
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace pgasq
