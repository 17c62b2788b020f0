// Every knob table (util/knobs.hpp) is checked row by row: the struct's
// own default parses back to itself, the inclusive bounds hold at
// lo-1 / hi+1 with an error that names the key, and no key is declared
// by two tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <type_traits>
#include <variant>

#include "coll/selection.hpp"
#include "core/report_json.hpp"
#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "flow/flow.hpp"
#include "ft/recovery.hpp"
#include "kvs/kvs.hpp"
#include "obs/link_usage.hpp"
#include "pami/machine.hpp"
#include "util/knobs.hpp"

namespace pgasq {
namespace {

std::string number_text(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The text form of row `k`'s value in `s` ("" for grammar rows).
template <class S>
std::string value_text(const Knob<S>& k, const S& s) {
  return std::visit(
      [&](auto m) -> std::string {
        using M = decltype(m);
        if constexpr (std::is_same_v<M, KnobParser<S>>) {
          return "";
        } else if constexpr (std::is_same_v<M, Micros<S>>) {
          return number_text(to_us(s.*m.member));
        } else {
          using V = std::remove_cvref_t<decltype(s.*m)>;
          if constexpr (std::is_same_v<V, std::string>) return s.*m;
          if constexpr (std::is_same_v<V, bool>) return s.*m ? "1" : "0";
          if constexpr (std::is_same_v<V, double>) return number_text(s.*m);
          if constexpr (std::is_integral_v<V>) return std::to_string(s.*m);
        }
        return "";
      },
      k.member);
}

template <class S>
bool is_integer_row(const Knob<S>& k) {
  return std::holds_alternative<int S::*>(k.member) ||
         std::holds_alternative<std::int64_t S::*>(k.member) ||
         std::holds_alternative<std::uint64_t S::*>(k.member);
}

/// Parses one "<ns>.<key>=value" through the table; returns the error
/// text, or "" when accepted.
template <class S>
std::string parse_one(const std::string& ns, Knobs<S> table, const std::string& key,
                      const std::string& value, S& out) {
  Config cfg;
  cfg.set(ns + "." + key, value);
  try {
    EXPECT_TRUE(parse_knobs(cfg, ns, table, out));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

template <class S>
void check_table(const std::string& ns, Knobs<S> table, std::set<std::string>& seen) {
  static const S defaults{};
  for (const Knob<S>& k : table) {
    const std::string key = ns + "." + k.key;
    EXPECT_TRUE(seen.insert(key).second) << key << " is declared twice";

    S parsed{};
    const std::string def = value_text(k, defaults);
    EXPECT_EQ(parse_one(ns, table, k.key, def, parsed), "") << key << "=" << def;
    EXPECT_EQ(value_text(k, parsed), def) << key;

    for (const double bound : {k.lo - 1, k.hi + 1}) {
      if (!std::isfinite(bound)) continue;
      const std::string text = is_integer_row(k)
                                   ? std::to_string(static_cast<long long>(bound))
                                   : number_text(bound);
      S out{};
      const std::string what = parse_one(ns, table, k.key, text, out);
      EXPECT_NE(what.find(key), std::string::npos)
          << key << "=" << text << " must be rejected naming the key: " << what;
    }
  }
}

TEST(Knobs, EveryRowParsesAndChecksRange) {
  std::set<std::string> seen;
  check_table<fault::FaultPlan>("fault", fault::kFaultKnobs, seen);
  check_table<fault::IntegrityConfig>("integrity", fault::kIntegrityKnobs, seen);
  check_table<flow::FlowConfig>("flow", flow::kFlowKnobs, seen);
  check_table<ft::RuntimeConfig>("ft", ft::kFtKnobs, seen);
  check_table<kvs::KvConfig>("kvs", kvs::kKvKnobs, seen);
  check_table<obs::Options>("obs", obs::kObsKnobs, seen);
  check_table<pami::MachineConfig>("trace", pami::kTraceKnobs, seen);
  check_table<armci::ReportConfig>("report", armci::kReportKnobs, seen);
  check_table<coll::CollConfig>("coll", coll::kCollKnobs, seen);
  EXPECT_EQ(seen.size(), 79u);
}

}  // namespace
}  // namespace pgasq
