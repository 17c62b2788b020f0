// Metrics registry: a flat, insertion-ordered collection of named
// counters, gauges, and log2 histograms with optional labels.
//
// The registry is a *snapshot* container: at report time the runtime
// (core/report_json) exports every stats struct into one registry and
// serializes it. Structs with a field table (obs/fields.hpp) export
// through it; CollStats, link counters and app metrics export by hand.
// Identical runs produce byte-identical serializations because
// insertion order is preserved and values are integers or
// deterministically formatted doubles.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace pgasq::obs {

/// Metric labels, e.g. {{"op", "put"}, {"algo", "ring"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Registry {
 public:
  /// Sets (or overwrites) a monotone counter.
  void set_counter(const std::string& name, std::uint64_t value,
                   Labels labels = {});
  /// Sets a point-in-time double-valued gauge (times, utilizations).
  void set_gauge(const std::string& name, double value, Labels labels = {});
  /// Snapshots a Log2Histogram or a util::Histogram (HDR-style latency
  /// histogram); both serialize as {"total", "buckets"}.
  template <class Hist>
  void set_histogram(const std::string& name, const Hist& hist,
                     Labels labels = {}) {
    Metric& m = find_or_create(name, labels, Kind::kHistogram);
    m.total = hist.total();
    m.buckets.resize(hist.bucket_count());
    for (std::size_t i = 0; i < m.buckets.size(); ++i) {
      m.buckets[i] = hist.bucket(i);
    }
  }

  /// Folds every metric of `other` into this registry (set semantics:
  /// same name+labels overwrites). Lets an application accumulate its
  /// own registry across phases and splice it into the report.
  void merge_from(const Registry& other);

  std::size_t size() const { return metrics_.size(); }

  /// Deterministic plain-text rendering, one "name{k=v,...} = value"
  /// line per metric (histograms show their totals); insertion order.
  std::string to_text() const;

  /// Serializes to a JSON array of
  ///   {"name":…, "type":"counter"|"gauge"|"histogram",
  ///    "labels":{…}?, "value":…} — histograms carry
  ///   {"total":…, "buckets":[…]} instead of "value".
  Json to_json() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Metric {
    std::string name;
    Labels labels;
    Kind kind;
    std::uint64_t count = 0;                // counter
    double value = 0.0;                     // gauge
    std::vector<std::uint64_t> buckets;     // histogram
    std::uint64_t total = 0;                // histogram
  };
  Metric& find_or_create(const std::string& name, const Labels& labels,
                         Kind kind);

  std::vector<Metric> metrics_;
};

}  // namespace pgasq::obs
