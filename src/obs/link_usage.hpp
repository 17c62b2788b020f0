// Per-link network counters: time-bucketed bytes and queue-wait per
// directed torus link, recorded by the noc models when enabled
// (obs.links). Pure observation — recording never changes timing, so
// obs-on and obs-off runs are virtual-time identical.
//
// Rendering: a text heatmap (hot links as rows, virtual-time buckets
// as columns, intensity = bucket bytes / link capacity per bucket)
// for the report, and a CSV export for offline analysis.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "topo/torus.hpp"
#include "util/knobs.hpp"
#include "util/time_types.hpp"

namespace pgasq::obs {

/// Observability knobs parsed from the obs.* config namespace.
struct Options {
  /// Enable per-link byte/wait accounting (obs.links).
  bool links = false;
  /// Heatmap/accounting bucket width (obs.link_bucket_us).
  Time link_bucket = from_us(50);
  /// Heatmap rows: hottest N links (obs.link_top).
  int link_top = 16;
  /// When non-empty, per-link buckets are exported as CSV at report
  /// time (obs.link_csv).
  std::string link_csv;

  /// Enable continuous time-series telemetry (obs.timeline); see
  /// obs/timeline.hpp. Off by default: runs stay byte-identical.
  bool timeline = false;
  /// Timeline bucket width (obs.timeline_bucket_us).
  Time timeline_bucket = from_us(50);
  /// Series cap; hitting it warns once (obs.timeline_max_series).
  int timeline_max_series = 256;
  /// Sparkline rows in the text report (obs.timeline_top).
  int timeline_top = 12;
  /// When non-empty, timeline buckets are exported as CSV at report
  /// time (obs.timeline_csv).
  std::string timeline_csv;

  /// Enable critical-path latency attribution (obs.critpath); see
  /// obs/critpath.hpp.
  bool critpath = false;
  /// Rows per critical-path bottleneck table (obs.critpath_top).
  int critpath_top = 8;
};

inline constexpr Knob<Options> kObsKnobs[] = {
    {"links", &Options::links},
    {"link_bucket_us", Micros{&Options::link_bucket}, 0},
    {"link_top", &Options::link_top, 0},
    {"link_csv", &Options::link_csv},
    {"timeline", &Options::timeline},
    {"timeline_bucket_us", Micros{&Options::timeline_bucket}, 0},
    {"timeline_max_series", &Options::timeline_max_series, 0},
    {"timeline_top", &Options::timeline_top, 0},
    {"timeline_csv", &Options::timeline_csv},
    {"critpath", &Options::critpath},
    {"critpath_top", &Options::critpath_top, 0},
};

class LinkUsage {
 public:
  LinkUsage(const topo::Torus5D& torus, Time bucket_width);

  /// Records one hop of a transfer: `bytes` crossing `link` at `at`.
  void record_hop(const topo::Link& link, Time at, std::uint64_t bytes);
  /// Records queue wait: a transfer found `link` busy for `waited`.
  void record_wait(const topo::Link& link, Time at, Time waited);
  /// Counts a transfer's payload once (for reconciliation against
  /// NetworkModel::bytes_sent, which also counts once per transfer).
  void note_transfer(std::uint64_t bytes);
  /// Convenience: note_transfer + record_hop over a whole route at one
  /// injection time (the stateless LogGP model has no per-hop times).
  void record_transfer(const std::vector<topo::Link>& route, Time at,
                       std::uint64_t bytes);

  std::uint64_t transfers() const { return transfers_; }
  std::uint64_t injected_bytes() const { return injected_bytes_; }
  /// Sum of bytes over links, i.e. bytes x hops.
  std::uint64_t link_bytes_total() const;
  std::size_t active_links() const { return links_.size(); }
  Time bucket_width() const { return bucket_; }
  Time end_time() const;

  /// Peak/mean single-bucket utilization over active links, given the
  /// link capacity in bytes per nanosecond.
  double max_utilization(double bytes_per_ns) const;
  double mean_utilization(double bytes_per_ns) const;

  /// Human-readable name for a dense link index: "n<node>(<coord>)<dim><+|->".
  std::string link_name(int link_index) const;

  /// Text heatmap: top `top_links` links by total bytes, one row each,
  /// columns spanning [0, end_time). `bytes_per_ns` is the link
  /// capacity used as the 100%-utilization reference.
  std::string heatmap(double bytes_per_ns, int top_links) const;

  /// CSV: link,name,dim,dir,total_bytes,wait_ns,bucket_us,b0,b1,...
  std::string to_csv() const;
  void write_csv(const std::string& path) const;

  /// JSON: {"bucket_us":…, "links":[{"link":…,"name":…,"bytes":…,
  /// "wait_ns":…,"buckets":[[bucket_index,bytes],…]},…]} — sorted by
  /// total bytes descending (ties by link index) like the heatmap.
  Json to_json() const;

 private:
  struct Row {
    std::uint64_t total = 0;
    std::uint64_t wait_count = 0;
    Time wait_total = 0;
    std::map<std::int64_t, std::uint64_t> buckets;  // bucket index -> bytes
  };
  std::int64_t bucket_of(Time at) const { return at / bucket_; }
  /// Rows sorted hottest-first, as (link_index, Row*) pairs.
  std::vector<std::pair<int, const Row*>> sorted_rows() const;

  const topo::Torus5D& torus_;
  Time bucket_;
  std::map<int, Row> links_;  // dense link index -> accounting
  std::uint64_t transfers_ = 0;
  std::uint64_t injected_bytes_ = 0;
};

}  // namespace pgasq::obs
