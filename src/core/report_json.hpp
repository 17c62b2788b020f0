// Machine-readable run report: the same aggregated statistics the text
// report renders, flattened into an obs::Registry and serialized as a
// versioned JSON document ({"schema":"pgasq.report","schema_version":N,
// ...}). The benchmark harness writes one per run (report.json_path /
// BENCH_*.json) so experiment sweeps can be diffed and plotted without
// scraping tables.
#pragma once

#include <string>

#include "core/world.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "util/knobs.hpp"

namespace pgasq::armci {

/// Bumped whenever the JSON layout changes incompatibly. Consumers
/// (tools/validate_trace.py, plotting scripts) check this first.
inline constexpr int kReportSchemaVersion = 1;

/// Flattens the world's aggregated statistics — CommStats, collective
/// counters, fault & fail-stop recovery tables, network totals — into
/// a metrics registry. Deterministic: same run, same registry dump.
obs::Registry build_registry(const World& world);

/// The full report document: schema header, machine shape, elapsed
/// virtual time, the registry metrics, per-link accounting (when
/// obs.links recorded any), and trace recorder status (when tracing).
obs::Json render_json_report(const World& world);

/// Writes render_json_report to `path`; throws on I/O failure.
void write_json_report(const World& world, const std::string& path);

struct ReportConfig {
  /// Non-empty: where the bench writes render_json_report.
  std::string json_path;
};

inline constexpr Knob<ReportConfig> kReportKnobs[] = {
    {"json_path", &ReportConfig::json_path},
};

/// Parses the report.* namespace (kReportKnobs), rejecting unknown
/// report.* keys with a typo suggestion. Empty = no JSON report.
std::string json_report_path_from_config(const Config& cfg);

}  // namespace pgasq::armci
