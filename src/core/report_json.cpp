#include "core/report_json.hpp"

#include <fstream>

#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "flow/flow.hpp"
#include "ft/liveness.hpp"
#include "util/error.hpp"

namespace pgasq::armci {

namespace {

/// A histogram's nanosecond value as a microsecond JSON number.
obs::Json us(std::uint64_t ns) {
  return obs::Json::number(to_us(static_cast<Time>(ns)));
}

/// The world engine's per-(op, algo) table as coll.*, then every
/// process group's as grp.coll.* under a "group" label.
void fill_coll(obs::Registry& reg, const CommStats& s) {
  auto fill = [&](const std::string& prefix, const obs::Labels& base,
                  const CollStats& c) {
    for (int op = 0; op < CollStats::kOps; ++op) {
      for (int a = 0; a < CollStats::kAlgos; ++a) {
        if (c.count[op][a] == 0) continue;
        obs::Labels labels = base;
        labels.emplace_back("op", kCollOpNames[op]);
        labels.emplace_back("algo", kCollAlgoNames[a]);
        reg.set_counter(prefix + "ops", c.count[op][a], labels);
        reg.set_counter(prefix + "bytes", c.bytes[op][a], labels);
        reg.set_gauge(prefix + "time_us", to_us(c.time[op][a]), labels);
      }
    }
  };
  fill("coll.", {}, s.coll);
  if (s.coll.total_ops() > 0) {
    reg.set_counter("coll.scratch_reallocs", s.coll.scratch_reallocs);
  }
  for (const auto& [group, gc] : s.group_coll) {
    fill("grp.coll.", {{"group", group}}, gc);
  }
}

}  // namespace

obs::Registry build_registry(const World& world) {
  obs::Registry reg;
  const CommStats s = world.total_stats();
  obs::export_fields(reg, s, kCommStatsFields);
  fill_coll(reg, s);

  const pami::Machine& m = world.machine();
  reg.set_counter("noc.messages_sent", m.network().messages_sent());
  reg.set_counter("noc.bytes_sent", m.network().bytes_sent());

  const fault::Injector* inj = m.injector();
  if (inj != nullptr) {
    obs::export_fields(reg, inj->stats(), fault::kFaultStatsFields);
  }
  if (const fault::Integrity* ig = m.integrity()) {
    // The injector's corruption count, so the detected == injected
    // invariant is checkable from integrity.* alone (chaos_soak.py).
    reg.set_counter("integrity.flips_injected",
                    inj != nullptr ? inj->stats().packets_corrupted : 0);
    obs::export_fields(reg, ig->stats(), fault::kIntegrityStatsFields);
  }
  if (const ft::HealthMonitor* mon = m.monitor()) {
    obs::export_fields(reg, mon->stats(), ft::kFtStatsFields);
  }
  if (const flow::Controller* fc = m.flow()) {
    reg.set_counter("flow.credits", static_cast<std::uint64_t>(
                                        std::max(fc->config().credits, 0)));
    obs::export_fields(reg, fc->stats(), flow::kFlowStatsFields);
    if (fc->stats().queue_depth.total() > 0) {
      reg.set_histogram("flow.queue_depth", fc->stats().queue_depth);
    }
  }

  if (const obs::LinkUsage* lu = m.link_usage()) {
    reg.set_counter("obs.link_transfers", lu->transfers());
    reg.set_counter("obs.link_injected_bytes", lu->injected_bytes());
    reg.set_counter("obs.link_bytes_total", lu->link_bytes_total());
    reg.set_counter("obs.active_links",
                    static_cast<std::uint64_t>(lu->active_links()));
    const double cap =
        1.0 / m.params().g_ns_per_byte;  // peak bytes per ns on one link
    reg.set_gauge("obs.link_max_utilization", lu->max_utilization(cap));
    reg.set_gauge("obs.link_mean_utilization", lu->mean_utilization(cap));
  }
  // Application-published metrics (kvs.* etc.) ride after the
  // runtime-owned sections; empty for workloads that publish nothing.
  reg.merge_from(world.app_metrics());
  return reg;
}

obs::Json render_json_report(const World& world) {
  const pami::Machine& m = world.machine();
  obs::Json doc = obs::Json::object();
  doc.set("schema", obs::Json::string("pgasq.report"));
  doc.set("schema_version", obs::Json::number(kReportSchemaVersion));

  obs::Json machine = obs::Json::object();
  machine.set("ranks", obs::Json::number(world.num_ranks()));
  machine.set("ranks_per_node",
              obs::Json::number(m.config().ranks_per_node));
  machine.set("network_model", obs::Json::string(m.config().network_model));
  machine.set("torus", obs::Json::string(m.torus().to_string()));
  doc.set("machine", std::move(machine));

  doc.set("elapsed_us", obs::Json::number(to_us(world.elapsed())));
  doc.set("metrics", build_registry(world).to_json());

  if (const obs::LinkUsage* lu = m.link_usage()) {
    doc.set("links", lu->to_json());
  }
  if (const obs::Timeline* tl = m.timeline()) {
    doc.set("timeline", tl->to_json());
  }
  if (const obs::CritPath* cp = m.critpath()) {
    doc.set("critpath", cp->to_json());
  }
  if (const sim::TraceRecorder* tr = m.trace()) {
    obs::Json trace = obs::Json::object();
    trace.set("events",
              obs::Json::number(static_cast<std::uint64_t>(tr->event_count())));
    trace.set("max_events",
              obs::Json::number(static_cast<std::uint64_t>(tr->max_events())));
    trace.set("truncated", obs::Json::boolean(tr->truncated()));
    trace.set("aggregate", obs::Json::boolean(tr->aggregate()));
    if (tr->aggregate()) {
      trace.set("aggregate_series",
                obs::Json::number(
                    static_cast<std::uint64_t>(tr->aggregate_series())));
      // Per-(track, event) latency quantiles and instant counts — the
      // same rows the aggregate-mode trace file carries, so report
      // consumers need not parse the trace JSON.
      obs::Json aggs = obs::Json::array();
      obs::Json instants = obs::Json::array();
      for (const auto& row : tr->aggregate_rows()) {
        obs::Json o = obs::Json::object();
        o.set("track", obs::Json::string(row.track));
        o.set("name", obs::Json::string(row.name));
        o.set("count", obs::Json::number(row.count));
        if (row.latency == nullptr) {
          instants.push(std::move(o));
          continue;
        }
        const util::Histogram& h = *row.latency;
        o.set("min_us", us(h.min()));
        o.set("p50_us", us(h.quantile(0.5)));
        o.set("p99_us", us(h.quantile(0.99)));
        o.set("p999_us", us(h.quantile(0.999)));
        o.set("max_us", us(h.max()));
        aggs.push(std::move(o));
      }
      trace.set("aggregates", std::move(aggs));
      trace.set("instants", std::move(instants));
    }
    trace.set("sampled", obs::Json::boolean(tr->sampling()));
    if (tr->sampling()) {
      trace.set("sample_ranks",
                obs::Json::number(m.config().trace_sample_ranks));
    }
    doc.set("trace", std::move(trace));
  }
  return doc;
}

void write_json_report(const World& world, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PGASQ_CHECK(out.good(), << "cannot open report JSON path " << path);
  out << render_json_report(world).dump() << '\n';
  out.close();
  PGASQ_CHECK(out.good(), << "short write to report JSON path " << path);
}

std::string json_report_path_from_config(const Config& cfg) {
  ReportConfig c;
  parse_knobs(cfg, "report", kReportKnobs, c);
  return c.json_path;
}

}  // namespace pgasq::armci
