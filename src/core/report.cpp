#include "core/report.hpp"

#include <cstdio>
#include <sstream>

#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "flow/flow.hpp"
#include "ft/liveness.hpp"
#include "obs/critpath.hpp"
#include "obs/link_usage.hpp"
#include "obs/timeline.hpp"
#include "sim/trace.hpp"
#include "util/table.hpp"

namespace pgasq::armci {

namespace {

/// One (op, algorithm) row per collective that ran, then the scratch-heap
/// growth (only the world engine has a scratch heap).
void render_coll(std::ostream& os, const std::string& title,
                 const CollStats& c) {
  if (c.total_ops() == 0) return;
  os << '\n';
  Table t({title, "algorithm", "count", "payload", "seconds"});
  for (int op = 0; op < CollStats::kOps; ++op) {
    for (int a = 0; a < CollStats::kAlgos; ++a) {
      if (c.count[op][a] == 0) continue;
      t.row()
          .add(std::string(kCollOpNames[op]))
          .add(std::string(kCollAlgoNames[a]))
          .add(c.count[op][a])
          .add(human_bytes(c.bytes[op][a]))
          .add(to_s(c.time[op][a]), 4);
    }
  }
  if (c.scratch_reallocs > 0) {
    t.row().add(std::string("(scratch grows)")).add(std::string("-"))
        .add(c.scratch_reallocs).add(std::string("-")).add(std::string("-"));
  }
  os << t.to_string();
}

}  // namespace

std::string render_report(const World& world, const ReportOptions& options) {
  const CommStats s = world.total_stats();
  std::ostringstream os;
  os << "=== pgasq communication report (" << world.num_ranks() << " ranks, "
     << world.machine().torus().to_string() << ") ===\n";
  os << "virtual time: " << to_ms(world.elapsed()) << " ms\n\n";

  Table ops({"operation", "count", "bytes", "rdma", "fallback/AM"});
  ops.row().add(std::string("put (contig+vector)")).add(s.puts)
      .add(human_bytes(s.bytes_put)).add(s.rdma_puts).add(s.fallback_puts);
  ops.row().add(std::string("get (contig+vector)")).add(s.gets)
      .add(human_bytes(s.bytes_got)).add(s.rdma_gets).add(s.fallback_gets);
  ops.row().add(std::string("accumulate")).add(s.accs)
      .add(human_bytes(s.bytes_acc)).add(0ull).add(s.accs);
  ops.row().add(std::string("strided put/get/acc"))
      .add(s.strided_puts + s.strided_gets + s.strided_accs)
      .add(std::string("-")).add(s.zero_copy_chunks + s.typed_ops).add(s.packed_ops);
  ops.row().add(std::string("rmw (fetch&add etc.)")).add(s.rmws)
      .add(human_bytes(s.rmws * 8)).add(0ull).add(s.rmws);
  os << ops.to_string() << '\n';

  Table sync({"synchronization", "value"});
  obs::append_rows(sync, s, kCommStatsFields, 0, obs::kCount);
  sync.row().add(std::string("region cache hits/misses"))
      .add(std::to_string(s.region_cache_hits) + "/" +
           std::to_string(s.region_cache_misses));
  os << sync.to_string() << '\n';

  Table times({"blocked in", "seconds (sum over ranks)"});
  obs::append_rows(times, s, kCommStatsFields, 4, obs::kTime);
  os << times.to_string();

  render_coll(os, "collective", s.coll);
  for (const auto& [label, gc] : s.group_coll) {
    render_coll(os, "group '" + label + "'", gc);
  }

  if (const fault::Injector* inj = world.machine().injector()) {
    os << '\n';
    Table faults({"fault injection & recovery", "value"});
    obs::append_rows(faults, inj->stats(), fault::kFaultStatsFields, 4);
    faults.row().add(std::string("retransmits")).add(s.retransmits);
    faults.row().add(std::string("backoff seconds (sum over ranks)"))
        .add(to_s(s.retransmit_backoff), 4);
    faults.row().add(std::string("ranks per node (blast radius)"))
        .add(world.machine().mapping().ranks_per_node());
    os << faults.to_string();
  }

  if (const fault::Integrity* ig = world.machine().integrity()) {
    os << '\n';
    Table integ({"end-to-end integrity", "value"});
    obs::append_rows(integ, ig->stats(), fault::kIntegrityStatsFields, 0);
    os << integ.to_string();
  }

  if (const ft::HealthMonitor* mon = world.machine().monitor()) {
    os << '\n';
    Table ft({"fail-stop recovery", "value"});
    obs::append_rows(ft, mon->stats(), ft::kFtStatsFields, 6);
    os << ft.to_string();
  }

  if (const flow::Controller* fc = world.machine().flow()) {
    const flow::FlowStats& f = fc->stats();
    os << '\n';
    Table fl({"overload control (flow)", "value"});
    fl.row().add(std::string("credit window (per src,dst)"))
        .add(fc->config().credits);
    obs::append_rows(fl, f, flow::kFlowStatsFields, 6);
    fl.row().add(std::string("queue depth p50 / p99 / max"))
        .add(std::to_string(f.queue_depth.quantile(0.5)) + " / " +
             std::to_string(f.queue_depth.quantile(0.99)) + " / " +
             std::to_string(f.queue_depth.max()));
    os << fl.to_string();
  }

  if (const obs::LinkUsage* lu = world.machine().link_usage()) {
    os << '\n'
       << lu->heatmap(1.0 / world.machine().params().g_ns_per_byte,
                      world.machine().config().obs.link_top);
  }

  if (const obs::Timeline* tl = world.machine().timeline()) {
    os << '\n' << tl->render(world.machine().config().obs.timeline_top);
  }

  if (const obs::CritPath* cp = world.machine().critpath()) {
    os << '\n' << cp->render();
  }

  if (world.app_metrics().size() != 0) {
    os << "\napplication metrics:\n" << world.app_metrics().to_text();
  }

  if (const sim::TraceRecorder* tr = world.machine().trace()) {
    os << "\ntrace: " << tr->event_count() << " events";
    if (tr->aggregate()) {
      os << " — aggregated (trace.aggregate=1, " << tr->aggregate_series()
         << " series)";
    }
    if (tr->sampling()) {
      os << " — sampled (trace.sample_ranks="
         << world.machine().config().trace_sample_ranks
         << "; unsampled ranks muted)";
    }
    if (tr->truncated()) {
      os << " — trace truncated at " << tr->max_events()
         << " events; later events were dropped (raise trace.max_events)";
    }
    os << '\n';
  }

  if (options.include_histograms && s.put_sizes.total() + s.get_sizes.total() > 0) {
    os << "\nput sizes (log2 buckets):\n" << s.put_sizes.to_string();
    os << "get sizes (log2 buckets):\n" << s.get_sizes.to_string();
    if (s.acc_sizes.total() > 0) {
      os << "acc sizes (log2 buckets):\n" << s.acc_sizes.to_string();
    }
  }

  if (options.include_per_rank) {
    os << '\n';
    Table per({"rank", "puts", "gets", "accs", "rmws", "rmw_ms", "fence_ms"});
    const int limit = std::min(world.num_ranks(), options.per_rank_limit);
    for (int r = 0; r < limit; ++r) {
      const CommStats& rs = world.stats(r);
      per.row().add(r).add(rs.puts).add(rs.gets).add(rs.accs).add(rs.rmws)
          .add(to_ms(rs.time_in_rmw), 3).add(to_ms(rs.time_in_fence), 3);
    }
    os << per.to_string();
    if (world.num_ranks() > limit) {
      os << "(" << world.num_ranks() - limit << " more ranks elided)\n";
    }
  }
  return os.str();
}

void print_report(const World& world, const ReportOptions& options) {
  std::fputs(render_report(world, options).c_str(), stdout);
}

}  // namespace pgasq::armci
