// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every bench accepts "--key=value" overrides (see util/config.hpp);
// common knobs: ranks, ranks_per_node (c), net (loggp|contention),
// progress (default|async), contexts (rho), consistency
// (target|region), seed. Each main calls Config::reject_unused (or
// reject_unused_before_sweep) after its last read and before its first
// World, so a key nothing reads (a typo) fails before the run.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "coll/selection.hpp"
#include "core/comm.hpp"
#include "core/report_json.hpp"
#include "core/world.hpp"
#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "flow/flow.hpp"
#include "ft/recovery.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace pgasq::bench {

inline armci::WorldConfig make_world_config(const Config& cli, int default_ranks,
                                            int default_ranks_per_node = 1,
                                            const char* default_net = "loggp") {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks =
      static_cast<int>(cli.get_int("ranks", default_ranks));
  cfg.machine.ranks_per_node =
      static_cast<int>(cli.get_int("ranks_per_node", default_ranks_per_node));
  cfg.machine.network_model = cli.get_string("net", default_net);
  cfg.machine.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  const std::string progress = cli.get_string("progress", "default");
  if (progress == "async") {
    cfg.armci.progress = armci::ProgressMode::kAsyncThread;
    cfg.armci.contexts_per_rank = static_cast<int>(cli.get_int("contexts", 2));
  } else {
    PGASQ_CHECK(progress == "default", << "progress=" << progress);
    cfg.armci.progress = armci::ProgressMode::kDefault;
    cfg.armci.contexts_per_rank = static_cast<int>(cli.get_int("contexts", 1));
  }
  const std::string consistency = cli.get_string("consistency", "region");
  if (consistency == "target") {
    cfg.armci.consistency = armci::ConsistencyMode::kPerTarget;
  } else {
    PGASQ_CHECK(consistency == "region", << "consistency=" << consistency);
    cfg.armci.consistency = armci::ConsistencyMode::kPerRegion;
  }
  cfg.machine.params.hardware_amo = cli.get_bool("hardware_amo", false);
  cfg.machine.fault = fault::FaultPlan::from_config(cli);
  // End-to-end integrity knobs (--integrity.verify, --integrity.crc_*
  // etc.); the layer also self-arms when --fault.corrupt_prob is set.
  cfg.machine.integrity = fault::IntegrityConfig::from_config(cli);
  // Fail-stop detection knobs (--ft.heartbeat_period_us etc.); inert
  // unless the fault plan also schedules node deaths. The checkpoint
  // cadence (--ft.checkpoint_interval) is app-level — benches that run
  // SCF pick it up from the same parse via ft::RuntimeConfig.
  cfg.machine.ft = ft::RuntimeConfig::from_config(cli);
  // Overload-control knobs (--flow.credits, --flow.deadline_us,
  // --flow.admit ...). All off by default — with flow.* unset no
  // controller is built and runs stay byte-identical.
  cfg.machine.flow = flow::FlowConfig::from_config(cli, {});
  // Collectives-engine knobs ride through opaquely: every "--coll.*"
  // key is handed to coll::CollConfig with the prefix stripped, e.g.
  // --coll.algo.allreduce=torus-ring or --coll.hw=0.
  for (const std::string& key : cli.keys()) {
    if (key.rfind("coll.", 0) == 0) {
      cfg.armci.coll.emplace_back(key.substr(5), cli.get_string(key, ""));
    }
  }
  // Parsed here too, so a mistyped coll.* key fails before the run even
  // in a bench that never builds a collectives engine.
  coll::CollConfig::from_options(cfg.armci);
  // The async runtime has no knobs; a stale --async.* key (e.g. the old
  // --async.scf_overlap, now ScfConfig::overlap) must not pass silently.
  cli.reject_unknown("async", {});
  // Observability: --trace.json_path, --trace.max_events, --obs.links,
  // --obs.link_bucket_us, --obs.link_top, --obs.link_csv. All off by
  // default — untraced runs stay byte-identical.
  pami::configure_observability(cli, cfg.machine);
  // Read here too (emit_observability writes it) so a mistyped report.*
  // key fails before the run, not after it.
  armci::json_report_path_from_config(cli);
  return cfg;
}

/// For benches that build their Worlds inside a sweep: call after the
/// bench's own reads and before the first World. Reads the keys
/// make_world_config reads, then rejects every key nothing asked for,
/// so a typo fails before the sweep runs instead of after it.
inline void reject_unused_before_sweep(const Config& cli) {
  make_world_config(cli, /*default_ranks=*/1);
  cli.reject_unused();
}

/// End-of-run observability artifacts: writes the versioned
/// machine-readable report (--report.json_path, e.g. BENCH_fig3.json),
/// the per-link CSV (--obs.link_csv), and the timeline CSV
/// (--obs.timeline_csv) when the corresponding knob is set. (The trace
/// JSON is written by Machine::run itself.) No-op when all are unset.
inline void emit_observability(const Config& cli, const armci::World& world) {
  const std::string report_path = armci::json_report_path_from_config(cli);
  if (!report_path.empty()) armci::write_json_report(world, report_path);
  const pami::Machine& m = world.machine();
  if (const obs::LinkUsage* lu = m.link_usage()) {
    if (!m.config().obs.link_csv.empty()) {
      lu->write_csv(m.config().obs.link_csv);
    }
  }
  if (const obs::Timeline* tl = m.timeline()) {
    if (!m.config().obs.timeline_csv.empty()) {
      tl->write_csv(m.config().obs.timeline_csv);
    }
  }
}

/// Message-size sweep 16 B .. 1 MB in powers of two (Table II's range).
inline std::vector<std::size_t> size_sweep(std::size_t lo = 16,
                                           std::size_t hi = 1 << 20) {
  std::vector<std::size_t> sizes;
  for (std::size_t m = lo; m <= hi; m *= 2) sizes.push_back(m);
  return sizes;
}

inline void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

/// Progress-mode series used by Fig 9 / Fig 11.
struct ModeSpec {
  std::string name;
  armci::ProgressMode progress;
  int contexts;
};

inline std::vector<ModeSpec> default_and_async() {
  return {{"D", armci::ProgressMode::kDefault, 1},
          {"AT", armci::ProgressMode::kAsyncThread, 2}};
}

}  // namespace pgasq::bench
