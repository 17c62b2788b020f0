#include "pami/machine.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace pgasq::pami {

topo::Coord5 Machine::pick_dims(const MachineConfig& config) {
  if (config.dims) return *config.dims;
  PGASQ_CHECK(config.num_ranks >= 1);
  PGASQ_CHECK(config.ranks_per_node >= 1);
  PGASQ_CHECK(config.num_ranks % config.ranks_per_node == 0,
              << "num_ranks " << config.num_ranks << " not divisible by ranks_per_node "
              << config.ranks_per_node);
  const int nodes = config.num_ranks / config.ranks_per_node;
  if (topo::has_bgq_partition(nodes)) return topo::bgq_partition_dims(nodes);
  return topo::balanced_dims(nodes);
}

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      torus_(pick_dims(config_)),
      mapping_(torus_, config_.ranks_per_node),
      rng_(config_.seed) {
  network_ = noc::make_network_model(config_.network_model, torus_, config_.params);
  if (!config_.trace_json_path.empty()) {
    trace_ = std::make_unique<sim::TraceRecorder>(config_.trace_max_events);
    trace_->set_aggregate(config_.trace_aggregate);
    engine_.set_trace(trace_.get());
    if (config_.trace_sample_ranks > 0 &&
        config_.trace_sample_ranks < config_.num_ranks) {
      PGASQ_LOG(kWarn) << "trace.sample_ranks=" << config_.trace_sample_ranks
                       << ": tracing a stride sample of " << config_.num_ranks
                       << " ranks; unsampled ranks' tracks are muted and "
                          "flows starting on them are pruned";
      // Any fiber named "...rank<r>" for an unsampled r gets a muted
      // track (main fibers are "rank<r>", SMT threads "<x>@rank<r>").
      engine_.set_track_mute([this](const std::string& name) {
        const std::size_t pos = name.rfind("rank");
        if (pos == std::string::npos) return false;
        RankId r = 0;
        bool digits = false;
        for (std::size_t i = pos + 4; i < name.size(); ++i) {
          const char ch = name[i];
          if (ch < '0' || ch > '9') return false;
          r = r * 10 + (ch - '0');
          digits = true;
        }
        return digits && !rank_traced(r);
      });
    }
    // One flow track per rank: network flow endpoints (injection,
    // delivery, ack) land here rather than on the fiber tracks, so
    // Perfetto draws message arrows between ranks.
    net_tracks_.reserve(static_cast<std::size_t>(config_.num_ranks));
    for (RankId r = 0; r < config_.num_ranks; ++r) {
      net_tracks_.push_back(
          trace_->register_track("net@rank" + std::to_string(r), !rank_traced(r)));
    }
  }
  if (config_.obs.links) {
    link_usage_ = std::make_unique<obs::LinkUsage>(torus_, config_.obs.link_bucket);
    network_->set_link_usage(link_usage_.get());
  }
  if (config_.obs.timeline) {
    timeline_ = std::make_unique<obs::Timeline>(
        config_.obs.timeline_bucket,
        static_cast<std::size_t>(config_.obs.timeline_max_series));
    engine_.set_timeline(timeline_.get());
    network_->set_timeline(timeline_.get());
    timeline_ids_.pending_ops =
        timeline_->series("pami.pending_ops", obs::Timeline::Kind::kGauge);
    timeline_ids_.retransmits =
        timeline_->series("pami.retransmits", obs::Timeline::Kind::kCounter);
  }
  if (config_.obs.critpath) {
    critpath_ = std::make_unique<obs::CritPath>(config_.obs.critpath_top);
    network_->set_critpath(critpath_.get());
  }
  if (config_.fault.enabled()) {
    injector_ = std::make_unique<fault::Injector>(config_.fault, torus_);
    injector_->set_trace(trace_.get());
    network_->set_injector(injector_.get());
    if (injector_->has_node_fails()) {
      monitor_ = std::make_unique<ft::HealthMonitor>(config_.ft, *injector_, mapping_);
      monitor_->set_timeline(timeline_.get());
    }
  }
  // Integrity auto-enables under a corruption plan: a flipped payload
  // must never be silently delivered unless the user explicitly turns
  // transport verification off (integrity.verify=0).
  if (config_.fault.corrupt_prob > 0.0 || config_.integrity.configured) {
    integrity_ = std::make_unique<fault::Integrity>(config_.integrity);
  }
  if (config_.flow.enabled()) {
    flow_ = std::make_unique<flow::Controller>(config_.flow, torus_.num_nodes());
    flow_->set_trace(trace_.get());
    flow_->set_timeline(timeline_.get());
    network_->set_flow(flow_.get());
  }
  processes_.reserve(static_cast<std::size_t>(config_.num_ranks));
  for (RankId r = 0; r < config_.num_ranks; ++r) {
    processes_.push_back(
        std::make_unique<Process>(*this, r, config_.max_memregions_per_rank));
  }
}

Machine::~Machine() = default;

std::uint32_t Machine::rank_track(RankId rank) const {
  PGASQ_CHECK(trace_ != nullptr && rank >= 0 &&
              static_cast<std::size_t>(rank) < net_tracks_.size());
  return net_tracks_[static_cast<std::size_t>(rank)];
}

bool Machine::rank_traced(RankId rank) const {
  const int n = config_.trace_sample_ranks;
  if (n <= 0 || n >= config_.num_ranks) return true;
  // Ceil-divide so at most n ranks survive; rank 0 (the usual
  // collective root and report owner) is always in the sample.
  const int stride = (config_.num_ranks + n - 1) / n;
  return rank % stride == 0;
}

void configure_observability(const Config& cfg, MachineConfig& config) {
  parse_knobs(cfg, "trace", kTraceKnobs, config);
  parse_knobs(cfg, "obs", obs::kObsKnobs, config.obs);
  // Every timeline knob lives under obs.*; a bare timeline.* key is
  // always a misremembered namespace, never silently ignored.
  cfg.reject_unknown("timeline", {});
}

Process& Machine::process(RankId rank) {
  PGASQ_CHECK(rank >= 0 && rank < num_ranks(), << "rank " << rank);
  return *processes_[static_cast<std::size_t>(rank)];
}

void Machine::run(std::function<void(Process&)> rank_main) {
  for (RankId r = 0; r < num_ranks(); ++r) {
    Process* proc = processes_[static_cast<std::size_t>(r)].get();
    engine_.spawn("rank" + std::to_string(r), [rank_main, proc] { rank_main(*proc); },
                  config_.fiber_stack_bytes);
  }
  engine_.run();
  if (trace_ != nullptr) trace_->write_json(config_.trace_json_path);
}

sim::Fiber& Machine::spawn_thread(Process& process, const std::string& name,
                                  std::function<void()> body) {
  return engine_.spawn(name + "@rank" + std::to_string(process.rank()), std::move(body),
                       config_.fiber_stack_bytes);
}

}  // namespace pgasq::pami
