#include "core/world.hpp"

#include <memory>

#include "core/comm.hpp"
#include "ft/liveness.hpp"
#include "util/error.hpp"

namespace pgasq::armci {

World::World(WorldConfig config)
    : config_(std::move(config)), machine_(config_.machine) {
  final_stats_.resize(static_cast<std::size_t>(machine_.num_ranks()));
  comms_.resize(static_cast<std::size_t>(machine_.num_ranks()), nullptr);
}

World::~World() = default;

void World::spmd(std::function<void(Comm&)> body) {
  PGASQ_CHECK(!spmd_ran_, << "a World hosts exactly one SPMD program; "
                             "construct a new World for another run");
  spmd_ran_ = true;
  if (machine_.monitor() != nullptr) start_heartbeat();
  machine_.run([this, &body](pami::Process& process) {
    Comm comm(*this, process);
    comms_[static_cast<std::size_t>(process.rank())] = &comm;
    comm.init();
    body(comm);
    comm.finalize();
    final_stats_[static_cast<std::size_t>(process.rank())] = comm.stats();
    comms_[static_cast<std::size_t>(process.rank())] = nullptr;
  });
  elapsed_ = machine_.engine().now();
}

void World::start_heartbeat() {
  ft::HealthMonitor* mon = machine_.monitor();
  // Declaration invalidates any in-flight hardware-barrier rendezvous:
  // dead ranks may be counted in `arrived`, and the live target just
  // shrank. Survivors blocked in that barrier unwind via ft_check and
  // re-arrive after recovery, so resetting the count is safe.
  mon->add_epoch_listener([this] {
    barrier_.arrived = 0;
    for (Comm* c : comms_) {
      if (c != nullptr) c->ft_poke();
    }
  });
  // The heartbeat tick: keeps virtual time advancing while a scheduled
  // death has not been declared yet (every application fiber may be
  // parked on work that died with the node), probes for silent nodes,
  // and wakes parked fibers so they observe epoch changes. Stops once
  // every death is declared and every surviving rank acknowledged the
  // epoch — or when the program finished — so the run still drains.
  sim::Engine& eng = machine_.engine();
  const Time period = mon->config().heartbeat_period;
  // The tick closure lives in the World (not in a self-capturing
  // shared_ptr — that would be a retain cycle): each scheduled copy
  // only borrows `this`, which outlives the engine run.
  heartbeat_tick_ = [this, mon, &eng, period] {
    bool any_comm = false;
    bool all_acked = true;
    for (Comm* c : comms_) {
      if (c == nullptr) continue;
      any_comm = true;
      if (!c->ft_failed() && c->ft_epoch_acked() != mon->epoch()) all_acked = false;
    }
    if (!any_comm) return;  // ranks all finished; let the engine drain
    mon->probe(eng.now());
    for (Comm* c : comms_) {
      if (c != nullptr) c->ft_poke();
    }
    if (mon->deaths_pending() || !all_acked) {
      eng.schedule_after(period, heartbeat_tick_);
    }
  };
  eng.schedule_after(period, heartbeat_tick_);
}

void World::release_after(Time delay, std::uint64_t& generation) {
  machine_.engine().schedule_after(delay, [this, &generation] {
    ++generation;
    for (Comm* c : comms_) {
      if (c != nullptr) c->main_context().post_completion([] {}, 0);
    }
  });
}

const CommStats& World::stats(RankId rank) const {
  PGASQ_CHECK(rank >= 0 && rank < machine_.num_ranks());
  return final_stats_[static_cast<std::size_t>(rank)];
}

CommStats World::total_stats() const {
  CommStats total;
  for (const auto& s : final_stats_) total.merge(s);
  return total;
}

GlobalMem& World::ensure_heap(std::uint64_t seq, std::size_t bytes_per_rank) {
  if (heaps_.size() <= seq) heaps_.resize(seq + 1);
  auto& slot = heaps_[seq];
  if (!slot) {
    slot = std::make_unique<GlobalMem>(next_mem_id_++, machine_.num_ranks(),
                                       bytes_per_rank);
  }
  PGASQ_CHECK(slot->bytes_per_rank() == bytes_per_rank,
              << "collective allocation size mismatch across ranks: " << bytes_per_rank
              << " vs " << slot->bytes_per_rank());
  return *slot;
}

}  // namespace pgasq::armci
