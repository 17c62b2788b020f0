// World: the simulated machine plus the cross-rank coordination state
// of the ARMCI runtime (collective allocation rendezvous, the
// hardware-barrier signal, final statistics).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/globalmem.hpp"
#include "core/types.hpp"
#include "obs/registry.hpp"
#include "pami/machine.hpp"

namespace pgasq::armci {

class Comm;

struct WorldConfig {
  pami::MachineConfig machine;
  Options armci;
};

class World {
 public:
  explicit World(WorldConfig config);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs `body` as an SPMD program: one simulated process per rank,
  /// each receiving its own Comm. Returns when the simulation drains.
  void spmd(std::function<void(Comm&)> body);

  pami::Machine& machine() { return machine_; }
  const pami::Machine& machine() const { return machine_; }
  const Options& options() const { return config_.armci; }
  int num_ranks() const { return machine_.num_ranks(); }

  /// Virtual time when the last rank finished.
  Time elapsed() const { return elapsed_; }

  /// Application-level metrics (e.g. kvs.* from src/kvs). Workloads
  /// write counters/gauges/histograms here; report rendering splices
  /// them into the text report and the pgasq.report JSON after the
  /// runtime-owned sections. Empty for runs that publish nothing —
  /// those reports stay byte-identical.
  obs::Registry& app_metrics() { return app_metrics_; }
  const obs::Registry& app_metrics() const { return app_metrics_; }

  /// Per-rank statistics captured at finalize.
  const CommStats& stats(RankId rank) const;
  /// Sum over ranks.
  CommStats total_stats() const;

  /// Live global allocations (sigma structures). Entries may be
  /// freed-but-kept to keep addresses stable.
  const std::vector<std::unique_ptr<GlobalMem>>& heaps() const { return heaps_; }

  /// Opaque cross-rank slot owned by the collectives subsystem
  /// (src/coll): the hardware-collective arrival/combine rendezvous
  /// shared by every rank's engine. Created by the first engine.
  std::shared_ptr<void>& coll_shared() { return coll_shared_; }

  /// Releases a hardware rendezvous: after `delay`, bumps `generation`
  /// (which must outlive the wait) and posts a zero-cost item to every
  /// live rank's main context so each parked waiter re-checks.
  void release_after(Time delay, std::uint64_t& generation);

 private:
  friend class Comm;

  struct BarrierState {
    std::size_t arrived = 0;
    std::uint64_t generation = 0;
  };

  /// First caller (by collective sequence number) constructs the heap;
  /// later callers validate the size matches.
  GlobalMem& ensure_heap(std::uint64_t seq, std::size_t bytes_per_rank);

  /// First collective sequence number no rank has allocated yet (the
  /// fail-stop recovery alignment point, see Comm::ft_align_collectives).
  std::uint64_t collective_seq_high_water() const { return heaps_.size(); }

  /// Installs the fail-stop epoch listener and schedules the heartbeat
  /// tick (only called when the machine built a health monitor).
  void start_heartbeat();

  WorldConfig config_;
  pami::Machine machine_;
  BarrierState barrier_;
  std::vector<std::unique_ptr<GlobalMem>> heaps_;  // indexed by collective seq
  std::uint64_t next_mem_id_ = 1;
  std::vector<Comm*> comms_;
  std::function<void()> heartbeat_tick_;  // owned here; copies borrow `this`
  std::shared_ptr<void> coll_shared_;
  std::vector<CommStats> final_stats_;
  obs::Registry app_metrics_;
  Time elapsed_ = 0;
  bool spmd_ran_ = false;
};

}  // namespace pgasq::armci
