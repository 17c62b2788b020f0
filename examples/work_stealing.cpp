// Work stealing over PGAS — the paper's intro motivates PGAS models
// by "asynchronous read/writes (get/put) ... for load balancing,
// work-stealing". Each rank owns a task pool in global memory; when a
// rank drains its own pool it steals from victims with a remote
// fetch-and-add on their claim counter and a one-sided get of the task
// descriptor. Run with --steal=0 to see the imbalanced baseline.
//
//   ./examples/work_stealing [--ranks=32] [--tasks=24] [--steal=1]
//                            [--progress=async]
#include <cstdio>
#include <vector>

#include "core/comm.hpp"
#include "fault/fault.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

using namespace pgasq;

namespace {

struct PoolLayout {
  // Per-rank global slab: [claim counter][total][task durations...]
  static constexpr std::size_t kHeader = 2 * sizeof(std::int64_t);
  static std::size_t bytes(std::int64_t capacity) {
    return kHeader + static_cast<std::size_t>(capacity) * sizeof(std::int64_t);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = static_cast<int>(cli.get_int("ranks", 32));
  if (cli.get_string("progress", "default") == "async") {
    cfg.armci.progress = armci::ProgressMode::kAsyncThread;
    cfg.armci.contexts_per_rank = 2;
  }
  const std::int64_t tasks_per_rank = cli.get_int("tasks", 24);
  const bool steal = cli.get_bool("steal", true);
  // Skew: the first quarter of ranks hold 4x the work of the rest.
  const std::int64_t capacity = 4 * tasks_per_rank;

  cfg.machine.fault = fault::FaultPlan::from_config(cli);
  cli.reject_unused();
  armci::World world(cfg);
  Time wall = 0;
  std::int64_t executed_total = 0;
  std::int64_t stolen_total = 0;
  world.spmd([&](armci::Comm& comm) {
    const int me = comm.rank();
    const int p = comm.nprocs();
    armci::GlobalMem& pool = comm.malloc_collective(PoolLayout::bytes(capacity));
    auto* header = reinterpret_cast<std::int64_t*>(pool.local(me));
    auto* durations = header + 2;
    // Imbalanced fill: heavy ranks get 4x tasks.
    const bool heavy = me < std::max(1, p / 4);
    const std::int64_t mine = heavy ? 4 * tasks_per_rank : tasks_per_rank;
    Rng rng(static_cast<std::uint64_t>(me) * 7919 + 13);
    header[0] = 0;      // claim counter
    header[1] = mine;   // total tasks in this pool
    for (std::int64_t t = 0; t < mine; ++t) {
      durations[t] = from_us(static_cast<double>(rng.next_in(50, 150)));
    }
    comm.barrier();
    const Time t0 = comm.now();

    std::int64_t executed = 0;
    std::int64_t stolen = 0;
    auto drain_pool = [&](int victim) {
      std::int64_t done_here = 0;
      for (;;) {
        // Claim a task index with a remote fetch-and-add...
        const std::int64_t idx = comm.fetch_add(pool.at(victim), 1);
        std::int64_t total = 0;
        comm.get(pool.at(victim, sizeof(std::int64_t)), &total, sizeof total);
        if (idx >= total) break;
        // ...then fetch its descriptor one-sidedly and run it.
        std::int64_t duration = 0;
        comm.get(pool.at(victim, PoolLayout::kHeader +
                                     static_cast<std::size_t>(idx) * sizeof duration),
                 &duration, sizeof duration);
        comm.compute(duration);
        ++done_here;
        ++executed;
        if (victim != me) ++stolen;
      }
      return done_here;
    };

    drain_pool(me);
    if (steal) {
      // Round-robin victim scan starting after ourselves.
      for (int off = 1; off < p; ++off) drain_pool((me + off) % p);
    }
    comm.barrier();
    if (me == 0) wall = comm.now() - t0;
    executed_total += executed;
    stolen_total += stolen;
    comm.barrier();
  });

  const std::int64_t expected =
      std::max(1, cfg.machine.num_ranks / 4) * 4 * tasks_per_rank +
      (cfg.machine.num_ranks - std::max(1, cfg.machine.num_ranks / 4)) *
          tasks_per_rank;
  std::printf("work stealing: %d ranks, %lld tasks total, stealing %s\n",
              cfg.machine.num_ranks, static_cast<long long>(executed_total),
              steal ? "ON" : "OFF");
  std::printf("  executed %lld/%lld tasks, %lld stolen (%.1f%%)\n",
              static_cast<long long>(executed_total),
              static_cast<long long>(expected),
              static_cast<long long>(stolen_total),
              100.0 * static_cast<double>(stolen_total) /
                  static_cast<double>(executed_total));
  std::printf("  wall (virtual): %.2f ms\n", to_ms(wall));
  return executed_total == expected ? 0 : 1;
}
