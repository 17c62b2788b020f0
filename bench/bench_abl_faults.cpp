// Ablation: Fig-4-style contiguous put/get bandwidth as the fabric
// degrades — per-packet drop probability swept over {0, 1e-4, 1e-2},
// each with and without one hard-failed link on the route. Recovery is
// the pami-layer ack/timeout/retransmit protocol plus dimension-order
// route-around; the sweep shows where timeouts start to eat the Fig 4
// curve and what a 2-extra-hop detour costs at each message size.
//
// Knobs: the usual bench ones plus fault.ack_timeout_us /
// fault.backoff_factor / fault.retry_budget and window=N. fault.seed
// fixes the loss pattern, so two runs are identical.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "fault/fault.hpp"

using namespace pgasq;

namespace {

struct Scenario {
  const char* name;
  double drop_prob;
  bool failed_link;
};

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner(
      "bench_abl_faults: put/get bandwidth under packet loss + link failure",
      "Fig 4 under fault injection — retransmit/backoff + route-around cost");
  const int window = static_cast<int>(cli.get_int("window", 32));
  bench::reject_unused_before_sweep(cli);

  // Two ranks four hops apart on a 4x1x1x1x1 ring, so the failed-link
  // scenarios take a real detour (dim of size 4; a size-2 dim reroutes
  // for free through the reverse link).
  const std::vector<Scenario> scenarios = {
      {"clean", 0.0, false},          {"drop=1e-4", 1e-4, false},
      {"drop=1e-2", 1e-2, false},     {"link-fail", 0.0, true},
      {"drop=1e-2+link", 1e-2, true},
  };

  for (const Scenario& sc : scenarios) {
    armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/2);
    cfg.machine.dims = topo::Coord5{4, 1, 1, 1, 1};
    cfg.machine.ranks_per_node = 1;
    cfg.machine.num_ranks = 2;
    cfg.machine.fault.drop_prob = sc.drop_prob;
    if (sc.failed_link) {
      cfg.machine.fault.link_faults.push_back(
          fault::LinkFaultSpec{/*node=*/0, /*dim=*/0, /*dir=*/+1,
                               /*capacity=*/0.0, /*begin=*/0, fault::kForever});
    }

    // One world for the whole sweep, like Fig 4: each successive row
    // keeps consuming the injector's RNG stream, so a 1% drop rate
    // actually bites somewhere in the ~1000 message legs of the sweep
    // (a fresh world per row would replay the same few draws and could
    // miss every drop).
    Table table({"bytes", "put_MB/s", "get_MB/s"});
    armci::World world(cfg);
    world.spmd([&](armci::Comm& comm) {
      auto& mem = comm.malloc_collective(1 << 20);
      auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 20));
      if (comm.rank() == 0) {
        comm.get(mem.at(1), buf, 16);  // warm the region cache
        comm.fence(1);
        for (std::size_t m : bench::size_sweep()) {
          Time t0 = comm.now();
          {
            armci::Handle h;
            for (int i = 0; i < window; ++i) comm.nb_put(buf, mem.at(1), m, h);
            comm.wait(h);
          }
          const double put_bw =
              static_cast<double>(window) * static_cast<double>(m) /
              to_s(comm.now() - t0) / 1e6;
          comm.fence(1);
          t0 = comm.now();
          {
            armci::Handle h;
            for (int i = 0; i < window; ++i) comm.nb_get(mem.at(1), buf, m, h);
            comm.wait(h);
          }
          const double get_bw =
              static_cast<double>(window) * static_cast<double>(m) /
              to_s(comm.now() - t0) / 1e6;
          table.row().add(format_bytes(m)).add(put_bw, 1).add(get_bw, 1);
        }
      }
      comm.barrier();
    });
    std::printf("\n--- scenario %s (seed=%llu) ---\n", sc.name,
                static_cast<unsigned long long>(cfg.machine.fault.seed));
    table.print();
    fault::FaultStats recovered{};
    if (const fault::Injector* inj = world.machine().injector()) {
      recovered = inj->stats();
    }
    std::printf("dropped=%llu retransmits=%llu reroutes=%llu backoff_ms=%.3f\n",
                static_cast<unsigned long long>(recovered.packets_dropped),
                static_cast<unsigned long long>(recovered.retransmits),
                static_cast<unsigned long long>(recovered.reroutes),
                to_ms(recovered.backoff_time));
  }
  return 0;
}
