// Ablation: sensitivity of the headline curves to the network model.
// Repeats the Fig 4 bandwidth sweep and a Fig 7-style distance probe
// under the stateless LogGP model and the link-contention (wormhole
// occupancy) model; shapes should agree for these uncongested
// workloads, diverging only when routes share links.
#include "common.hpp"

using namespace pgasq;

namespace {

double bandwidth(const Config& cli, const std::string& net, std::size_t m) {
  armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/2);
  cfg.machine.network_model = net;
  armci::World world(cfg);
  double bw = 0.0;
  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(1 << 20);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 20));
    if (comm.rank() == 0) {
      comm.get(mem.at(1), buf, 16);
      comm.fence(1);
      const int window = 32;
      const Time t0 = comm.now();
      armci::Handle h;
      for (int i = 0; i < window; ++i) comm.nb_put(buf, mem.at(1), m, h);
      comm.wait(h);
      bw = static_cast<double>(window) * static_cast<double>(m) /
           to_s(comm.now() - t0) / 1e6;
    }
    comm.barrier();
  });
  return bw;
}

/// All-to-one incast: every rank puts to rank 0 simultaneously; the
/// contention model must show slowdown, LogGP cannot.
double incast_ms(const Config& cli, const std::string& net) {
  armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/32);
  cfg.machine.network_model = net;
  armci::World world(cfg);
  Time t0 = 0, t1 = 0;
  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(static_cast<std::size_t>(comm.nprocs()) << 16);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 16));
    comm.barrier();
    if (comm.rank() == 0) t0 = comm.now();
    if (comm.rank() != 0) {
      comm.put(buf, mem.at(0, static_cast<std::size_t>(comm.rank()) << 16), 1 << 16);
      comm.fence(0);
    }
    comm.barrier();
    if (comm.rank() == 0) t1 = comm.now();
  });
  return to_ms(t1 - t0);
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_abl_netmodel: LogGP vs link-contention network model",
                      "model sensitivity of Fig 4 shapes + an incast stress");
  bench::reject_unused_before_sweep(cli);
  Table table({"bytes", "loggp_MB/s", "contention_MB/s"});
  for (std::size_t m : {4096ul, 65536ul, 1048576ul}) {
    table.row()
        .add(format_bytes(m))
        .add(bandwidth(cli, "loggp", m), 1)
        .add(bandwidth(cli, "contention", m), 1);
  }
  table.print();
  std::printf("\n32-rank incast to rank 0 (64KB each):\n");
  std::printf("  loggp:      %.3f ms (no link sharing modeled)\n",
              incast_ms(cli, "loggp"));
  std::printf("  contention: %.3f ms (links near rank 0 serialize)\n",
              incast_ms(cli, "contention"));
  return 0;
}
