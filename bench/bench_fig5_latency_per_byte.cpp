// Figure 5: effective latency per byte of a blocking get, used to
// find the message-aggregation inflection point. Paper: ~1 ns/byte
// beyond 4 KB.
#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_fig5_latency_per_byte: get latency / message byte",
                      "Fig 5 — ~1 ns/B beyond 4KB (aggregation inflection)");
  armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/2);
  const int iters = static_cast<int>(cli.get_int("iters", 5));
  cli.reject_unused();

  Table table({"bytes", "get_us", "ns_per_byte"});
  armci::World world(cfg);
  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(1 << 20);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 20));
    if (comm.rank() == 0) {
      comm.get(mem.at(1), buf, 16);
      for (std::size_t m : bench::size_sweep()) {
        Time total = 0;
        for (int i = 0; i < iters; ++i) {
          const Time t0 = comm.now();
          comm.get(mem.at(1), buf, m);
          total += comm.now() - t0;
        }
        const double us = to_us(total) / iters;
        table.row()
            .add(format_bytes(m))
            .add(us, 3)
            .add(us * 1e3 / static_cast<double>(m), 3);
      }
    }
    comm.barrier();
  });
  table.print();
  return 0;
}
