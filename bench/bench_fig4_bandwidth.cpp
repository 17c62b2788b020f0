// Figure 4: put/get bandwidth between two processes on adjacent
// nodes, 16 B .. 1 MB, windowed non-blocking transfers. Paper: peak
// 1775 MB/s (~99% of the 1.8 GB/s attainable link rate); the get
// round-trip overhead is visible below ~8 KB.
#include <vector>

#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_fig4_bandwidth: contiguous put/get bandwidth (2 procs)",
                      "Fig 4 — peak 1775 MB/s, get overhead visible <= 8KB");
  armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/2);
  const int window = static_cast<int>(cli.get_int("window", 32));
  cli.reject_unused();

  Table table({"bytes", "put_MB/s", "get_MB/s"});
  armci::World world(cfg);
  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(1 << 20);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 20));
    if (comm.rank() == 0) {
      comm.get(mem.at(1), buf, 16);
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
  table.print();
  bench::emit_observability(cli, world);
  return 0;
}
