// Figure 8: strided (uniformly non-contiguous) get/put bandwidth for a
// 1 MB total transfer as a function of the contiguous-chunk size l0.
// Paper: the curve tracks Figure 4 as l0 grows — per-chunk RDMA with
// many outstanding messages exploits the torus's messaging rate;
// tall-skinny shapes (tiny l0) route through the PAMI typed path.
#include "common.hpp"
#include "core/strided.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_fig8_strided: strided put/get bandwidth vs chunk size l0",
                      "Fig 8 — 1MB total; curve tracks Fig 4 as l0 grows");
  armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/2);
  const std::size_t total = static_cast<std::size_t>(cli.get_int("total", 1 << 20));
  cli.reject_unused();

  Table table({"l0_bytes", "chunks", "protocol", "put_MB/s", "get_MB/s"});
  armci::World world(cfg);
  world.spmd([&](armci::Comm& comm) {
    // Pitch 2*l0 on both sides: genuinely non-contiguous, needs 2x room.
    auto& mem = comm.malloc_collective(2 * total);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(2 * total));
    if (comm.rank() == 0) {
      comm.get(mem.at(1), buf, 16);
      comm.fence(1);
      for (std::size_t l0 = 16; l0 <= total; l0 *= 4) {
        const std::uint64_t rows = total / l0;
        const armci::StridedSpec spec =
            rows == 1 ? armci::StridedSpec::contiguous(l0)
                      : armci::StridedSpec::rect2d(rows, l0, 2 * l0, 2 * l0);
        const char* protocol =
            (l0 < comm.options().tall_skinny_chunk_bytes &&
             rows >= comm.options().tall_skinny_min_chunks)
                ? "typed"
                : "zero-copy";
        Time t0 = comm.now();
        comm.put_strided(buf, mem.at(1), spec);
        comm.fence(1);
        const double put_bw =
            static_cast<double>(total) / to_s(comm.now() - t0) / 1e6;
        t0 = comm.now();
        comm.get_strided(mem.at(1), buf, spec);
        const double get_bw =
            static_cast<double>(total) / to_s(comm.now() - t0) / 1e6;
        table.row()
            .add(format_bytes(l0))
            .add(static_cast<long long>(rows))
            .add(std::string(protocol))
            .add(put_bw, 1)
            .add(get_bw, 1);
      }
    }
    comm.barrier();
  });
  table.print();
  return 0;
}
