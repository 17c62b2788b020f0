// Strided halo exchange for a 2-D stencil — the patch-based transfer
// pattern (S III-C2) that subsurface-modeling codes like STOMP run on
// Global Arrays. Each rank owns a tile of a global grid and pulls a
// one-cell halo from its four neighbours with strided gets: row halos
// are contiguous, column halos are tall-skinny (one element per row),
// which is exactly the shape the PAMI-typed path exists for.
//
//   ./examples/halo_exchange [--ranks=16] [--tile=64] [--steps=4]
#include <cstdio>
#include <vector>

#include "core/comm.hpp"
#include "core/strided.hpp"
#include "fault/fault.hpp"
#include "util/config.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = static_cast<int>(cli.get_int("ranks", 16));
  const std::int64_t tile = cli.get_int("tile", 64);
  const int steps = static_cast<int>(cli.get_int("steps", 4));

  cfg.machine.fault = fault::FaultPlan::from_config(cli);
  cli.reject_unused();
  armci::World world(cfg);
  Time wall = 0;
  double sample = 0.0;
  world.spmd([&](armci::Comm& comm) {
    const int p = comm.nprocs();
    // Square-ish process grid.
    int pr = 1;
    while ((pr + 1) * (pr + 1) <= p && p % (pr + 1) == 0) ++pr;
    const int pc = p / pr;
    const int gr = comm.rank() / pc;
    const int gc = comm.rank() % pc;
    const std::size_t row_bytes = static_cast<std::size_t>(tile) * sizeof(double);

    // Tile storage lives in collective memory so neighbours can reach it.
    armci::GlobalMem& mem =
        comm.malloc_collective(static_cast<std::size_t>(tile) * row_bytes);
    auto* grid = reinterpret_cast<double*>(mem.local(comm.rank()));
    for (std::int64_t i = 0; i < tile * tile; ++i) {
      grid[i] = comm.rank() * 10000.0 + static_cast<double>(i);
    }
    comm.barrier();
    const Time t0 = comm.now();

    std::vector<double> north(static_cast<std::size_t>(tile));
    std::vector<double> south(north.size());
    std::vector<double> west(north.size());
    std::vector<double> east(north.size());
    auto neighbour = [&](int dr, int dc) {
      const int nr = (gr + dr + pr) % pr;
      const int nc = (gc + dc + pc) % pc;
      return nr * pc + nc;
    };

    for (int step = 0; step < steps; ++step) {
      armci::Handle h;
      // North halo: the neighbour's LAST row — one contiguous chunk.
      comm.nb_get_strided(
          mem.at(neighbour(-1, 0), (static_cast<std::size_t>(tile) - 1) * row_bytes),
          north.data(), armci::StridedSpec::contiguous(row_bytes), h);
      // South halo: the neighbour's first row.
      comm.nb_get_strided(mem.at(neighbour(+1, 0)), south.data(),
                          armci::StridedSpec::contiguous(row_bytes), h);
      // West halo: the neighbour's last COLUMN — tall-skinny: tile
      // chunks of 8 bytes with the row pitch as stride.
      comm.nb_get_strided(
          mem.at(neighbour(0, -1), row_bytes - sizeof(double)), west.data(),
          armci::StridedSpec(
              {sizeof(double), static_cast<std::uint64_t>(tile)},
              {row_bytes}, {sizeof(double)}),
          h);
      // East halo: the neighbour's first column.
      comm.nb_get_strided(
          mem.at(neighbour(0, +1)), east.data(),
          armci::StridedSpec(
              {sizeof(double), static_cast<std::uint64_t>(tile)},
              {row_bytes}, {sizeof(double)}),
          h);
      comm.wait(h);
      // Relax the tile interior (modelled compute + a real touch).
      comm.compute(from_ns(5.0 * static_cast<double>(tile) * tile));
      grid[0] = 0.25 * (north[0] + south[0] + west[0] + east[0]);
      comm.barrier();
    }
    if (comm.rank() == 0) {
      wall = comm.now() - t0;
      // Validate one tall-skinny halo element: east neighbour's column 0,
      // row 3 = rank*10000 + 3*tile.
      sample = east[3] - (neighbour(0, +1) * 10000.0 + 3.0 * tile);
    }
    comm.barrier();
  });

  std::printf("halo exchange: %d ranks, %lldx%lld tiles, %d steps\n",
              cfg.machine.num_ranks, static_cast<long long>(tile),
              static_cast<long long>(tile), steps);
  std::printf("  wall (virtual): %.2f ms; tall-skinny column halo validated: %s\n",
              to_ms(wall), sample == 0.0 ? "OK" : "MISMATCH");
  return sample == 0.0 ? 0 : 1;
}
