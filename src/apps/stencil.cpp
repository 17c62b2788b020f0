#include "apps/stencil.hpp"

#include <cmath>
#include <vector>

#include "core/comm.hpp"
#include "core/strided.hpp"
#include "ga/collectives.hpp"
#include "util/error.hpp"

namespace pgasq::apps {

namespace {
/// Near-square process grid pr x pc = p with pr <= pc.
std::pair<int, int> grid_of(int p) {
  int pr = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while (pr > 1 && p % pr != 0) --pr;
  return {pr, p / pr};
}
}  // namespace

StencilResult run_stencil(armci::World& world, const StencilConfig& config) {
  PGASQ_CHECK(config.tile >= 4 && config.iterations >= 1);
  StencilResult result;
  Time t_start = 0;
  Time t_end = 0;

  world.spmd([&](armci::Comm& comm) {
    const int p = comm.nprocs();
    const auto [pr, pc] = grid_of(p);
    const int gr = comm.rank() / pc;
    const int gc = comm.rank() % pc;
    const std::int64_t n = config.tile;
    const std::size_t row_bytes = static_cast<std::size_t>(n) * sizeof(double);

    // Double-buffered tiles in collective memory (neighbours read the
    // "current" buffer one-sidedly).
    auto& mem = comm.malloc_collective(2 * static_cast<std::size_t>(n) * row_bytes);
    auto* tiles = reinterpret_cast<double*>(mem.local(comm.rank()));
    auto tile_at = [&](int buffer) { return tiles + buffer * n * n; };
    // Initial condition: a hot square in the global-center tile.
    for (std::int64_t i = 0; i < n * n; ++i) tile_at(0)[i] = 0.0;
    if (gr == pr / 2 && gc == pc / 2) {
      for (std::int64_t i = n / 4; i < 3 * n / 4; ++i) {
        for (std::int64_t j = n / 4; j < 3 * n / 4; ++j) {
          tile_at(0)[i * n + j] = 100.0;
        }
      }
    }
    comm.barrier();
    if (comm.rank() == 0) t_start = comm.now();

    auto neighbour = [&](int dr, int dc) {
      const int nr2 = (gr + dr + pr) % pr;
      const int nc2 = (gc + dc + pc) % pc;
      return nr2 * pc + nc2;
    };
    std::vector<double> north(static_cast<std::size_t>(n)), south(north.size());
    std::vector<double> west(north.size()), east(north.size());

    int cur = 0;
    for (int iter = 0; iter < config.iterations; ++iter) {
      const std::size_t buf_off =
          static_cast<std::size_t>(cur) * static_cast<std::size_t>(n) * row_bytes;
      armci::Handle h;
      // Row halos (contiguous) and column halos (tall-skinny strided).
      comm.nb_get_strided(
          mem.at(neighbour(-1, 0),
                 buf_off + (static_cast<std::size_t>(n) - 1) * row_bytes),
          north.data(), armci::StridedSpec::contiguous(row_bytes), h);
      comm.nb_get_strided(mem.at(neighbour(+1, 0), buf_off), south.data(),
                          armci::StridedSpec::contiguous(row_bytes), h);
      comm.nb_get_strided(
          mem.at(neighbour(0, -1), buf_off + row_bytes - sizeof(double)),
          west.data(),
          armci::StridedSpec({sizeof(double), static_cast<std::uint64_t>(n)},
                             {row_bytes}, {sizeof(double)}),
          h);
      comm.nb_get_strided(
          mem.at(neighbour(0, +1), buf_off), east.data(),
          armci::StridedSpec({sizeof(double), static_cast<std::uint64_t>(n)},
                             {row_bytes}, {sizeof(double)}),
          h);
      comm.wait(h);
      result.halo_bytes += 4 * row_bytes;

      // Jacobi sweep into the other buffer (real arithmetic + model).
      const double* src = tile_at(cur);
      double* dst = tile_at(1 - cur);
      auto at = [&](std::int64_t i, std::int64_t j) -> double {
        if (i < 0) return north[static_cast<std::size_t>(j)];
        if (i >= n) return south[static_cast<std::size_t>(j)];
        if (j < 0) return west[static_cast<std::size_t>(i)];
        if (j >= n) return east[static_cast<std::size_t>(i)];
        return src[i * n + j];
      };
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          dst[i * n + j] =
              0.2 * (at(i, j) + at(i - 1, j) + at(i + 1, j) + at(i, j - 1) +
                     at(i, j + 1));
        }
      }
      comm.compute(from_ns(config.ns_per_cell * static_cast<double>(n * n)));
      cur = 1 - cur;
      comm.barrier();  // buffer swap visibility
    }

    // Global residual: sum of squares of the final field.
    double partial = 0.0;
    const double* fin = tile_at(cur);
    for (std::int64_t i = 0; i < n * n; ++i) partial += fin[i] * fin[i];
    ga::gop_sum(comm, &partial, 1);
    if (comm.rank() == 0) {
      result.residual = partial;
      t_end = comm.now();
    }
    comm.barrier();
  });

  result.wall_time = t_end - t_start;
  result.stats = world.total_stats();
  return result;
}

}  // namespace pgasq::apps
