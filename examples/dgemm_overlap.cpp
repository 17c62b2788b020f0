// Distributed blocked matrix multiply C = A * B on Global Arrays —
// the paper's S III-E motivating workload. Each task fetches blocks of
// A and B with non-blocking gets, multiplies locally, and accumulates
// into C. Because A/B are read-only and C is accumulate-only, the
// per-region consistency tracking lets gets overlap pending
// accumulates with zero forced fences; run with --consistency=target
// to watch the naive tracker serialize them.
//
//   ./examples/dgemm_overlap [--n=192] [--block=32] [--ranks=16]
//                            [--consistency=region|target]
#include <cstdio>
#include <vector>

#include "core/comm.hpp"
#include "ga/global_array.hpp"
#include "fault/fault.hpp"
#include "util/config.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  const std::int64_t n = cli.get_int("n", 192);
  const std::int64_t blk = cli.get_int("block", 32);
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = static_cast<int>(cli.get_int("ranks", 16));
  cfg.armci.consistency = cli.get_string("consistency", "region") == "target"
                              ? armci::ConsistencyMode::kPerTarget
                              : armci::ConsistencyMode::kPerRegion;

  cfg.machine.fault = fault::FaultPlan::from_config(cli);
  cli.reject_unused();
  armci::World world(cfg);
  double checksum = 0.0;
  Time wall = 0;
  std::uint64_t forced = 0;
  world.spmd([&](armci::Comm& comm) {
    ga::GlobalArray a(comm, n, n);
    ga::GlobalArray b(comm, n, n);
    ga::GlobalArray c(comm, n, n);
    // A[i][j] = i + j; B = I (so C must equal A, easy to validate).
    a.fill_local([](std::int64_t i, std::int64_t j) {
      return static_cast<double>(i + j);
    });
    b.fill_local([](std::int64_t i, std::int64_t j) { return i == j ? 1.0 : 0.0; });
    c.fill_local(0.0);
    comm.barrier();
    const Time t0 = comm.now();

    const std::int64_t nb = n / blk;
    std::vector<double> abuf(static_cast<std::size_t>(blk * blk));
    std::vector<double> bbuf(abuf.size());
    std::vector<double> cbuf(abuf.size());
    std::int64_t task = 0;
    for (std::int64_t bi = 0; bi < nb; ++bi) {
      for (std::int64_t bj = 0; bj < nb; ++bj) {
        for (std::int64_t bk = 0; bk < nb; ++bk, ++task) {
          if (task % comm.nprocs() != comm.rank()) continue;
          // Overlap: both input blocks fetched under one handle while
          // earlier accumulates to C are still in flight.
          armci::Handle h;
          a.nb_get(bi * blk, (bi + 1) * blk, bk * blk, (bk + 1) * blk, abuf.data(),
                   blk, h);
          b.nb_get(bk * blk, (bk + 1) * blk, bj * blk, (bj + 1) * blk, bbuf.data(),
                   blk, h);
          comm.wait(h);
          // Local block multiply (real math, plus modelled FLOP time).
          for (std::int64_t i = 0; i < blk; ++i) {
            for (std::int64_t j = 0; j < blk; ++j) {
              double s = 0.0;
              for (std::int64_t k = 0; k < blk; ++k) {
                s += abuf[static_cast<std::size_t>(i * blk + k)] *
                     bbuf[static_cast<std::size_t>(k * blk + j)];
              }
              cbuf[static_cast<std::size_t>(i * blk + j)] = s;
            }
          }
          comm.compute(from_ns(2.0 * blk * blk * blk));  // ~0.5 GF/s core
          c.acc(1.0, bi * blk, (bi + 1) * blk, bj * blk, (bj + 1) * blk, cbuf.data(),
                blk);
        }
      }
    }
    comm.barrier();
    if (comm.rank() == 0) {
      wall = comm.now() - t0;
      forced = comm.stats().forced_fences;
      // Validate a few entries: C == A because B is the identity.
      checksum = c.read_element(5, 9) + c.read_element(n - 1, 3);
    }
    comm.barrier();
    forced += comm.rank() == 0 ? 0 : comm.stats().forced_fences;
  });

  std::printf("dgemm %lldx%lld, block %lld, %d ranks, %s tracking\n",
              static_cast<long long>(n), static_cast<long long>(n),
              static_cast<long long>(blk), cfg.machine.num_ranks,
              cfg.armci.consistency == armci::ConsistencyMode::kPerRegion
                  ? "per-region"
                  : "per-target");
  std::printf("  wall (virtual): %.2f ms, forced fences: %llu\n", to_ms(wall),
              static_cast<unsigned long long>(forced));
  std::printf("  validation: C[5][9]+C[n-1][3] = %.1f (expected %.1f)\n", checksum,
              5.0 + 9.0 + (n - 1.0) + 3.0);
  return checksum == 5.0 + 9.0 + (n - 1.0) + 3.0 ? 0 : 1;
}
