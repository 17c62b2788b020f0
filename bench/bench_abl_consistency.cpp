// Ablation (S III-E): conflicting-memory-access tracking granularity.
// The dgemm-style workload overlaps non-blocking gets of matrices A, B
// with accumulates into matrix C on the same targets. Under naive
// per-target tracking every get must first fence the pending
// accumulates (false positives); per-region 8-bit status words
// eliminate the forced fences entirely.
#include "common.hpp"
#include "ga/global_array.hpp"

using namespace pgasq;

namespace {

struct Outcome {
  double wall_ms;
  std::uint64_t forced_fences;
  std::uint64_t fence_calls;
};

Outcome run(const Config& cli, armci::ConsistencyMode mode, std::int64_t n,
            std::int64_t blk) {
  armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/16);
  cfg.armci.consistency = mode;
  armci::World world(cfg);
  Time t0 = 0, t1 = 0;
  world.spmd([&](armci::Comm& comm) {
    ga::GlobalArray a(comm, n, n);
    ga::GlobalArray b(comm, n, n);
    ga::GlobalArray c(comm, n, n);
    a.fill_local([](std::int64_t i, std::int64_t j) { return 0.001 * (i + j); });
    b.fill_local([](std::int64_t i, std::int64_t j) { return i == j ? 1.0 : 0.0; });
    c.fill_local(0.0);
    comm.barrier();
    if (comm.rank() == 0) t0 = comm.now();
    // Round-robin block tasks: get A(i,k), B(k,j); "compute"; acc C(i,j).
    const std::int64_t nb = n / blk;
    std::vector<double> abuf(static_cast<std::size_t>(blk * blk));
    std::vector<double> bbuf(abuf.size());
    std::vector<double> cbuf(abuf.size(), 0.0);
    std::int64_t task = 0;
    for (std::int64_t i = 0; i < nb; ++i) {
      for (std::int64_t j = 0; j < nb; ++j) {
        for (std::int64_t k = 0; k < nb; ++k, ++task) {
          if (task % comm.nprocs() != comm.rank()) continue;
          armci::Handle h;
          a.nb_get(i * blk, (i + 1) * blk, k * blk, (k + 1) * blk, abuf.data(), blk, h);
          b.nb_get(k * blk, (k + 1) * blk, j * blk, (j + 1) * blk, bbuf.data(), blk, h);
          comm.wait(h);
          comm.compute(from_us(20));  // the local dgemm
          for (std::size_t e = 0; e < cbuf.size(); ++e) cbuf[e] = abuf[e];
          c.acc(1.0, i * blk, (i + 1) * blk, j * blk, (j + 1) * blk, cbuf.data(), blk);
        }
      }
    }
    comm.barrier();
    if (comm.rank() == 0) t1 = comm.now();
  });
  const auto stats = world.total_stats();
  return Outcome{to_ms(t1 - t0), stats.forced_fences, stats.fence_calls};
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_abl_consistency: conflict tracking granularity (dgemm)",
                      "S III-E — cs_tgt (naive) vs cs_mr (per-region)");
  Table table({"tracking", "wall_ms", "forced_fences", "fence_calls"});
  const std::int64_t n = cli.get_int("n", 256);
  const std::int64_t blk = cli.get_int("block", 32);
  bench::reject_unused_before_sweep(cli);
  const auto naive = run(cli, armci::ConsistencyMode::kPerTarget, n, blk);
  const auto region = run(cli, armci::ConsistencyMode::kPerRegion, n, blk);
  table.row().add(std::string("per-target (naive)")).add(naive.wall_ms, 2)
      .add(naive.forced_fences).add(naive.fence_calls);
  table.row().add(std::string("per-region (cs_mr)")).add(region.wall_ms, 2)
      .add(region.forced_fences).add(region.fence_calls);
  table.print();
  std::printf("per-region removes %.1f%% of forced fences and %.1f%% of wall time\n",
              naive.forced_fences == 0
                  ? 0.0
                  : 100.0 * (double)(naive.forced_fences - region.forced_fences) /
                        (double)naive.forced_fences,
              naive.wall_ms == 0.0
                  ? 0.0
                  : 100.0 * (naive.wall_ms - region.wall_ms) / naive.wall_ms);
  return 0;
}
