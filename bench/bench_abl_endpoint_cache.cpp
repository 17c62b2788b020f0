// Ablation (S III-B): endpoint caching for the communication clique.
// M_e = zeta * alpha * rho bytes buys beta = 0.3 us per op otherwise
// re-paid on every operation. With a 2048-member clique touched
// repeatedly the difference is directly visible in op latency.
#include "common.hpp"

using namespace pgasq;

namespace {

struct Outcome {
  double total_ms;
  std::uint64_t endpoints_created;
  std::size_t clique;
};

Outcome run(const Config& cli, bool cache, int rounds) {
  armci::WorldConfig cfg =
      bench::make_world_config(cli, /*ranks=*/512, /*ranks_per_node=*/16);
  cfg.armci.cache_endpoints = cache;
  armci::World world(cfg);
  Outcome out{};
  world.spmd([&](armci::Comm& comm) {
    auto& mem = comm.malloc_collective(256);
    std::byte buf[32]{};
    comm.barrier();
    if (comm.rank() == 0) {
      const Time t0 = comm.now();
      for (int r = 0; r < rounds; ++r) {
        for (int t = 1; t < comm.nprocs(); ++t) comm.put(buf, mem.at(t), 32);
      }
      comm.fence_all();
      out.total_ms = to_ms(comm.now() - t0);
      out.endpoints_created = comm.stats().endpoints_created;
      out.clique = comm.endpoint_cache().size();
    }
    comm.barrier();
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_abl_endpoint_cache: cached vs per-op endpoint creation",
                      "S III-B — M_e = zeta*alpha*rho space buys beta per op");
  Table table({"endpoints", "wall_ms", "created", "cached_clique"});
  const int rounds = static_cast<int>(cli.get_int("rounds", 3));
  bench::reject_unused_before_sweep(cli);
  const auto cached = run(cli, true, rounds);
  const auto uncached = run(cli, false, rounds);
  table.row().add(std::string("cached")).add(cached.total_ms, 2)
      .add(cached.endpoints_created).add(cached.clique);
  table.row().add(std::string("per-op")).add(uncached.total_ms, 2)
      .add(uncached.endpoints_created).add(uncached.clique);
  table.print();
  std::printf("(rank 0 puts to 511 targets x 3 rounds; caching pays beta=0.3us\n"
              " once per clique member instead of once per operation)\n");
  return 0;
}
