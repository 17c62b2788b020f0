// Ablation (S III-B): the remote memory-region cache. Non-collective
// buffers force the LFU cache + AM miss protocol: rank 0 puts to
// private buffers of every other rank, with varying cache capacity.
// Small caches thrash (every put pays a query round-trip that needs
// the target's progress engine); capacity >= working set makes misses
// one-time.
#include "common.hpp"
#include "ga/global_array.hpp"

using namespace pgasq;

namespace {

struct Outcome {
  double wall_ms;
  std::uint64_t hits, misses, queries;
};

Outcome run(const Config& cli, std::size_t capacity, int rounds) {
  armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/64);
  cfg.armci.region_cache_capacity = capacity;
  // Async progress so region queries are serviced promptly even while
  // targets idle in the final barrier.
  armci::World world(cfg);
  Time t0 = 0, t1 = 0;
  Outcome out{};
  world.spmd([&](armci::Comm& comm) {
    // Every rank allocates a PRIVATE registered buffer, then publishes
    // its address through a directory in collective memory.
    auto* priv = static_cast<std::byte*>(comm.malloc_local(4096));
    auto& directory = comm.malloc_collective(sizeof(std::byte*));
    *reinterpret_cast<std::byte**>(directory.local(comm.rank())) = priv;
    comm.barrier();
    if (comm.rank() == 0) {
      t0 = comm.now();
      std::vector<std::byte> src(1024);
      for (int round = 0; round < rounds; ++round) {
        for (int target = 1; target < comm.nprocs(); ++target) {
          std::byte* remote_buf = nullptr;
          comm.get(directory.at(target), &remote_buf, sizeof remote_buf);
          comm.put(src.data(), armci::RemotePtr{target, remote_buf}, 1024);
        }
        comm.fence_all();
      }
      t1 = comm.now();
      out.hits = comm.region_cache().hits();
      out.misses = comm.region_cache().misses();
      out.queries = comm.stats().region_queries_sent;
    }
    comm.barrier();
  });
  out.wall_ms = to_ms(t1 - t0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_abl_region_cache: LFU remote-region cache capacity",
                      "S III-B — M_r bounded by cache; misses served by AM");
  Table table({"capacity", "wall_ms", "hits", "misses", "queries_sent"});
  const int rounds = static_cast<int>(cli.get_int("rounds", 4));
  bench::reject_unused_before_sweep(cli);
  for (std::size_t cap : {4ul, 16ul, 64ul, 256ul}) {
    const auto o = run(cli, cap, rounds);
    table.row().add(cap).add(o.wall_ms, 2).add(o.hits).add(o.misses).add(o.queries);
  }
  table.print();
  std::printf("(64 ranks, 4 rounds of puts to every rank's private buffer;\n"
              " capacity >= 63 turns repeat rounds into pure hits)\n");
  return 0;
}
