// Ablation: collective algorithm selection (src/coll/) across message
// size and machine size. Sweeps the software schedules (binomial /
// recursive-doubling / torus-dimension ring) against the BG/Q
// collective-logic hardware model for barrier, broadcast, and
// allreduce; the crossover structure is what the selection table in
// coll/selection.cpp encodes. At >= 512 ranks and large payloads the
// bucket ring (2x data volume, nearest-neighbour hops) and the hw
// model both beat recursive doubling (log2(p) full-size exchanges).
#include <vector>

#include "coll/coll.hpp"
#include "common.hpp"

using namespace pgasq;

namespace {

constexpr int kIters = 4;

/// One sweep point: a copy of the command line's base config at `ranks`
/// with `algo` pinned for `op`.
armci::WorldConfig coll_config(const armci::WorldConfig& base, int ranks,
                               const char* op, const std::string& algo) {
  armci::WorldConfig cfg = base;
  cfg.machine.num_ranks = ranks;
  cfg.armci.coll.emplace_back(std::string("algo.") + op, algo);
  return cfg;
}

double barrier_us(const armci::WorldConfig& base, int ranks,
                  const std::string& algo) {
  armci::World world(coll_config(base, ranks, "barrier", algo));
  Time t0 = 0, t1 = 0;
  world.spmd([&](armci::Comm& comm) {
    auto& engine = coll::CollEngine::of(comm);
    engine.barrier();  // warm-up: arena allocation happens here
    if (comm.rank() == 0) t0 = comm.now();
    for (int i = 0; i < kIters; ++i) engine.barrier();
    if (comm.rank() == 0) t1 = comm.now();
  });
  return to_us(t1 - t0) / kIters;
}

double bcast_us(const armci::WorldConfig& base, int ranks, std::size_t bytes,
                const std::string& algo) {
  armci::World world(coll_config(base, ranks, "broadcast", algo));
  Time t0 = 0, t1 = 0;
  world.spmd([&](armci::Comm& comm) {
    auto& engine = coll::CollEngine::of(comm);
    std::vector<std::byte> buf(bytes, std::byte{1});
    engine.broadcast(buf.data(), bytes, 0);  // warm-up
    engine.barrier();
    if (comm.rank() == 0) t0 = comm.now();
    for (int i = 0; i < kIters; ++i) engine.broadcast(buf.data(), bytes, 0);
    engine.barrier();
    if (comm.rank() == 0) t1 = comm.now();
  });
  return to_us(t1 - t0) / kIters;
}

double allreduce_us(const armci::WorldConfig& base, int ranks, std::size_t bytes,
                    const std::string& algo) {
  armci::World world(coll_config(base, ranks, "allreduce", algo));
  Time t0 = 0, t1 = 0;
  world.spmd([&](armci::Comm& comm) {
    auto& engine = coll::CollEngine::of(comm);
    std::vector<double> x(bytes / sizeof(double),
                          1.0 + static_cast<double>(comm.rank()));
    engine.allreduce_sum(x.data(), x.size());  // warm-up
    engine.barrier();
    if (comm.rank() == 0) t0 = comm.now();
    for (int i = 0; i < kIters; ++i) engine.allreduce_sum(x.data(), x.size());
    engine.barrier();
    if (comm.rank() == 0) t1 = comm.now();
  });
  return to_us(t1 - t0) / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner(
      "bench_abl_collectives: algorithm x size x machine-size sweep",
      "selection-table crossovers for src/coll/ (S II-A collective logic)");
  // Every key is read here, once: a typo fails before any World runs.
  const armci::WorldConfig base =
      bench::make_world_config(cli, 16, /*ranks_per_node=*/1);
  cli.reject_unused();
  const std::vector<int> rank_counts = {16, 64, 512};

  std::printf("\nbarrier (us per call):\n");
  Table barrier({"ranks", "dissem", "tree", "ring", "hw"});
  for (int p : rank_counts) {
    barrier.row()
        .add(p)
        .add(barrier_us(base, p, "recdbl"), 2)
        .add(barrier_us(base, p, "binomial"), 2)
        .add(barrier_us(base, p, "torus-ring"), 2)
        .add(barrier_us(base, p, "hw"), 2);
  }
  barrier.print();

  std::printf("\nbroadcast (us per call):\n");
  Table bcast({"ranks", "bytes", "binomial", "torus-ring", "hw"});
  for (int p : rank_counts) {
    for (std::size_t bytes : {2048ul, 131072ul}) {
      bcast.row()
          .add(p)
          .add(format_bytes(bytes))
          .add(bcast_us(base, p, bytes, "binomial"), 2)
          .add(bcast_us(base, p, bytes, "torus-ring"), 2)
          .add(bcast_us(base, p, bytes, "hw"), 2);
    }
  }
  bcast.print();

  std::printf("\nallreduce (us per call):\n");
  Table allred({"ranks", "bytes", "recdbl", "torus-ring", "hw", "best"});
  for (int p : rank_counts) {
    for (std::size_t bytes : {2048ul, 16384ul, 131072ul}) {
      const double rd = allreduce_us(base, p, bytes, "recdbl");
      const double ring = allreduce_us(base, p, bytes, "torus-ring");
      const double hw = allreduce_us(base, p, bytes, "hw");
      const char* best = rd <= ring && rd <= hw ? "recdbl"
                         : ring <= hw           ? "torus-ring"
                                                : "hw";
      allred.row()
          .add(p)
          .add(format_bytes(bytes))
          .add(rd, 2)
          .add(ring, 2)
          .add(hw, 2)
          .add(best);
    }
  }
  allred.print();
  std::printf("(recursive doubling pays log2(p) full-size exchanges; the\n"
              " torus bucket ring moves ~2x the payload over nearest-\n"
              " neighbour links; hw models the collective-logic tree at\n"
              " 2 GB/s — crossovers drive coll/selection.cpp defaults)\n");
  return 0;
}
