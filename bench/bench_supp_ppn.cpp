// Supplementary: processes-per-node sweep (Table II's c = 1..16).
// With more ranks per node, neighbour traffic increasingly takes the
// shared-memory path while the node's torus links and the software
// rmw service are shared by more processes — the trade the paper's
// evaluation fixed at c=16.
#include "apps/counter_kernel.hpp"
#include "coll/coll.hpp"
#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_supp_ppn: processes-per-node (c) sweep at fixed p=64",
                      "Table II attribute c = 1..16");
  const std::size_t bytes = static_cast<std::size_t>(cli.get_int("bytes", 65536));
  const int hp = static_cast<int>(cli.get_int("hier_ranks", 512));
  const std::size_t hn =
      static_cast<std::size_t>(cli.get_int("hier_doubles", 4096));
  const int hiters = static_cast<int>(cli.get_int("hier_iters", 4));
  bench::reject_unused_before_sweep(cli);
  Table table({"c(ppn)", "nodes", "ring_put_MB/s/rank", "fadd_avg_us", "shm_share_%"});
  for (int c : {1, 2, 4, 8, 16}) {
    armci::WorldConfig cfg = bench::make_world_config(cli, 64, c);
    cfg.machine.ranks_per_node = c;
    armci::World world(cfg);
    Time t0 = 0, t1 = 0;
    int shm_neighbours = 0;
    world.spmd([&](armci::Comm& comm) {
      auto& mem = comm.malloc_collective(bytes);
      auto* src = static_cast<std::byte*>(comm.malloc_local(bytes));
      const int right = (comm.rank() + 1) % comm.nprocs();
      const auto& mapping = world.machine().mapping();
      if (mapping.node_of_rank(comm.rank()) == mapping.node_of_rank(right)) {
        ++shm_neighbours;
      }
      comm.barrier();
      if (comm.rank() == 0) t0 = comm.now();
      armci::Handle h;
      for (int i = 0; i < 8; ++i) comm.nb_put(src, mem.at(right), bytes, h);
      comm.wait(h);
      comm.fence_all();
      comm.barrier();
      if (comm.rank() == 0) t1 = comm.now();
    });
    const double per_rank_bw =
        8.0 * static_cast<double>(bytes) / to_s(t1 - t0) / 1e6;
    // Counter latency under the same layout.
    armci::WorldConfig kcfg_world = bench::make_world_config(cli, 64, c);
    kcfg_world.machine.ranks_per_node = c;
    armci::World kworld(kcfg_world);
    apps::CounterKernelConfig kcfg;
    kcfg.ops_per_rank = 8;
    const double fadd = apps::run_counter_kernel(kworld, kcfg).avg_latency_us;
    table.row()
        .add(c)
        .add(64 / c)
        .add(per_rank_bw, 1)
        .add(fadd, 2)
        .add(100.0 * shm_neighbours / 64.0, 1);
  }
  table.print();
  std::printf("(64 ranks in a neighbour-put ring + the Fig 9 idle counter kernel;\n"
              " higher c routes more of the ring through shared memory)\n");

  // Flat vs node-aware hierarchical allreduce at scale: the two-level
  // schedule (src/grp node + leaders groups) combines inside each node
  // first, so only one rank per node touches the torus — the win grows
  // with c. Contention model, so shared links actually cost.
  Table ht({"c(ppn)", "nodes", "flat_allreduce_us", "hier_allreduce_us",
            "speedup"});
  for (int c : {1, 2, 4, 8, 16}) {
    double lat[2] = {0.0, 0.0};  // [0] flat recdbl, [1] hier
    for (int mode = 0; mode < 2; ++mode) {
      armci::WorldConfig cfg = bench::make_world_config(cli, hp, c);
      cfg.machine.ranks_per_node = c;
      cfg.machine.network_model = "contention";
      cfg.armci.coll.emplace_back("algo.allreduce",
                                  mode == 0 ? "recdbl" : "hier");
      armci::World world(cfg);
      Time t0 = 0, t1 = 0;
      world.spmd([&](armci::Comm& comm) {
        std::vector<double> x(hn, 1.0 + comm.rank());
        coll::CollEngine& eng = coll::CollEngine::of(comm);
        eng.allreduce_sum(x.data(), x.size());  // warm scratch + groups
        comm.barrier();
        if (comm.rank() == 0) t0 = comm.now();
        for (int i = 0; i < hiters; ++i) eng.allreduce_sum(x.data(), x.size());
        comm.barrier();
        if (comm.rank() == 0) t1 = comm.now();
      });
      lat[mode] = to_us(t1 - t0) / hiters;
    }
    ht.row()
        .add(c)
        .add(hp / c)
        .add(lat[0], 1)
        .add(lat[1], 1)
        .add(lat[0] / lat[1], 2);
  }
  ht.print();
  std::printf("(%d ranks, %zu doubles per allreduce, contention network;\n"
              " flat = recursive doubling over all ranks, hier = node combine\n"
              " + leaders exchange + node fan-out; hier needs c >= 2 to have\n"
              " a node stage at all)\n",
              hp, hn);
  return 0;
}
