// Figure 9: average fetch-and-add latency on a counter at rank 0 as
// the process count grows, with/without the asynchronous progress
// thread and with/without computation (~300 us chunks) at rank 0.
// Paper findings reproduced here:
//   - D and AT comparable when rank 0 is idle in the progress engine;
//   - with rank 0 computing, D latency explodes (proportional to the
//     compute chunk) while AT stays low;
//   - even with AT, latency grows linearly with p — BG/Q has no NIC
//     AMO (contrast: bench_abl_hw_amo).
#include "apps/counter_kernel.hpp"
#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_fig9_rmw: fetch-and-add latency vs process count",
                      "Fig 9 — D vs AT, idle vs computing rank 0");
  const int ops = static_cast<int>(cli.get_int("ops", 8));
  const int max_ranks = static_cast<int>(cli.get_int("max_ranks", 4096));
  bench::reject_unused_before_sweep(cli);

  Table table({"procs", "D_idle_us", "AT_idle_us", "D_compute_us", "AT_compute_us"});
  std::vector<int> sizes;
  for (int p = 2; p <= max_ranks; p *= 4) sizes.push_back(p);
  if (sizes.back() * 2 == max_ranks) sizes.push_back(max_ranks);  // reach 4096
  for (int p : sizes) {
    double cells[4] = {};
    int idx = 0;
    for (bool compute : {false, true}) {
      for (const auto& mode : bench::default_and_async()) {
        armci::WorldConfig cfg = bench::make_world_config(
            cli, p, /*ranks_per_node=*/p >= 16 ? 16 : 1);
        cfg.machine.num_ranks = p;
        cfg.armci.progress = mode.progress;
        cfg.armci.contexts_per_rank = mode.contexts;
        armci::World world(cfg);
        apps::CounterKernelConfig kcfg;
        kcfg.ops_per_rank = ops;
        kcfg.home_computes = compute;
        const auto result = apps::run_counter_kernel(world, kcfg);
        cells[idx++] = result.avg_latency_us;
      }
    }
    table.row()
        .add(p)
        .add(cells[0], 2)
        .add(cells[1], 2)
        .add(cells[2], 2)
        .add(cells[3], 2);
  }
  table.print();
  std::printf("(D = default progress, AT = asynchronous thread; compute = rank 0 "
              "busy in ~300us chunks between progress calls)\n");
  return 0;
}
