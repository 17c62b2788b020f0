// Figure 11: NWChem SCF (6 H2O, 644 basis functions) execution time on
// 1024 / 2048 / 4096 processes, Default vs Async-Thread progress.
// Paper: AT reduces execution time by up to 30%; the time spent in the
// load-balance counter collapses under AT because rank 0 no longer has
// to reach an explicit progress call before servicing fetch-and-adds.
#include "apps/scf.hpp"
#include "common.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_fig11_scf: NWChem SCF proxy, 6 H2O / 644 bf",
                      "Fig 11 — AT up to 30% faster; counter time collapses");

  apps::ScfConfig scf;
  scf.nbf = cli.get_int("nbf", 644);
  scf.block = cli.get_int("block", 7);
  scf.iterations = static_cast<int>(cli.get_int("iterations", 1));
  scf.mean_task_compute = from_us(cli.get_double("task_us", 5000.0));
  scf.seed = static_cast<std::uint64_t>(cli.get_int("seed", 12345));

  std::printf("tasks/iteration: %lld, mean task compute: %.1f us\n\n",
              static_cast<long long>(apps::scf_tasks_per_iteration(scf)),
              to_us(scf.mean_task_compute));

  Table table({"procs", "mode", "wall_ms", "counter_s(sum)", "get_s(sum)",
               "reduce_s(sum)", "tasks", "checksum"});
  const int max_ranks = static_cast<int>(cli.get_int("max_ranks", 4096));
  const int min_ranks = static_cast<int>(cli.get_int("min_ranks", 1024));
  bench::reject_unused_before_sweep(cli);
  double d_wall = 0.0;
  for (int p = min_ranks; p <= max_ranks; p *= 2) {
    for (const auto& mode : bench::default_and_async()) {
      armci::WorldConfig cfg =
          bench::make_world_config(cli, p, /*ranks_per_node=*/16);
      cfg.machine.num_ranks = p;
      cfg.armci.progress = mode.progress;
      cfg.armci.contexts_per_rank = mode.contexts;
      armci::World world(cfg);
      const auto r = apps::run_scf(world, scf);
      table.row()
          .add(p)
          .add(mode.name)
          .add(to_ms(r.wall_time), 2)
          .add(to_s(r.counter_time), 3)
          .add(to_s(r.get_time), 3)
          .add(to_s(r.reduce_time), 3)
          .add(static_cast<long long>(r.tasks_executed))
          .add(r.fock_checksum, 6);
      if (mode.name == "D") {
        d_wall = to_ms(r.wall_time);
      } else if (d_wall > 0.0) {
        std::printf("p=%d: AT reduces execution time by %.1f%%\n", p,
                    100.0 * (d_wall - to_ms(r.wall_time)) / d_wall);
      }
    }
  }
  std::printf("\n");
  table.print();
  return 0;
}
