// Ablation: fail-stop fault tolerance cost model for SCF — checkpoint
// interval x node-failure time. Three questions, one table:
//
//  1. Steady-state overhead: with node deaths armed but never fired,
//     how much virtual wall time do the double-buffered buddy
//     checkpoints add at each cadence? (rows with fail_at=none)
//  2. Recovery cost: when a node actually dies at 30/60/90% of the
//     fault-free run, what does the rollback + shrink + redistribution
//     round cost, and how far does the run slip overall?
//  3. Cadence trade-off: interval 0 (no checkpoints) pays nothing up
//     front but re-executes from iteration 0 on death; dense cadences
//     pay per-iteration but roll back almost nothing.
//
// Knobs: the usual bench ones plus ft.checkpoint_interval sweep
// override (intervals=0,1,2), fail fractions (fracs=0.3,0.6,0.9),
// iterations, and the ft.* detection knobs (ft.heartbeat_timeout_us
// etc.). Virtual wall times carry sub-percent run-to-run layout
// jitter, so overheads are reported to 0.1%.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/scf.hpp"
#include "common.hpp"
#include "fault/fault.hpp"
#include "ft/liveness.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner(
      "bench_abl_ft: SCF checkpoint cadence x node-failure time",
      "fail-stop recovery ablation — buddy-checkpoint overhead vs rollback");

  apps::ScfConfig scf;
  scf.nbf = static_cast<std::int64_t>(cli.get_int("nbf", 64));
  scf.block = static_cast<std::int64_t>(cli.get_int("block", 8));
  scf.iterations = static_cast<int>(cli.get_int("iterations", 4));
  scf.mean_task_compute = from_us(cli.get_double("task_us", 5000.0));

  const std::vector<double> intervals = cli.get_doubles("intervals", {0.0, 1.0, 2.0});
  const std::vector<double> fracs = cli.get_doubles("fracs", {0.3, 0.6, 0.9});
  const int dead_node = static_cast<int>(cli.get_int("dead_node", 3));
  bench::reject_unused_before_sweep(cli);

  // 8 nodes on a 2x2x2 torus, one rank each: a death leaves a
  // non-power-of-two 7-rank clique, so the shrunk software collective
  // schedules are on the measured path.
  auto base_cfg = [&] {
    armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/8);
    cfg.machine.dims = topo::Coord5{2, 2, 2, 1, 1};
    cfg.machine.ranks_per_node = 1;
    cfg.machine.num_ranks = 8;
    return cfg;
  };

  // Fault-free baseline, and the virtual time the SCF region starts at
  // (so failure fractions can be aimed into the run).
  Time scf_start = 0;
  Time wall_clean = 0;
  {
    armci::World world(base_cfg());
    const apps::ScfResult r = apps::run_scf(world, scf);
    wall_clean = r.wall_time;
    scf_start = world.machine().engine().now() - r.wall_time;
    std::printf("fault-free baseline: wall=%.3f ms (%d iterations, 8 ranks)\n\n",
                to_ms(wall_clean), scf.iterations);
  }

  Table table({"ckpt_interval", "fail_at", "wall_ms", "vs_clean_%",
               "recovery_ms", "rollbacks", "checkpoints", "ckpt_bytes"});
  for (const double iv : intervals) {
    apps::ScfConfig ft_scf = scf;
    ft_scf.ft_checkpoint_interval = static_cast<int>(iv);

    // Steady state: arm a death far past the end of the run. The
    // monitor, heartbeats and checkpoint traffic are all live; the
    // death never fires, so the delta vs the baseline is pure
    // protection overhead.
    {
      armci::WorldConfig cfg = base_cfg();
      cfg.machine.fault.node_fails.push_back(
          {dead_node, scf_start + 1000 * wall_clean});
      armci::World world(cfg);
      const apps::ScfResult r = apps::run_scf(world, ft_scf);
      const ft::FtStats& s = world.machine().monitor()->stats();
      table.row()
          .add(static_cast<int>(iv))
          .add("none")
          .add(to_ms(r.wall_time), 3)
          .add(100.0 * (to_ms(r.wall_time) - to_ms(wall_clean)) / to_ms(wall_clean), 1)
          .add(0.0, 3)
          .add(static_cast<std::int64_t>(s.rollbacks))
          .add(static_cast<std::int64_t>(s.checkpoints))
          .add(format_bytes(s.checkpoint_bytes));
    }

    for (const double frac : fracs) {
      armci::WorldConfig cfg = base_cfg();
      cfg.machine.fault.node_fails.push_back(
          {dead_node, scf_start + static_cast<Time>(frac * wall_clean)});
      armci::World world(cfg);
      const apps::ScfResult r = apps::run_scf(world, ft_scf);
      const ft::FtStats& s = world.machine().monitor()->stats();
      char at[32];
      std::snprintf(at, sizeof at, "%.0f%%", 100.0 * frac);
      table.row()
          .add(static_cast<int>(iv))
          .add(at)
          .add(to_ms(r.wall_time), 3)
          .add(100.0 * (to_ms(r.wall_time) - to_ms(wall_clean)) / to_ms(wall_clean), 1)
          .add(to_ms(s.recovery_time), 3)
          .add(static_cast<std::int64_t>(s.rollbacks))
          .add(static_cast<std::int64_t>(s.checkpoints))
          .add(format_bytes(s.checkpoint_bytes));
    }
  }
  table.print();
  std::printf(
      "\nvs_clean_%% on fail_at=none rows is the steady-state checkpoint\n"
      "overhead; on failure rows it is the total slip (lost work +\n"
      "detection + recovery + re-execution on 7 ranks). recovery_ms is\n"
      "the shrink/agreement/redistribution round only.\n");
  return 0;
}
