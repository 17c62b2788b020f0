// Ablation: overlapped SCF iteration tail (src/async + coll::NbcEngine)
// vs the blocking per-iteration energy reduction, under the
// link-contention network model where reduction latency actually sits
// on the critical path. Both arms pin the allreduce algorithm to
// recursive doubling — the non-blocking schedule mirrors it hop for
// hop — so Fock checksums and energies must match bitwise; the bench
// aborts if they do not. The win is per-iteration time: the overlapped
// arm chains the reduction past the iteration boundary and hides the
// next iteration's first density fetch under it.
#include "apps/scf.hpp"
#include "common.hpp"
#include "obs/registry.hpp"

using namespace pgasq;

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner(
      "bench_abl_async: overlapped SCF tail (futures + non-blocking "
      "collectives)",
      "docs/async.md — energy iallreduce chained past the iteration "
      "boundary");

  apps::ScfConfig scf;
  scf.nbf = cli.get_int("nbf", 644);
  scf.block = cli.get_int("block", 7);
  scf.iterations = static_cast<int>(cli.get_int("iterations", 3));
  scf.mean_task_compute = from_us(cli.get_double("task_us", 5000.0));
  scf.seed = static_cast<std::uint64_t>(cli.get_int("seed", 12345));

  const int ranks = static_cast<int>(cli.get_int("ranks", 512));
  bench::reject_unused_before_sweep(cli);
  std::printf("ranks: %d, tasks/iteration: %lld, iterations: %d\n\n", ranks,
              static_cast<long long>(apps::scf_tasks_per_iteration(scf)),
              scf.iterations);

  struct Arm {
    const char* name;
    bool overlap;
  };
  const Arm arms[] = {{"blocking", false}, {"overlapped", true}};

  obs::Registry acc;
  Table table({"arm", "wall_ms", "ms/iter", "reduce_s(sum)", "get_s(sum)",
               "hits", "misses", "checksum"});
  double wall_ms[2] = {0.0, 0.0};
  double checksum[2] = {0.0, 0.0};
  double energy[2] = {0.0, 0.0};
  std::unique_ptr<armci::World> last_world;
  for (int a = 0; a < 2; ++a) {
    // Contention model by default: with LogGP's infinite fabric the
    // reduction barely costs anything and there is nothing to hide.
    armci::WorldConfig cfg = bench::make_world_config(
        cli, ranks, /*ranks_per_node=*/16, /*default_net=*/"contention");
    // Both arms ride recursive doubling so the results are bitwise
    // comparable (appended last: overrides any --coll.algo.allreduce).
    cfg.armci.coll.emplace_back("algo.allreduce", "recdbl");
    scf.overlap = arms[a].overlap;
    auto world = std::make_unique<armci::World>(cfg);
    const auto r = apps::run_scf(*world, scf);
    wall_ms[a] = to_ms(r.wall_time);
    checksum[a] = r.fock_checksum;
    energy[a] = r.final_energy;
    table.row()
        .add(arms[a].name)
        .add(wall_ms[a], 2)
        .add(wall_ms[a] / scf.iterations, 2)
        .add(to_s(r.reduce_time), 3)
        .add(to_s(r.get_time), 3)
        .add(static_cast<long long>(r.prefetch_hits))
        .add(static_cast<long long>(r.prefetch_misses))
        .add(r.fock_checksum, 6);
    acc.set_gauge("async.scf_wall_ms", wall_ms[a], {{"arm", arms[a].name}});
    acc.set_gauge("async.scf_checksum", r.fock_checksum,
                  {{"arm", arms[a].name}});
    acc.set_gauge("async.scf_energy", r.final_energy, {{"arm", arms[a].name}});
    acc.set_gauge("async.prefetch_hits",
                  static_cast<double>(r.prefetch_hits),
                  {{"arm", arms[a].name}});
    acc.set_gauge("async.prefetch_misses",
                  static_cast<double>(r.prefetch_misses),
                  {{"arm", arms[a].name}});
    last_world = std::move(world);
  }
  table.print();

  // The overlap is an optimization, never a physics change.
  PGASQ_CHECK(checksum[0] == checksum[1],
              << "overlapped SCF changed the Fock checksum: " << checksum[0]
              << " vs " << checksum[1]);
  PGASQ_CHECK(energy[0] == energy[1],
              << "overlapped SCF changed the energy: " << energy[0] << " vs "
              << energy[1]);
  const double win =
      wall_ms[0] > 0.0 ? 100.0 * (wall_ms[0] - wall_ms[1]) / wall_ms[0] : 0.0;
  std::printf(
      "\noverlap win: %.2f%% of wall time (%.2f -> %.2f ms), physics "
      "bitwise identical\n",
      win, wall_ms[0], wall_ms[1]);
  acc.set_gauge("async.scf_overlap_win_pct", win);

  last_world->app_metrics().merge_from(acc);
  bench::emit_observability(cli, *last_world);
  return 0;
}
