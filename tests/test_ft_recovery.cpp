// Fail-stop fault tolerance: a node death mid-run must be detected,
// the survivors must shrink the communicator, roll back to the newest
// complete checkpoint, and finish with the same physics as the
// fault-free run — and all of it must be deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "apps/scf.hpp"
#include "coll/coll.hpp"
#include "core/comm.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "ft/liveness.hpp"
#include "ft/recovery.hpp"

namespace pgasq::armci {
namespace {

// 8 nodes on a 2x2x2 torus, one rank each: big enough that a node
// death leaves a non-power-of-two survivor clique (7 ranks) and the
// shrunk software schedules actually run.
WorldConfig cube8() {
  WorldConfig cfg;
  cfg.machine.num_ranks = 8;
  cfg.machine.ranks_per_node = 1;
  cfg.machine.dims = topo::Coord5{2, 2, 2, 1, 1};
  return cfg;
}

apps::ScfConfig small_scf() {
  apps::ScfConfig scf;
  scf.nbf = 64;
  scf.block = 8;
  scf.iterations = 3;
  scf.mean_task_compute = from_us(5000);
  return scf;
}

/// Fault-free reference: result plus the virtual time the SCF region
/// starts at (so fault times can be aimed into the run).
apps::ScfResult clean_reference(const apps::ScfConfig& scf, Time* scf_start) {
  World world(cube8());
  const apps::ScfResult r = apps::run_scf(world, scf);
  if (scf_start != nullptr) {
    *scf_start = world.machine().engine().now() - r.wall_time;
  }
  return r;
}

apps::ScfResult run_scf_with_deaths(const apps::ScfConfig& scf,
                                    const std::vector<fault::NodeFailSpec>& deaths,
                                    ft::FtStats* stats_out) {
  WorldConfig cfg = cube8();
  cfg.machine.fault.node_fails = deaths;
  World world(cfg);
  const apps::ScfResult r = apps::run_scf(world, scf);
  if (stats_out != nullptr) {
    const ft::HealthMonitor* mon = world.machine().monitor();
    EXPECT_NE(mon, nullptr);
    if (mon != nullptr) *stats_out = mon->stats();
  }
  return r;
}

// One SCF run per death timing: early in the run (before the first
// checkpoint commits — cold restart), mid-run (rollback to a committed
// checkpoint), and late (most work already behind a checkpoint). In
// every case the surviving 7 ranks must finish with the fault-free
// physics: the Fock checksum is a fixed-order read of per-element
// values each produced by exactly one accumulate, so it must match
// bit-for-bit; the energy reduction runs over a different clique, so
// it matches to reduction-order rounding.
TEST(FtRecovery, ScfSurvivesNodeDeathAtAnyPhase) {
  const apps::ScfConfig scf = small_scf();
  Time scf_start = 0;
  const apps::ScfResult clean = clean_reference(scf, &scf_start);
  ASSERT_GT(clean.wall_time, 0);

  for (const double frac : {0.15, 0.45, 0.75}) {
    const Time at = scf_start + static_cast<Time>(frac * clean.wall_time);
    ft::FtStats stats;
    const apps::ScfResult r =
        run_scf_with_deaths(scf, {{/*node=*/3, at}}, &stats);
    EXPECT_DOUBLE_EQ(r.fock_checksum, clean.fock_checksum) << "frac " << frac;
    EXPECT_NEAR(r.final_energy, clean.final_energy,
                1e-9 * std::abs(clean.final_energy))
        << "frac " << frac;
    EXPECT_EQ(stats.detections, 1u) << "frac " << frac;
    EXPECT_EQ(stats.ranks_lost, 1u) << "frac " << frac;
    EXPECT_GE(stats.rollbacks, 1u) << "frac " << frac;
    EXPECT_GT(stats.detection_delay, 0) << "frac " << frac;
    EXPECT_GT(r.wall_time, clean.wall_time) << "frac " << frac;
  }
}

TEST(FtRecovery, ScfSurvivesTwoDeaths) {
  const apps::ScfConfig scf = small_scf();
  Time scf_start = 0;
  const apps::ScfResult clean = clean_reference(scf, &scf_start);

  // Nodes 2 and 5 are not checkpoint buddies of each other, so every
  // shard keeps at least one live holder. The second death lands while
  // the survivors of the first are still mid-recovery or barely
  // resumed — either way they must shrink again and still finish.
  const Time first = scf_start + static_cast<Time>(0.5 * clean.wall_time);
  ft::FtStats stats;
  const apps::ScfResult r = run_scf_with_deaths(
      scf, {{/*node=*/2, first}, {/*node=*/5, first + from_us(400)}}, &stats);
  EXPECT_DOUBLE_EQ(r.fock_checksum, clean.fock_checksum);
  EXPECT_NEAR(r.final_energy, clean.final_energy,
              1e-9 * std::abs(clean.final_energy));
  EXPECT_EQ(stats.detections, 2u);
  EXPECT_EQ(stats.ranks_lost, 2u);
  // One rollback when both declarations land inside a single abort
  // window, two when the second death interrupts the first recovery.
  EXPECT_GE(stats.rollbacks, 1u);
}

TEST(FtRecovery, CheckpointIntervalZeroMeansColdRestart) {
  apps::ScfConfig scf = small_scf();
  scf.ft_checkpoint_interval = 0;  // recovery may only restart from scratch
  Time scf_start = 0;
  const apps::ScfResult clean = clean_reference(scf, &scf_start);

  ft::FtStats stats;
  const apps::ScfResult r = run_scf_with_deaths(
      scf, {{/*node=*/6, scf_start + static_cast<Time>(0.7 * clean.wall_time)}},
      &stats);
  EXPECT_DOUBLE_EQ(r.fock_checksum, clean.fock_checksum);
  EXPECT_EQ(stats.checkpoints, 0u);
  EXPECT_EQ(stats.checkpoint_bytes, 0u);
  // The whole run re-executes from iteration 0 on 7 ranks.
  EXPECT_GT(r.wall_time, 3 * clean.wall_time / 2);
}

TEST(FtRecovery, DeathDuringCollectiveUnblocksSurvivors) {
  WorldConfig cfg = cube8();
  cfg.machine.fault.node_fails.push_back({/*node=*/4, from_ms(15)});
  World world(cfg);
  int completed_loops = 0;
  world.spmd([&](Comm& comm) {
    coll::CollEngine::of(comm);
    ft::Runtime rt(comm, {}, std::vector<ga::GlobalArray*>{});
    int i = 0;
    while (i < 2000) {
      try {
        comm.compute(from_us(10));
        comm.barrier();  // engine-dispatched collective
        ++i;
      } catch (const ft::PeerDeadError&) {
        bool alive = true;
        while (true) {
          try {
            alive = rt.recover();
            break;
          } catch (const ft::PeerDeadError&) {
          }
        }
        if (!alive) return;
      }
    }
    if (comm.rank() == rt.members().front()) completed_loops = i;
  });
  EXPECT_EQ(completed_loops, 2000);
  ASSERT_NE(world.machine().monitor(), nullptr);
  const ft::FtStats& stats = world.machine().monitor()->stats();
  EXPECT_EQ(stats.detections, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.rollback_ranks, 7u);
  EXPECT_GT(stats.recovery_time, 0);
}

TEST(FtRecovery, RecoveryIsDeterministic) {
  const apps::ScfConfig scf = small_scf();
  Time scf_start = 0;
  const apps::ScfResult clean = clean_reference(scf, &scf_start);
  const std::vector<fault::NodeFailSpec> deaths = {
      {/*node=*/1, scf_start + static_cast<Time>(0.4 * clean.wall_time)}};

  // Virtual timings carry a known pre-existing run-to-run jitter when
  // several Worlds share one process (allocator-layout dependent), so
  // determinism is asserted on the physics and the protocol counters,
  // which must not wobble.
  ft::FtStats s1, s2;
  const apps::ScfResult a = run_scf_with_deaths(scf, deaths, &s1);
  const apps::ScfResult b = run_scf_with_deaths(scf, deaths, &s2);
  EXPECT_DOUBLE_EQ(a.final_energy, b.final_energy);
  EXPECT_DOUBLE_EQ(a.fock_checksum, b.fock_checksum);
  EXPECT_EQ(s1.detections, s2.detections);
  EXPECT_EQ(s1.ranks_lost, s2.ranks_lost);
  EXPECT_EQ(s1.checkpoints, s2.checkpoints);
  EXPECT_EQ(s1.checkpoint_bytes, s2.checkpoint_bytes);
  EXPECT_EQ(s1.rollbacks, s2.rollbacks);
}

// Zero-cost contract: without scheduled node deaths no monitor is
// built, the FT body is never entered, and detection knobs change
// nothing.
TEST(FtRecovery, NoScheduledDeathsBuildsNoMonitor) {
  const apps::ScfConfig scf = small_scf();
  World plain(cube8());
  const apps::ScfResult a = apps::run_scf(plain, scf);
  EXPECT_EQ(plain.machine().monitor(), nullptr);

  WorldConfig tuned = cube8();
  tuned.machine.ft.heartbeat_period = from_us(5);
  tuned.machine.ft.heartbeat_timeout = from_us(20);
  tuned.machine.ft.suspect_acks = 1;
  World world(tuned);
  const apps::ScfResult b = apps::run_scf(world, scf);
  EXPECT_EQ(world.machine().monitor(), nullptr);
  EXPECT_DOUBLE_EQ(a.fock_checksum, b.fock_checksum);
  EXPECT_DOUBLE_EQ(a.final_energy, b.final_energy);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
}

TEST(FtRecovery, ReportRendersRecoveryTable) {
  const apps::ScfConfig scf = small_scf();
  Time scf_start = 0;
  const apps::ScfResult clean = clean_reference(scf, &scf_start);

  WorldConfig cfg = cube8();
  cfg.machine.fault.node_fails.push_back(
      {/*node=*/3, scf_start + static_cast<Time>(0.5 * clean.wall_time)});
  World world(cfg);
  apps::run_scf(world, scf);
  const std::string report = render_report(world, {});
  EXPECT_NE(report.find("fail-stop recovery"), std::string::npos);
  EXPECT_NE(report.find("node deaths declared"), std::string::npos);
  EXPECT_NE(report.find("checkpoints committed"), std::string::npos);
  EXPECT_NE(report.find("rollbacks"), std::string::npos);
}

TEST(FtRuntimeConfig, ParsesAndRejectsUnknownKeys) {
  Config cfg;
  cfg.set("ft.checkpoint_interval", "4");
  cfg.set("ft.suspect_acks", "2");
  cfg.set("ft.heartbeat_period_us", "25");
  cfg.set("ft.heartbeat_timeout_us", "100");
  const ft::RuntimeConfig rc = ft::RuntimeConfig::from_config(cfg);
  EXPECT_EQ(rc.checkpoint_interval, 4);
  EXPECT_EQ(rc.suspect_acks, 2u);
  EXPECT_EQ(rc.heartbeat_period, from_us(25));
  EXPECT_EQ(rc.heartbeat_timeout, from_us(100));

  Config typo;
  typo.set("ft.checkpoint_intervall", "4");
  try {
    ft::RuntimeConfig::from_config(typo);
    FAIL() << "expected unknown-key rejection";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checkpoint_intervall"), std::string::npos);
    EXPECT_NE(what.find("checkpoint_interval"), std::string::npos)
        << "error should suggest the near-miss key";
  }
}

}  // namespace
}  // namespace pgasq::armci
