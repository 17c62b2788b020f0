// The application proxies: SCF task arithmetic, workload determinism,
// and the qualitative Fig 9 / Fig 11 relationships at test scale.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "apps/counter_kernel.hpp"
#include "apps/scf.hpp"
#include "core/comm.hpp"

namespace pgasq::apps {
namespace {

armci::WorldConfig make_cfg(int ranks, armci::ProgressMode mode,
                            int contexts = 1) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  cfg.armci.progress = mode;
  cfg.armci.contexts_per_rank = contexts;
  return cfg;
}

TEST(ScfMath, TaskBlocksCoverUpperTriangleExactlyOnce) {
  const std::int64_t nblk = 9;
  const std::int64_t ntasks = nblk * (nblk + 1) / 2;
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  for (std::int64_t t = 0; t < ntasks; ++t) {
    const auto [bi, bj] = scf_task_blocks(t, nblk);
    EXPECT_LE(bi, bj);
    EXPECT_GE(bi, 0);
    EXPECT_LT(bj, nblk);
    EXPECT_TRUE(seen.insert({bi, bj}).second) << "duplicate task " << t;
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), ntasks);
  EXPECT_THROW(scf_task_blocks(ntasks, nblk), Error);
}

TEST(ScfMath, TasksPerIterationMatchesBlockCount) {
  ScfConfig cfg;
  cfg.nbf = 644;
  cfg.block = 7;
  const std::int64_t nblk = (644 + 6) / 7;  // 92
  EXPECT_EQ(scf_tasks_per_iteration(cfg), nblk * (nblk + 1) / 2);
}

TEST(ScfMath, TaskTimesDeterministicAndJitterBounded) {
  ScfConfig cfg;
  cfg.mean_task_compute = from_us(1000);
  cfg.jitter = 0.5;
  for (std::int64_t t = 0; t < 200; ++t) {
    const Time a = scf_task_time(cfg, 1, t);
    const Time b = scf_task_time(cfg, 1, t);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, from_us(500));
    EXPECT_LE(a, from_us(1500));
  }
  // Different iterations see different times (new integral screening).
  EXPECT_NE(scf_task_time(cfg, 0, 5), scf_task_time(cfg, 1, 5));
}

TEST(Scf, AllTasksExecutedOnceAndChecksumStableAcrossP) {
  ScfConfig scf;
  scf.nbf = 28;
  scf.block = 4;
  scf.iterations = 2;
  scf.mean_task_compute = from_us(40);
  double checksum4 = 0;
  {
    armci::World world(make_cfg(4, armci::ProgressMode::kDefault));
    const auto r = run_scf(world, scf);
    EXPECT_EQ(r.tasks_executed,
              static_cast<std::uint64_t>(2 * scf_tasks_per_iteration(scf)));
    checksum4 = r.fock_checksum;
  }
  {
    armci::World world(make_cfg(7, armci::ProgressMode::kDefault));
    const auto r = run_scf(world, scf);
    EXPECT_NEAR(r.fock_checksum, checksum4, 1e-9)
        << "Fock result must not depend on process count";
  }
}

TEST(Scf, AsyncThreadReducesWallAndCounterTime) {
  ScfConfig scf;
  scf.nbf = 40;
  scf.block = 4;
  scf.iterations = 1;
  scf.mean_task_compute = from_us(800);
  armci::World d_world(make_cfg(8, armci::ProgressMode::kDefault));
  const auto d = run_scf(d_world, scf);
  armci::World at_world(make_cfg(8, armci::ProgressMode::kAsyncThread, 2));
  const auto at = run_scf(at_world, scf);
  EXPECT_LT(at.wall_time, d.wall_time) << "AT must beat Default";
  EXPECT_LT(at.counter_time, d.counter_time / 2)
      << "counter time must collapse under AT";
  EXPECT_NEAR(d.fock_checksum, at.fock_checksum, 1e-9);
}

TEST(Scf, NoForcedFencesUnderPerRegionTracking) {
  ScfConfig scf;
  scf.nbf = 24;
  scf.block = 4;
  scf.iterations = 1;
  scf.mean_task_compute = from_us(50);
  armci::WorldConfig cfg = make_cfg(4, armci::ProgressMode::kDefault);
  cfg.armci.consistency = armci::ConsistencyMode::kPerRegion;
  armci::World world(cfg);
  const auto r = run_scf(world, scf);
  EXPECT_EQ(r.forced_fences, 0u)
      << "D reads and F accs are distinct structures (S III-E)";
}

TEST(Scf, PurificationSweepsRunAndStayDeterministic) {
  ScfConfig scf;
  scf.nbf = 24;
  scf.block = 4;
  scf.iterations = 2;
  scf.mean_task_compute = from_us(40);
  scf.purification_sweeps = 2;
  armci::World a(make_cfg(4, armci::ProgressMode::kDefault));
  const auto ra = run_scf(a, scf);
  armci::World b(make_cfg(4, armci::ProgressMode::kAsyncThread, 2));
  const auto rb = run_scf(b, scf);
  EXPECT_NEAR(ra.fock_checksum, rb.fock_checksum, 1e-9);
  EXPECT_NEAR(ra.final_energy, rb.final_energy, 1e-9);
  // Purification changes the density between iterations, so the
  // energy must differ from the no-purification run.
  ScfConfig plain = scf;
  plain.purification_sweeps = 0;
  armci::World c(make_cfg(4, armci::ProgressMode::kDefault));
  const auto rc = run_scf(c, plain);
  EXPECT_NE(ra.final_energy, rc.final_energy);
}

// On-the-fly memregion registration is keyed by buffer address and
// never released, so an SCF that hands a fresh heap buffer to a comm op
// gets registration hits (and skipped create charges) that depend on
// where the allocator happens to place it. Identical runs in one
// process, with the heap disturbed in between, must not differ at all.
TEST(Scf, ResultsIndependentOfHeapLayout) {
  ScfConfig scf;
  scf.nbf = 60;
  scf.block = 5;
  scf.iterations = 2;
  scf.mean_task_compute = from_us(40);
  struct Run {
    std::uint64_t events = 0;
    std::uint64_t memregions = 0;
    Time wall = 0;
  };
  auto run = [&] {
    armci::World world(make_cfg(64, armci::ProgressMode::kAsyncThread, 2));
    const auto r = run_scf(world, scf);
    Run out;
    out.events = world.machine().engine().events_processed();
    for (int rank = 0; rank < 64; ++rank) {
      out.memregions += world.machine().process(rank).space().memregions;
    }
    out.wall = r.wall_time;
    return out;
  };
  const Run first = run();
  // Which disturbance moves a heap-dependent run depends on the
  // allocator's state, so sweep several: each round keeps a few more
  // blocks the size of a 5x5 task block of doubles live and frees a few
  // more into the allocator's cache.
  std::vector<std::unique_ptr<std::byte[]>> live, freed;
  for (int round = 0; round < 8; ++round) {
    for (int k = 0; k <= round % 4; ++k) {
      live.push_back(std::make_unique<std::byte[]>(200));
    }
    for (int k = 0; k < 2 + 2 * (round / 2); ++k) {
      freed.push_back(std::make_unique<std::byte[]>(200));
    }
    freed.clear();
    const Run again = run();
    EXPECT_EQ(first.events, again.events) << "round " << round;
    EXPECT_EQ(first.memregions, again.memregions) << "round " << round;
    EXPECT_EQ(first.wall, again.wall) << "round " << round;
  }
}

// The overlapped reduction tail is an optimization, never a physics
// change: with both tails on recursive doubling the Fock checksum and
// the energy match the blocking tail bitwise, at awkward rank counts.
TEST(Scf, OverlapMatchesBlocking) {
  ScfConfig scf;
  scf.nbf = 28;
  scf.block = 4;
  scf.iterations = 3;
  scf.mean_task_compute = from_us(40);
  for (const int ranks : {7, 13}) {
    auto run = [&](bool overlap) {
      armci::WorldConfig cfg = make_cfg(ranks, armci::ProgressMode::kDefault);
      cfg.armci.coll.emplace_back("algo.allreduce", "recdbl");
      armci::World world(cfg);
      ScfConfig c = scf;
      c.overlap = overlap;
      return run_scf(world, c);
    };
    const auto blocking = run(false);
    const auto overlapped = run(true);
    EXPECT_EQ(blocking.fock_checksum, overlapped.fock_checksum) << ranks;
    EXPECT_EQ(blocking.final_energy, overlapped.final_energy) << ranks;
    EXPECT_NE(overlapped.final_energy, 0.0) << ranks;
    EXPECT_EQ(blocking.tasks_executed, overlapped.tasks_executed) << ranks;
    EXPECT_EQ(blocking.prefetch_hits + blocking.prefetch_misses, 0u) << ranks;
    EXPECT_GT(overlapped.prefetch_hits + overlapped.prefetch_misses, 0u)
        << ranks << " ranks: the overlapped tail must speculate";
  }
}

// The overlapped tail supports neither purification nor fail-stop
// recovery; asking for either is an error, not a silent fallback.
TEST(Scf, OverlapRejectsPurificationAndNodeDeath) {
  ScfConfig scf;
  scf.nbf = 24;
  scf.block = 4;
  scf.iterations = 2;
  scf.mean_task_compute = from_us(40);
  scf.overlap = true;
  {
    ScfConfig c = scf;
    c.purification_sweeps = 1;
    armci::World world(make_cfg(4, armci::ProgressMode::kDefault));
    EXPECT_THROW(run_scf(world, c), Error);
  }
  {
    armci::WorldConfig cfg = make_cfg(4, armci::ProgressMode::kDefault);
    cfg.machine.fault.node_fails.push_back({1, from_us(1e6)});
    armci::World world(cfg);
    EXPECT_THROW(run_scf(world, scf), Error);
  }
}

TEST(CounterKernel, IdleHomeComparableAcrossModes) {
  CounterKernelConfig kcfg;
  kcfg.ops_per_rank = 6;
  armci::World d(make_cfg(8, armci::ProgressMode::kDefault));
  const auto rd = run_counter_kernel(d, kcfg);
  armci::World at(make_cfg(8, armci::ProgressMode::kAsyncThread, 2));
  const auto rat = run_counter_kernel(at, kcfg);
  EXPECT_EQ(rd.final_value, 7 * 6);
  EXPECT_EQ(rat.final_value, 7 * 6);
  // Paper: D and AT comparable when home makes progress (within 2x).
  EXPECT_LT(rat.avg_latency_us, rd.avg_latency_us * 2.0);
  EXPECT_LT(rd.avg_latency_us, rat.avg_latency_us * 2.0);
}

TEST(CounterKernel, ComputingHomePunishesDefaultOnly) {
  CounterKernelConfig kcfg;
  kcfg.ops_per_rank = 6;
  kcfg.home_computes = true;
  armci::World d(make_cfg(8, armci::ProgressMode::kDefault));
  const auto rd = run_counter_kernel(d, kcfg);
  armci::World at(make_cfg(8, armci::ProgressMode::kAsyncThread, 2));
  const auto rat = run_counter_kernel(at, kcfg);
  // Default-mode latency is dominated by the 300us compute chunk.
  EXPECT_GT(rd.avg_latency_us, 100.0);
  EXPECT_LT(rat.avg_latency_us, 30.0);
}

TEST(CounterKernel, HardwareAmoFlattensLatency) {
  CounterKernelConfig kcfg;
  kcfg.ops_per_rank = 4;
  armci::WorldConfig small = make_cfg(4, armci::ProgressMode::kAsyncThread, 2);
  small.machine.params.hardware_amo = true;
  armci::WorldConfig big = make_cfg(64, armci::ProgressMode::kAsyncThread, 2);
  big.machine.params.hardware_amo = true;
  armci::World ws(small);
  armci::World wb(big);
  const double lat_small = run_counter_kernel(ws, kcfg).avg_latency_us;
  const double lat_big = run_counter_kernel(wb, kcfg).avg_latency_us;
  EXPECT_LT(lat_big, lat_small * 4.0)
      << "NIC AMO latency must grow sublinearly with p";
}

}  // namespace
}  // namespace pgasq::apps
