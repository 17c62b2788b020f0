// NWChem Self-Consistent-Field Fock-build proxy (paper Fig 10 / S IV-C).
//
// Reproduces the communication structure of the NWChem SCF twoel loop
// on 6 water molecules (644 basis functions): a shared load-balance
// counter hands out (i, j) block-pair tasks; each task gets density
// patches D(i,j) and D(j,i), performs local work (modelled time — the
// paper itself abstracts it as `do_work`), and accumulates the result
// into the Fock matrix F. Fock contributions are deterministic, so a
// checksum validates that every progress mode computes the same
// physics while timings differ.
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "core/world.hpp"
#include "util/time_types.hpp"

namespace pgasq::apps {

struct ScfConfig {
  /// Basis functions: the paper's 6-H2O deck uses 644.
  std::int64_t nbf = 644;
  /// Basis functions per task block; tasks are upper-triangular block
  /// pairs, ntasks/iter = nblk*(nblk+1)/2.
  std::int64_t block = 7;
  /// SCF iterations (Fock rebuilds).
  int iterations = 2;
  /// Mean per-task integral-evaluation time. Real 2-electron integral
  /// tasks are multi-millisecond; this is what rank 0 is busy with
  /// while it cannot service counter requests in Default mode.
  Time mean_task_compute = from_us(5000);
  /// Task-time spread: uniform in mean * [1-jitter, 1+jitter],
  /// deterministic in (iteration, task) so every progress mode sees an
  /// identical workload.
  double jitter = 0.5;
  std::uint64_t seed = 12345;
  /// Checkpoint cadence for fail-stop runs (ft::Runtime): the
  /// checkpoint policy saves density+Fock every N iterations. Ignored
  /// when the fault plan schedules no node deaths (there is then no
  /// health monitor and no checkpoint policy).
  int ft_checkpoint_interval = 1;
  /// McWeeny purification sweeps applied to the (scaled) Fock matrix
  /// after each build: D' = 3D^2 - 2D^3 via distributed dgemm — the
  /// linear-scaling-SCF stand-in for the diagonalization step. 0
  /// disables (the default keeps the Fig 11 benchmark identical to the
  /// published workload, which measures the Fock build).
  int purification_sweeps = 0;
  /// Initial-guess distribution: when true, rank 0 computes the full
  /// starting density and scatters it with one-sided ga_put patches —
  /// how NWChem seeds D from the atomic-density superposition — so the
  /// run also exercises the (strided) rput path. The default keeps
  /// each rank filling its own block locally, leaving the published
  /// Fig 11 workload untouched. Ignored under fail-stop faults (a
  /// cold restart refills the density locally).
  bool distributed_guess = false;
  /// Reduction-tail policy of the one iteration loop, and the only
  /// overlap knob. When set, the per-iteration energy reduction goes
  /// through the non-blocking collectives engine and is chained past
  /// the iteration boundary — it completes in the background while the
  /// next iteration's task loop runs — and the reduction window
  /// additionally hides a speculative prefetch of the next iteration's
  /// first density patches. Physics (Fock checksum, final energy) is
  /// unchanged; with coll.algo.allreduce=recdbl it is bitwise identical
  /// to the blocking tail. The default keeps the published Fig 11
  /// workload byte-identical. run_scf rejects it together with
  /// purification_sweeps > 0 or a fault plan that schedules node deaths.
  bool overlap = false;
};

struct ScfResult {
  /// Virtual time of the SCF region (after setup, through the final
  /// barrier of the last iteration).
  Time wall_time = 0;
  /// Sum over ranks of time blocked in the load-balance counter —
  /// the quantity Fig 11 shows collapsing under the async thread.
  Time counter_time = 0;
  Time get_time = 0;
  Time acc_time = 0;
  Time barrier_time = 0;
  /// Sum over ranks of time inside the per-iteration energy reduction
  /// (and any other data-moving engine collectives in the SCF region;
  /// barriers are excluded — their cost is load-imbalance wait,
  /// already visible in barrier_time).
  Time reduce_time = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t forced_fences = 0;
  /// Overlapped-tail speculation accounting (zero on the blocking tail):
  /// next-iteration first-task density prefetches that were consumed
  /// vs. discarded.
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_misses = 0;
  /// Deterministic Fock-matrix checksum (mode/p independent).
  double fock_checksum = 0.0;
  /// "Energy" from the per-iteration global reduction (GA_Dgop
  /// analogue) — also mode/p independent.
  double final_energy = 0.0;
  armci::CommStats stats;
};

/// Runs the SCF proxy as the SPMD body of `world`. One call consumes
/// the world (its virtual clock keeps advancing across calls).
ScfResult run_scf(armci::World& world, const ScfConfig& config);

/// Number of tasks per iteration for a config.
std::int64_t scf_tasks_per_iteration(const ScfConfig& config);

/// Deterministic compute time of one task.
Time scf_task_time(const ScfConfig& config, int iteration, std::int64_t task);

/// Maps a linear task id to its (block-row, block-col) pair, bi <= bj.
std::pair<std::int64_t, std::int64_t> scf_task_blocks(std::int64_t task,
                                                      std::int64_t nblk);

}  // namespace pgasq::apps
