#include "apps/scf.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "async/async.hpp"
#include "coll/coll.hpp"
#include "coll/nbc.hpp"
#include "core/comm.hpp"
#include "ft/recovery.hpp"
#include "ga/collectives.hpp"
#include "ga/dgemm.hpp"
#include "ga/global_array.hpp"
#include "ga/matrix_ops.hpp"
#include "pami/machine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pgasq::apps {

std::int64_t scf_tasks_per_iteration(const ScfConfig& config) {
  const std::int64_t nblk = (config.nbf + config.block - 1) / config.block;
  return nblk * (nblk + 1) / 2;
}

std::pair<std::int64_t, std::int64_t> scf_task_blocks(std::int64_t task,
                                                      std::int64_t nblk) {
  PGASQ_CHECK(task >= 0 && task < nblk * (nblk + 1) / 2);
  // Row bi owns (nblk - bi) tasks: (bi,bi) .. (bi,nblk-1).
  std::int64_t bi = 0;
  std::int64_t remaining = task;
  while (remaining >= nblk - bi) {
    remaining -= nblk - bi;
    ++bi;
  }
  return {bi, bi + remaining};
}

Time scf_task_time(const ScfConfig& config, int iteration, std::int64_t task) {
  // Deterministic in (seed, iteration, task): identical workload for
  // every progress mode and process count.
  std::uint64_t s = config.seed ^ (static_cast<std::uint64_t>(iteration) << 40) ^
                    static_cast<std::uint64_t>(task);
  const double u =
      static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor = 1.0 + config.jitter * (2.0 * u - 1.0);
  return static_cast<Time>(static_cast<double>(config.mean_task_compute) * factor);
}

ScfResult run_scf(armci::World& world, const ScfConfig& config) {
  PGASQ_CHECK(config.nbf >= config.block && config.block >= 1);
  PGASQ_CHECK(config.iterations >= 1);
  // Checkpoint policy: fail-stop recovery is armed exactly when the
  // fault plan schedules node deaths (the machine then has a health
  // monitor). Without one the body builds no ft::Runtime.
  const bool fail_stop = world.machine().monitor() != nullptr;
  PGASQ_CHECK(!fail_stop || config.purification_sweeps == 0,
              << "purification is not supported under fail-stop faults");
  PGASQ_CHECK(!config.overlap || config.purification_sweeps == 0,
              << "scf overlap does not support purification");
  PGASQ_CHECK(!fail_stop || !config.overlap,
              << "scf overlap is not supported under fail-stop faults");
  const std::int64_t nblk = (config.nbf + config.block - 1) / config.block;
  const std::int64_t ntasks = scf_tasks_per_iteration(config);

  ScfResult result;
  Time t_start = 0;
  Time t_end = 0;

  world.spmd([&](armci::Comm& comm) {
    std::unique_ptr<ga::GlobalArray> density, fock, scratch;
    std::unique_ptr<ga::SharedCounter> counter;
    // (Re)creates the arrays and the load-balance counter over `members`
    // — the full clique up front (empty list), the survivor clique after
    // a fail-stop shrink. Old arrays are dropped without reuse: straggler
    // traffic from the dead epoch can only land in the superseded
    // allocations.
    auto build = [&](const std::vector<int>& members) {
      const bool full =
          members.empty() || static_cast<int>(members.size()) == comm.nprocs();
      auto mk = [&] {
        return full ? std::make_unique<ga::GlobalArray>(comm, config.nbf, config.nbf)
                    : std::make_unique<ga::GlobalArray>(comm, config.nbf, config.nbf,
                                                        members);
      };
      density = mk();
      fock = mk();
      scratch = mk();
      counter = std::make_unique<ga::SharedCounter>(
          comm, members.empty() ? 0 : members.front());
    };
    // The guess buffer is a put source: it outlives the loop so no later
    // comm buffer can land on its (still registered) memory (DESIGN.md §5).
    std::vector<double> d0;
    auto fill_initial = [&] {
      // A deterministic "molecular electron density".
      auto guess = [](std::int64_t i, std::int64_t j) {
        return 1.0 / static_cast<double>(1 + i + j);
      };
      if (config.distributed_guess && !fail_stop) {
        // Rank 0 owns the initial guess and scatters it with one-sided
        // ga_put patches; sync() is only a barrier, so remote completion
        // needs an explicit fence first.
        if (comm.rank() == 0) {
          d0.resize(static_cast<std::size_t>(config.nbf * config.nbf));
          for (std::int64_t i = 0; i < config.nbf; ++i) {
            for (std::int64_t j = 0; j < config.nbf; ++j) {
              d0[static_cast<std::size_t>(i * config.nbf + j)] = guess(i, j);
            }
          }
          density->put(0, config.nbf, 0, config.nbf, d0.data(), config.nbf);
          comm.fence_all();
        }
      } else {
        density->fill_local(guess);
      }
      fock->fill_local(0.0);
      density->sync();
    };

    build({});
    fill_initial();
    // Bring up the engines (collectives scratch arena and barrier hook;
    // the futures runtime and non-blocking collectives for the
    // overlapped tail) with the rest of the runtime, outside the timed
    // region — like a real SCF, which initializes GA/ARMCI long before
    // the Fock loop.
    coll::CollEngine::of(comm);
    if (config.overlap) {
      async::Runtime::of(comm);
      coll::NbcEngine::of(comm);
    }
    // Built only under fail-stop faults: even inert, a Runtime holds an
    // O(p) member list per rank.
    std::optional<ft::Runtime> rt;
    if (fail_stop) {
      ft::RuntimeConfig rt_config;
      rt_config.checkpoint_interval = config.ft_checkpoint_interval;
      rt.emplace(comm, rt_config,
                 std::vector<ga::GlobalArray*>{density.get(), fock.get()});
    }
    // End-of-run results are taken on the lowest surviving rank: under
    // fail-stop faults rank 0 may be among the dead.
    auto leader = [&] { return rt ? rt->members().front() : 0; };

    const armci::CommStats before = comm.stats();
    if (comm.rank() == leader()) t_start = comm.now();

    // Every buffer a comm op touches lives for the whole loop
    // (DESIGN.md §5). fbuf_t holds the transposed block for the
    // symmetric acc.
    std::vector<double> dij(static_cast<std::size_t>(config.block * config.block));
    std::vector<double> dji(dij.size());
    std::vector<double> fbuf(dij.size());
    std::vector<double> fbuf_t(dij.size());

    // Overlapped tail speculation: the next iteration's first task is
    // guessed to equal this iteration's (the counter hands out a similar
    // order every build), and its density patches are fetched under the
    // open energy reduction. A wrong guess costs nothing on the critical
    // path — the fetch was asynchronous — and density is static, so hit
    // or miss the physics is identical.
    std::vector<double> pij(config.overlap ? dij.size() : 0);
    std::vector<double> pji(pij.size());
    armci::Handle pf;
    std::int64_t speculated = -1;
    bool prefetch_live = false;

    // One energy slot per iteration: under the overlapped tail each must
    // stay alive and untouched until its reduction future is ready.
    std::vector<double> energies(static_cast<std::size_t>(config.iterations), 0.0);
    std::vector<fut::Future<fut::Unit>> open_reductions;

    struct Patch {
      std::int64_t rlo, rhi, clo, chi;
    };
    auto patch_of = [&](std::int64_t task) {
      const auto [bi, bj] = scf_task_blocks(task, nblk);
      const std::int64_t rlo = bi * config.block;
      const std::int64_t clo = bj * config.block;
      return Patch{rlo, std::min(config.nbf, rlo + config.block), clo,
                   std::min(config.nbf, clo + config.block)};
    };
    // Fetches the two density patches the contraction touches.
    auto fetch = [&](const Patch& p, double* ij, double* ji, armci::Handle& h) {
      density->nb_get(p.rlo, p.rhi, p.clo, p.chi, ij, p.chi - p.clo, h);
      density->nb_get(p.clo, p.chi, p.rlo, p.rhi, ji, p.rhi - p.rlo, h);
    };

    int iter = 0;
    while (iter < config.iterations) {
      try {
        if (rt) rt->checkpoint(iter, {density.get(), fock.get()});
        counter->reset();
        std::int64_t first_task = -1;
        for (std::int64_t task = counter->next(); task < ntasks;
             task = counter->next()) {
          if (first_task < 0) first_task = task;
          const Patch p = patch_of(task);
          const std::int64_t nr = p.rhi - p.rlo;
          const std::int64_t nc = p.chi - p.clo;

          if (prefetch_live && task == speculated) {
            // The patches are (usually) already local: the fetch flew
            // while the previous iteration's energy reduction was open.
            comm.wait(pf);
            dij.swap(pij);
            dji.swap(pji);
            prefetch_live = false;
            ++result.prefetch_hits;
          } else {
            armci::Handle h;
            fetch(p, dij.data(), dji.data(), h);
            comm.wait(h);
          }

          // Contract with the 2-electron integrals: modelled local work.
          comm.compute(scf_task_time(config, iter, task));

          // The Fock contribution of this block pair — a deterministic
          // function of the density so the checksum validates every mode.
          for (std::int64_t r = 0; r < nr; ++r) {
            for (std::int64_t c = 0; c < nc; ++c) {
              fbuf[static_cast<std::size_t>(r * nc + c)] =
                  0.5 * dij[static_cast<std::size_t>(r * nc + c)] +
                  0.25 * dji[static_cast<std::size_t>(c * nr + r)];
            }
          }
          fock->acc(1.0, p.rlo, p.rhi, p.clo, p.chi, fbuf.data(), nc);
          if (p.rlo != p.clo) {
            // Symmetric contribution F(bj, bi) += transpose(contrib).
            for (std::int64_t r = 0; r < nr; ++r) {
              for (std::int64_t c = 0; c < nc; ++c) {
                fbuf_t[static_cast<std::size_t>(c * nr + r)] =
                    fbuf[static_cast<std::size_t>(r * nc + c)];
              }
            }
            fock->acc(1.0, p.clo, p.chi, p.rlo, p.rhi, fbuf_t.data(), nr);
          }
          ++result.tasks_executed;
        }
        if (prefetch_live) {
          // The guess missed (the counter dealt a different first task):
          // retire the fetch off the critical path's accounting.
          comm.wait(pf);
          prefetch_live = false;
          ++result.prefetch_misses;
        }
        comm.barrier();
        // SCF post-processing: symmetrize the Fock matrix, then the
        // global energy reduction.
        ga::symmetrize(*fock, *scratch);
        const std::size_t slot = static_cast<std::size_t>(iter);
        if (config.overlap) {
          // Reduction-tail policy, overlapped: the energy reduction is
          // non-blocking and chained past the iteration boundary — it
          // advances from the progress passes the next iteration's
          // gets/accs/RMWs make anyway — and its window hides a
          // speculative prefetch of the next iteration's first patches.
          open_reductions.push_back(ga::ielement_sum(*fock, &energies[slot]));
          if (iter + 1 < config.iterations && first_task >= 0) {
            speculated = first_task;
            fetch(patch_of(speculated), pij.data(), pji.data(), pf);
            prefetch_live = true;
          }
        } else {
          // Reduction-tail policy, blocking. Optionally stand in for the
          // diagonalization with McWeeny purification sweeps on a damped
          // copy of F (linear-scaling SCF style): D' = 3 D^2 - 2 D^3.
          if (config.purification_sweeps > 0) {
            ga::GlobalArray d2(comm, config.nbf, config.nbf);
            ga::copy(*fock, *scratch);
            ga::scale(*scratch, 1.0 / static_cast<double>(config.nbf));  // damp
            for (int sweep = 0; sweep < config.purification_sweeps; ++sweep) {
              ga::dgemm(1.0, *scratch, *scratch, 0.0, d2);     // D^2
              ga::dgemm(-2.0, d2, *scratch, 0.0, *density);    // -2 D^3 (reuse D)
              ga::add(3.0, d2, 1.0, *density, *scratch);       // 3D^2 - 2D^3
            }
            // Refresh the density from the purified matrix for the next
            // build (keeps values bounded and deterministic).
            ga::copy(*scratch, *density);
            ga::symmetrize(*density, d2);
          }
          energies[slot] = ga::element_sum(*fock);
        }
        ++iter;
      } catch (const ft::PeerDeadError&) {
        if (!rt) throw;
        // Recover and rebuild over the survivors. Loops because another
        // node can die while the survivors are still re-synchronizing.
        while (true) {
          try {
            if (!rt->recover()) return;  // this rank is the casualty
            build(rt->members());
            if (rt->restart_iter() == 0) {
              fill_initial();
            } else {
              rt->restore({density.get(), fock.get()});
            }
            break;
          } catch (const ft::PeerDeadError&) {
            continue;  // another death while re-synchronizing: recover again
          }
        }
        // Roll back to the agreed checkpoint's iteration (0 = cold
        // restart from the refilled initial state).
        iter = rt->restart_iter();
      }
    }

    if (config.overlap) {
      // Drain every reduction still in flight before reading results.
      async::Runtime& art = async::Runtime::of(comm);
      art.wait(fut::when_all(art, std::move(open_reductions)));
    }
    // Validate: trace-like checksum of the Fock matrix.
    if (comm.rank() == leader()) {
      t_end = comm.now();
      result.final_energy = energies.back();
      double sum = 0.0;
      for (std::int64_t i = 0; i < config.nbf; i += 97) {
        sum += fock->read_element(i, i);
        if (i + 1 < config.nbf) sum += fock->read_element(i, i + 1);
      }
      result.fock_checksum = sum;
    }
    comm.barrier();

    // Per-rank deltas for the SCF region only.
    const armci::CommStats& after = comm.stats();
    result.counter_time += after.time_in_rmw - before.time_in_rmw;
    result.get_time +=
        (after.time_in_get - before.time_in_get) + (after.time_in_wait - before.time_in_wait);
    result.acc_time += after.time_in_acc - before.time_in_acc;
    result.barrier_time += after.time_in_barrier - before.time_in_barrier;
    result.reduce_time += after.coll.data_time() - before.coll.data_time();
    result.forced_fences += after.forced_fences - before.forced_fences;
  });

  result.wall_time = t_end - t_start;
  result.stats = world.total_stats();
  return result;
}

}  // namespace pgasq::apps
