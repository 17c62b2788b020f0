// Comm — the per-rank ARMCI runtime and the library's main public API.
//
// One Comm exists per simulated process inside World::spmd. It owns
// the rank's PAMI objects (client, rho contexts, endpoint cache), the
// scalable-protocols layer of S III (RDMA-first contiguous and strided
// transfers with active-message fall-backs, the LFU remote-region
// cache, conflicting-access tracking for location consistency), the
// load-balance-counter rmw path, and the asynchronous progress thread
// of S III-D.
//
// API shape follows ARMCI: blocking and non-blocking (explicit handle)
// put/get/accumulate for contiguous and uniformly non-contiguous data,
// fetch-and-add / swap rmw, pairwise and global fence, mutexes, and
// collective allocation.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/caches.hpp"
#include "core/consistency.hpp"
#include "core/globalmem.hpp"
#include "core/strided.hpp"
#include "core/types.hpp"
#include "core/world.hpp"
#include "pami/context.hpp"
#include "pami/process.hpp"

namespace pgasq::ft {
class HealthMonitor;
}  // namespace pgasq::ft

namespace pgasq::armci {

/// A set of ARMCI mutexes: `count` lock words hosted on every rank.
class MutexSet {
 public:
  int count() const { return count_; }

 private:
  friend class Comm;
  GlobalMem* mem_ = nullptr;
  int count_ = 0;
};

class Comm {
 public:
  Comm(World& world, pami::Process& process);
  ~Comm();
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  // --- Identity & time ------------------------------------------------------

  RankId rank() const { return process_.rank(); }
  int nprocs() const { return world_.num_ranks(); }
  World& world() { return world_; }
  pami::Process& process() { return process_; }
  Time now() const { return process_.now(); }

  /// Occupies this rank's main thread for `t` of virtual time (the
  /// application's local computation, "do work" in Fig 10). Incoming
  /// requests are NOT serviced meanwhile (that is the paper's Default
  /// progress problem) — an idle client should use idle_until.
  void compute(Time t) { process_.busy(t); }
  /// Parks this rank until virtual time `t` while continuing to drive
  /// progress, so remote requests keep being serviced — "idle but
  /// responsive", e.g. an open-loop client between arrivals. No-op
  /// when `t` has already passed.
  void idle_until(Time t);

  // --- Lifecycle (called by World::spmd) -------------------------------------

  void init();
  void finalize();

  // --- Collective memory ------------------------------------------------------

  /// ARMCI_Malloc: every rank contributes `bytes_per_rank`; regions
  /// are registered and exchanged. Collective.
  GlobalMem& malloc_collective(std::size_t bytes_per_rank);
  /// ARMCI_Free. Collective.
  void free_collective(GlobalMem& mem);

  /// ARMCI_Malloc_local: local communication buffer, registered as one
  /// memory region up front (a tau buffer of Table I) so transfers of
  /// any size within it take the RDMA path. Registration failure (at
  /// the region limit) still returns usable memory — fall-back
  /// protocols then apply.
  void* malloc_local(std::size_t bytes);
  void free_local(void* ptr);

  // --- Contiguous RMA ---------------------------------------------------------

  void put(const void* src, RemotePtr dst, std::size_t bytes);
  void get(RemotePtr src, void* dst, std::size_t bytes);
  /// Accumulate: dst[i] += alpha * src[i] over `count` doubles.
  void acc(double alpha, const double* src, RemotePtr dst, std::size_t count);

  void nb_put(const void* src, RemotePtr dst, std::size_t bytes, Handle& handle);
  void nb_get(RemotePtr src, void* dst, std::size_t bytes, Handle& handle);
  void nb_acc(double alpha, const double* src, RemotePtr dst, std::size_t count,
              Handle& handle);

  /// Remote-completion variants (async runtime, Cx::kRemote):
  /// `on_remote` fires when the target's acknowledgement arrives, i.e.
  /// the write is visible at the target — the same ack leg the
  /// conflict tracker uses for fencing.
  void nb_put(const void* src, RemotePtr dst, std::size_t bytes, Handle& handle,
              pami::Callback on_remote);
  void nb_acc(double alpha, const double* src, RemotePtr dst, std::size_t count,
              Handle& handle, pami::Callback on_remote);

  /// Deferred-injection get (async runtime): queued locally and
  /// injected at the next progress pass. revoke_get before injection
  /// cancels the op outright — no wire leg, no byte counted, the
  /// handle completes immediately. After injection it proceeds like a
  /// plain nb_get (the fence-before-read check also runs at injection,
  /// not at queue time). Returns the queued record; its `handle` obeys
  /// normal wait/test semantics.
  std::shared_ptr<DeferredGet> nb_get_deferred(RemotePtr src, void* dst,
                                               std::size_t bytes);
  /// True iff the get was revoked before its wire leg; false once
  /// injected (the op then runs to completion and must be drained
  /// through its handle before the buffer is reused).
  bool revoke_get(const std::shared_ptr<DeferredGet>& g);

  /// Typed accumulate (ARMCI_Acc with ARMCI_ACC_INT/FLT/DBL/DCP):
  /// dst[i] += alpha * src[i] elementwise over `count` elements of T.
  /// T is one of std::int32_t, std::int64_t, float, double,
  /// std::complex<double>.
  template <typename T>
  void acc_t(T alpha, const T* src, RemotePtr dst, std::size_t count);
  template <typename T>
  void nb_acc_t(T alpha, const T* src, RemotePtr dst, std::size_t count,
                Handle& handle, pami::Callback on_remote = nullptr);

  // --- Strided RMA ------------------------------------------------------------

  void put_strided(const void* src, RemotePtr dst, const StridedSpec& spec);
  void get_strided(RemotePtr src, void* dst, const StridedSpec& spec);
  void acc_strided(double alpha, const double* src, RemotePtr dst,
                   const StridedSpec& spec);

  void nb_put_strided(const void* src, RemotePtr dst, const StridedSpec& spec,
                      Handle& handle);
  void nb_get_strided(RemotePtr src, void* dst, const StridedSpec& spec,
                      Handle& handle);
  void nb_acc_strided(double alpha, const double* src, RemotePtr dst,
                      const StridedSpec& spec, Handle& handle);

  // --- General I/O-vector RMA (ARMCI_PutV / GetV / AccV) ----------------------

  /// Scatter/gather descriptor: `count()` segments of `segment_bytes`
  /// each; `local[i]` pairs with `remote[i]` in the target's address
  /// space. All segments address ONE target rank.
  struct VectorDescriptor {
    std::size_t segment_bytes = 0;
    std::vector<std::byte*> local;
    std::vector<std::byte*> remote;

    std::size_t count() const { return local.size(); }
    std::size_t total_bytes() const { return segment_bytes * local.size(); }
  };

  void put_v(RankId target, const VectorDescriptor& desc);
  void get_v(RankId target, const VectorDescriptor& desc);
  /// remote[i][k] += alpha * local[i][k] over doubles.
  void acc_v(double alpha, RankId target, const VectorDescriptor& desc);

  void nb_put_v(RankId target, const VectorDescriptor& desc, Handle& handle);
  void nb_get_v(RankId target, const VectorDescriptor& desc, Handle& handle);
  void nb_acc_v(double alpha, RankId target, const VectorDescriptor& desc,
                Handle& handle);

  // --- Atomic memory operations ----------------------------------------------

  /// ARMCI_Rmw(ARMCI_FETCH_AND_ADD): the load-balance-counter
  /// primitive. Blocks for the old value.
  std::int64_t fetch_add(RemotePtr counter, std::int64_t delta);
  /// Atomic swap; returns the old value.
  std::int64_t swap(RemotePtr word, std::int64_t value);
  /// Compare-and-swap; returns the old value.
  std::int64_t compare_swap(RemotePtr word, std::int64_t compare, std::int64_t value);

  // --- Overload control (src/flow) -------------------------------------------

  /// Absolute virtual-time deadline attached to subsequent rmw and
  /// fall-back get operations (0 = none, the default). A request the
  /// server dequeues past its deadline is shed before servicing and
  /// the blocking call throws flow::DeadlineError instead of
  /// returning a stale answer. RDMA paths (rget/rput) involve no
  /// target software and are never shed — for them the deadline is a
  /// client-side concern (see src/kvs's open-loop driver). Requires
  /// the machine's flow controller (flow.* configured); without it
  /// deadlines are carried but never enforced.
  void set_op_deadline(Time deadline) { op_deadline_ = deadline; }
  Time op_deadline() const { return op_deadline_; }

  // --- Completion & synchronization --------------------------------------------

  void wait(Handle& handle);
  /// One progress() pass; true iff `handle` has completed. Polling
  /// test() alone drives every op to completion, deferred gets too.
  bool test(Handle& handle);
  /// Blocks until `handle` completes or virtual time reaches `t`,
  /// whichever is earlier; returns handle.done(). The timeout is a
  /// zero-cost self-completion posted on this rank's context, so the
  /// fiber wakes at exactly `t` (no polling quantum). Used by hedged
  /// requests (src/kvs) to arm a backup after a tail-latency delay.
  bool wait_until(Handle& handle, Time t);
  /// Blocks until either handle completes; returns true when `a` is
  /// the one that did (ties go to `a`). The loser stays in flight —
  /// callers must keep its landing buffer alive and drain it before
  /// reuse. Implemented over wait_some.
  bool wait_any(Handle& a, Handle& b);
  /// N-ary aggregation: blocks until at least one handle in `hs`
  /// completes; returns the indices of every completed handle,
  /// ascending. Losers stay in flight (wait_any's contract).
  std::vector<std::size_t> wait_some(const std::vector<Handle*>& hs);
  /// One progress() pass; true iff every handle in `hs` has completed.
  bool test_all(const std::vector<Handle*>& hs);
  /// One explicit progress-engine call (what a Default-mode
  /// application must sprinkle into compute phases to service remote
  /// requests, S III-D).
  void progress() {
    ft_check();
    if (!deferred_gets_.empty()) flush_deferred_gets();
    locked_advance(main_context());
    if (async_hook_) async_hook_();
  }
  /// Waits for local completion of all implicit non-blocking ops.
  void wait_all();

  /// Runs progress passes until `pred` returns true, parking between
  /// deliveries. Every blocking wait in core, coll and async is this
  /// loop; a wait on a one-sided flag arms it (pami::Process::Watch).
  void progress_until(const std::function<bool()>& pred);

  /// Pairwise producer/consumer synchronization (armci_notify):
  /// fences all writes to `target`, then raises a notification there.
  /// The consumer calls wait_notify(producer) and may then read the
  /// produced data without any other synchronization (S II-B:
  /// "pairwise memory synchronization").
  void notify(RankId target);
  /// Blocks until `count` notifications from `producer` have arrived
  /// (cumulative across the program).
  void wait_notify(RankId producer, std::uint64_t count = 1);
  /// Notifications received so far from `producer`.
  std::uint64_t notifications_from(RankId producer) const;

  /// ARMCI_Fence: remote completion of all writes to `target`.
  void fence(RankId target);
  /// ARMCI_AllFence.
  void fence_all();
  /// ARMCI_Barrier. Routes through the collectives engine once one is
  /// attached (BG/Q's in-fabric barrier stays the default algorithm);
  /// before that it is allfence + the hardware barrier directly.
  void barrier();
  /// The in-fabric (GI network) barrier mechanics: allfence + arrival
  /// counting + the modelled release latency, with no engine dispatch
  /// and no blocking-time accounting. The collectives subsystem's
  /// kHardware barrier and its internal rendezvous call this.
  void barrier_hw();

  // --- Mutexes ------------------------------------------------------------------

  /// ARMCI_Create_mutexes. Collective.
  MutexSet create_mutexes(int count);
  void lock(MutexSet& set, int mutex, RankId owner);
  void unlock(MutexSet& set, int mutex, RankId owner);

  // --- Introspection --------------------------------------------------------------

  const CommStats& stats() const { return stats_; }
  const RegionCache& region_cache() const { return *region_cache_; }
  const EndpointCache& endpoint_cache() const { return *endpoint_cache_; }
  const ConflictTracker& conflict_tracker() const { return *tracker_; }
  const Options& options() const { return world_.options(); }

  // --- Collectives-subsystem attachment (src/coll) ----------------------------

  /// Opaque per-rank slot owned by coll::CollEngine (core never looks
  /// inside; reset at finalize so the engine detaches before teardown).
  std::shared_ptr<void>& coll_slot() { return coll_slot_; }
  /// Installed by the engine: when set, barrier() dispatches through
  /// the engine's algorithm selection instead of calling barrier_hw().
  void set_barrier_hook(std::function<void()> hook) { barrier_hook_ = std::move(hook); }
  /// Collective counters, written by the engine.
  CollStats& coll_stats() { return stats_.coll; }
  /// Monotone engine-creation sequence (world, shrunk and group
  /// engines): the flow-id salt keeping concurrent engines' causal
  /// trace ids disjoint. Engines are constructed collectively, so the
  /// sequence — and hence each engine's salt — is identical on every
  /// rank.
  std::uint64_t next_coll_engine_salt() { return coll_engine_seq_++; }
  /// Per-group collective counters (group engines write here via their
  /// label; rendered as extra tables in the communication report).
  CollStats& group_coll_stats(const std::string& label) {
    return stats_.group_coll[label];
  }
  /// Opaque per-rank slot owned by coll::NbcEngine (the non-blocking
  /// collectives engine). Reset at finalize after the blocking engine
  /// but before the async runtime's quiescence check: an open nbc op
  /// at that point still counts as a pending future and aborts.
  std::shared_ptr<void>& nbc_slot() { return nbc_slot_; }

  // --- Async-runtime attachment (src/async) -----------------------------------

  /// Opaque per-rank slot owned by async::Runtime (reset at finalize,
  /// after the collectives engine detaches — nbc completions drain
  /// through the runtime during coll teardown).
  std::shared_ptr<void>& async_slot() { return async_slot_; }
  /// Installed by the runtime. `drain` runs after every progress pass
  /// — on this rank's application fiber, outside the context lock —
  /// stepping non-blocking collectives and running queued
  /// continuations in FIFO (virtual-time) order. `check` runs at
  /// finalize, before the runtime detaches, and aborts on abandoned
  /// continuations. Both nullptr-guarded: unattached runs pay one
  /// pointer compare per progress pass.
  void set_async_hook(std::function<void()> drain, std::function<void()> check) {
    async_hook_ = std::move(drain);
    async_check_ = std::move(check);
  }

  // --- Process-group-subsystem attachment (src/grp) ----------------------------

  /// Opaque per-rank slot owned by grp::GroupRegistry (reset at
  /// finalize, before the collectives engine detaches — group engines
  /// are built on top of it).
  std::shared_ptr<void>& grp_slot() { return grp_slot_; }
  /// Installed by the group registry: invoked by
  /// coll::CollEngine::rebuild_shrunk after the world engine has been
  /// replaced, with the surviving world ranks, at a survivor-collective
  /// point — the registry rebuilds its derived groups there.
  void set_shrink_hook(std::function<void(const std::vector<int>&)> hook) {
    shrink_hook_ = std::move(hook);
  }
  const std::function<void(const std::vector<int>&)>& shrink_hook() const {
    return shrink_hook_;
  }

  // --- Fail-stop fault tolerance (src/ft) --------------------------------------

  /// The machine's health monitor, or nullptr when the fault plan
  /// schedules no node deaths (the zero-cost default).
  ft::HealthMonitor* ft_monitor() { return monitor_; }
  /// Last liveness epoch this rank acknowledged. Every blocking
  /// progress loop unwinds with PeerDeadError while the monitor's
  /// epoch is ahead of this.
  std::uint64_t ft_epoch_acked() const { return ft_acked_epoch_; }
  /// Acknowledges the current epoch (recovery runtime, after catching
  /// the abort and before re-synchronizing survivors).
  void ft_accept_epoch();
  /// True once this rank's own node was declared dead: all collectives
  /// are skipped and finalize() tears down without synchronizing.
  bool ft_failed() const { return ft_failed_; }
  void ft_mark_failed() { ft_failed_ = true; }
  /// Abandons in-flight state that can never complete after a peer
  /// died: forgets tracked writes (dead-peer acks never come) and
  /// detaches the implicit handle.
  void ft_quiesce();
  /// Re-aligns the collective-allocation sequence across survivors: an
  /// abort can interrupt ranks at different allocation counts, after
  /// which "the same" malloc_collective would address different heaps.
  /// Rendezvous, fast-forward to the world-wide high-water mark (frozen
  /// while every survivor sits between the two rendezvous), rendezvous
  /// again. Collective over live ranks.
  void ft_align_collectives();
  /// Posts a no-op completion so this rank's parked progress loops
  /// re-evaluate their predicates (epoch listeners and the heartbeat
  /// tick use this to wake fibers blocked on work that died with a
  /// peer).
  void ft_poke();

  /// Context the main thread initiates on and advances.
  pami::Context& main_context() { return process_.context(0); }
  /// Context remote requests are serviced on (context 1 when the
  /// async-thread design runs with rho = 2, else context 0).
  pami::Context& service_context() { return process_.context(service_context_index_); }

 private:
  struct AckClosure;
  class ProgressGuard;

  // Progress & locking.
  bool needs_context_lock() const;
  /// Holds `ctx`'s lock (charging its cost) while the returned guard
  /// lives, when the configuration shares a context between threads.
  ProgressGuard lock_context(pami::Context& ctx);
  /// Returns the number of items serviced (Context::advance's count).
  std::size_t locked_advance(pami::Context& ctx);
  /// Runs `issue` (when given), then parks until `done()`; the virtual
  /// time of both is charged to `bucket`. Every timed blocking call.
  void timed_wait(Time CommStats::*bucket, const std::function<bool()>& done,
                  const std::function<void()>& issue = nullptr);
  void start_async_thread();
  /// Injects every queued deferred get (skipping revoked ones).
  void flush_deferred_gets();
  /// Throws PeerDeadError when the liveness epoch moved past the last
  /// acknowledged one (or this rank's own node died). One pointer
  /// check when no monitor exists.
  void ft_check();

  // Endpoint / region resolution.
  void ensure_endpoint(RankId target, int context);
  /// The owner's region for a range inside a live collective heap, or
  /// nullptr when no such heap covers it (exchanged at allocation, so
  /// the lookup sends nothing).
  const pami::MemoryRegion* collective_region(RankId target, const std::byte* addr,
                                              std::size_t bytes) const;
  std::optional<pami::MemoryRegion> resolve_remote_region(RankId target,
                                                          const std::byte* addr,
                                                          std::size_t bytes);
  /// Tracking-only lookup: never sends a query; returns region id 0 on
  /// unknown.
  std::uint64_t known_region_id(RankId target, const std::byte* addr,
                                std::size_t bytes);
  std::optional<pami::MemoryRegion> resolve_local_region(const void* addr,
                                                         std::size_t bytes);
  pami::Endpoint service_endpoint(RankId target);
  /// Sends an active message to `target`'s service context under the
  /// context lock.
  void send_am(RankId target, pami::DispatchId dispatch, std::vector<std::byte> header,
               std::vector<std::byte> payload, pami::Callback on_local_done,
               const char* what, Time deadline = 0);

  // Write tracking.
  /// Called (from an engine event) when a remote ack for a tracked
  /// write lands at this rank's NIC.
  void write_acked_from_wire(const ConflictTracker::Key& key);
  /// Target side of a packed write or accumulate: sends the control
  /// ack that retires the writer's tracked write (AckClosure `cookie`).
  void ack_write(pami::Context& ctx, const pami::AmMessage& msg, void* cookie);
  pami::Callback make_ack(const ConflictTracker::Key& key);
  void maybe_fence_before_read(RankId target, std::uint64_t region_id);

  // Handles.
  static void attach(Handle& handle, int ops);
  static pami::Callback make_done(Handle& handle);

  // Strided protocol engines.
  enum class Dir { kPut, kGet };
  StridedProtocol choose_strided_protocol(const StridedSpec& spec,
                                          bool regions_available) const;
  void strided_zero_copy(Dir dir, std::byte* local,
                         const pami::MemoryRegion& local_mr, RemotePtr remote,
                         const pami::MemoryRegion& remote_mr,
                         const StridedSpec& spec, Handle& handle);
  void strided_typed(Dir dir, std::byte* local, const pami::MemoryRegion& local_mr,
                     RemotePtr remote, const pami::MemoryRegion& remote_mr,
                     const StridedSpec& spec, Handle& handle);
  void strided_packed(Dir dir, std::byte* local, RemotePtr remote,
                      const StridedSpec& spec, Handle& handle);
  /// Packed strided write (is_acc = 0) or accumulate (is_acc = 1): one
  /// AM carrying the spec and the payload in canonical chunk order.
  void send_strided_write(const std::byte* local, RemotePtr remote,
                          const StridedSpec& spec, double alpha, bool is_acc,
                          Handle& handle);
  /// Packed vector write or accumulate: one AM carrying the remote
  /// address list and the segments.
  void send_vector_write(RankId target, const VectorDescriptor& desc, double alpha,
                         bool is_acc, Handle& handle);

  /// Blocking rmw body: fence-before-read, the request, the wait and
  /// the deadline check (`what` names the op in the error).
  std::int64_t rmw(RemotePtr word, pami::RmwOp op, std::int64_t operand,
                   std::int64_t compare, const char* what);

  // AM dispatch handlers (registered on every context).
  void register_dispatch(pami::Context& ctx);
  void on_acc_message(pami::Context& ctx, const pami::AmMessage& msg);
  void on_region_query(pami::Context& ctx, const pami::AmMessage& msg);
  void on_region_reply(pami::Context& ctx, const pami::AmMessage& msg);
  void on_strided_put(pami::Context& ctx, const pami::AmMessage& msg);
  void on_strided_get_request(pami::Context& ctx, const pami::AmMessage& msg);
  void on_strided_get_reply(pami::Context& ctx, const pami::AmMessage& msg);
  void on_notify(pami::Context& ctx, const pami::AmMessage& msg);
  void on_vector_write(pami::Context& ctx, const pami::AmMessage& msg);
  void on_vector_get_request(pami::Context& ctx, const pami::AmMessage& msg);
  void on_vector_get_reply(pami::Context& ctx, const pami::AmMessage& msg);

  /// True when every segment (and its local counterpart) is covered by
  /// usable memory regions, filling `local_mrs`/`remote_mrs`.
  bool resolve_vector_regions(RankId target, const VectorDescriptor& desc,
                              std::vector<pami::MemoryRegion>* local_mrs,
                              std::vector<pami::MemoryRegion>* remote_mrs);

  /// Raises flow::DeadlineError for an op against `target` whose
  /// server-side work was shed; counts the client-side expiry.
  [[noreturn]] void throw_op_expired(const char* what, RankId target);

  World& world_;
  pami::Process& process_;
  ft::HealthMonitor* monitor_ = nullptr;
  /// Deadline stamped onto outgoing rmw / fall-back get requests.
  Time op_deadline_ = 0;
  /// Sticky marker set by a fall-back get's server-side shed
  /// notification; consumed by the blocking get wrapper. Safe because
  /// a rank has at most one blocking deadline-carrying get in flight.
  bool deadline_expired_ = false;
  std::uint64_t ft_acked_epoch_ = 0;
  bool ft_failed_ = false;
  int service_context_index_ = 0;
  bool async_running_ = false;
  std::uint64_t next_collective_seq_ = 0;
  Handle implicit_;

  std::unique_ptr<EndpointCache> endpoint_cache_;
  std::unique_ptr<RegionCache> region_cache_;
  std::unique_ptr<ConflictTracker> tracker_;
  CommStats stats_;

  struct LocalAllocation {
    std::unique_ptr<std::byte[]> memory;
    std::size_t bytes = 0;
    std::optional<pami::MemoryRegion> region;
  };
  std::vector<LocalAllocation> local_allocations_;
  /// Cumulative notifications received, by producer rank.
  std::vector<std::uint64_t> notifications_;
  std::shared_ptr<void> coll_slot_;
  std::shared_ptr<void> nbc_slot_;
  std::function<void()> barrier_hook_;
  std::shared_ptr<void> grp_slot_;
  std::function<void(const std::vector<int>&)> shrink_hook_;
  std::shared_ptr<void> async_slot_;
  std::function<void()> async_hook_;
  std::function<void()> async_check_;
  std::vector<std::shared_ptr<DeferredGet>> deferred_gets_;
  std::uint64_t coll_engine_seq_ = 0;
};

}  // namespace pgasq::armci
