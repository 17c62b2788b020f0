// Asynchronous completion runtime (the futures subsystem's engine).
//
// One Runtime attaches to each rank's Comm (async_slot), bridging the
// ARMCI nonblocking machinery to fut::Future: every Handle can be
// converted to a future (future_of), communication ops can be issued
// with an explicit completion variant (UPC++ completion.hpp shape),
// and continuations enqueued by fulfilled promises are drained FIFO
// from the progress engine — on the application fiber, in virtual-time
// order, never inline at fulfillment and never on the async progress
// thread. Zero-cost when unattached: Comm carries one null hook.
//
// See docs/async.md for the programming model and determinism rules.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "async/future.hpp"
#include "core/comm.hpp"
#include "core/types.hpp"
#include "obs/timeline.hpp"

namespace pgasq::async {

/// Completion variant of a communication op (UPC++ completion.hpp):
/// - kSource: the local source buffer is reusable (puts/accs snapshot
///   the source at injection, so this is satisfied at initiation);
/// - kOperation: the op is locally complete (handle semantics; for
///   gets the data has landed, which also makes it remote completion);
/// - kRemote: the target's acknowledgement arrived — the write is
///   visible at the target.
enum class Cx { kSource, kOperation, kRemote };

/// A revocable (deferred-injection) get issued through the runtime.
/// The op is queued locally and injected on the next progress pass;
/// revoke() before injection cancels it outright — no wire leg is ever
/// generated. After injection the op proceeds (the simulator resolves
/// all wire legs at injection) and revoke() only abandons it: the
/// future still fulfills when the data lands.
struct RevocableGet {
  armci::Handle handle;
  fut::Future<fut::Unit> future;
  std::shared_ptr<armci::DeferredGet> op;

  bool valid() const { return op != nullptr; }
};

class Runtime final : public fut::Scheduler {
 public:
  /// The runtime attached to `comm`, created (and hooked into the
  /// progress engine) on first use.
  static Runtime& of(armci::Comm& comm);
  /// The attached runtime, or nullptr — never creates.
  static Runtime* maybe_of(armci::Comm& comm);

  explicit Runtime(armci::Comm& comm);
  ~Runtime() override;

  // --- fut::Scheduler ------------------------------------------------------
  void enqueue(std::function<void()> k) override;
  void note_pending(int delta) override;

  // --- Future bridge -------------------------------------------------------

  /// Future that fulfills when every op currently attached to `h`
  /// completes (ready immediately for an idle handle). The handle
  /// stays usable as before — it is now a thin view over the same
  /// completion state.
  fut::Future<fut::Unit> future_of(armci::Handle& h);

  // --- Communication ops with completion variants --------------------------
  // The source buffer is snapshotted at injection for puts and accs,
  // so Cx::kSource futures are ready at return. Continuation capture
  // rules (long-lived comm buffers, DESIGN.md §5) apply to every
  // buffer a chained op reads or writes.

  fut::Future<fut::Unit> put(const void* src, armci::RemotePtr dst,
                             std::size_t bytes, Cx cx = Cx::kOperation);
  fut::Future<fut::Unit> get(armci::RemotePtr src, void* dst, std::size_t bytes);
  fut::Future<fut::Unit> acc(double alpha, const double* src, armci::RemotePtr dst,
                             std::size_t count, Cx cx = Cx::kOperation);

  /// Deferred-injection get that can be cancelled before its wire leg
  /// (see RevocableGet; the kvs hedge uses this to revoke stragglers).
  RevocableGet get_revocable(armci::RemotePtr src, void* dst, std::size_t bytes);
  /// True when the op was revoked before injection (fully cancelled:
  /// no traffic, no byte counted; handle and future complete "empty").
  /// False when the op was already injected — it is then abandoned:
  /// left to finish normally, runtime counters track it.
  bool revoke(RevocableGet& g);

  // --- Aggregation ----------------------------------------------------------
  // Futures aggregate with fut::when_all / fut::when_any; handle sets
  // route through Comm::wait_some / Comm::test_all.

  fut::Future<std::vector<fut::Unit>> when_all(std::vector<armci::Handle*> hs);
  fut::Future<std::size_t> when_any(std::vector<armci::Handle*> hs);

  /// Blocks (driving progress, draining continuations) until `f` is
  /// ready and returns its value.
  template <typename T>
  const T& wait(const fut::Future<T>& f) {
    comm_.progress_until([&f] { return f.ready(); });
    return f.value();
  }

  // --- Progress -------------------------------------------------------------

  /// One pass of the runtime: step registered pollers (non-blocking
  /// collectives), then drain the continuation queue FIFO. Invoked by
  /// Comm's progress paths via the async hook; reentrant calls (a
  /// continuation blocking on a future) step pollers but skip the
  /// queue — the outer frame owns it.
  void drain();

  /// Registers a per-progress-pass poller (the nbc engine's stepper);
  /// returns an id for unregister.
  std::size_t register_poller(std::function<void()> fn);
  void unregister_poller(std::size_t id);

  /// Finalize-time quiescence check: aborts when continuations were
  /// abandoned (registered on futures that never fulfilled, or
  /// enqueued but never drained) — chained work silently dropped is a
  /// program error, not a benign leak.
  void check_quiesced() const;

  // --- Introspection --------------------------------------------------------

  std::size_t queue_depth() const { return queue_.size(); }
  std::uint64_t gets_revoked() const { return gets_revoked_; }
  std::uint64_t gets_abandoned() const { return gets_abandoned_; }
  armci::Comm& comm() { return comm_; }

 private:
  void sample_gauges();

  armci::Comm& comm_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::pair<std::size_t, std::function<void()>>> pollers_;
  std::size_t next_poller_id_ = 1;
  std::size_t pending_ = 0;  ///< continuations awaiting a value
  bool draining_ = false;
  std::uint64_t gets_revoked_ = 0;
  std::uint64_t gets_abandoned_ = 0;
  // Timeline series (kNone when obs.timeline is off).
  obs::Timeline* timeline_ = nullptr;
  obs::Timeline::SeriesId pending_series_ = obs::Timeline::kNone;
  obs::Timeline::SeriesId queue_series_ = obs::Timeline::kNone;
};

}  // namespace pgasq::async
