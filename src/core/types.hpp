// Public vocabulary types of the ARMCI-style runtime (the paper's
// contribution, S III).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/fields.hpp"
#include "pami/types.hpp"
#include "util/stats.hpp"
#include "util/time_types.hpp"

namespace pgasq::armci {

using RankId = pami::RankId;

/// Address in another rank's (simulated) address space.
struct RemotePtr {
  RankId rank = -1;
  std::byte* addr = nullptr;

  RemotePtr offset(std::ptrdiff_t delta) const { return {rank, addr + delta}; }
  bool valid() const { return rank >= 0 && addr != nullptr; }
};

/// Progress engine configuration (S III-D): kDefault services remote
/// requests only when the main thread enters the runtime; kAsyncThread
/// dedicates a simulated SMT thread to progress.
enum class ProgressMode { kDefault, kAsyncThread };

/// Conflicting-memory-access tracking granularity (S III-E): kPerTarget
/// is the naive one-status-per-process scheme (false positives);
/// kPerRegion keeps an 8-bit status per distributed structure per
/// target, Theta(sigma * zeta) space.
enum class ConsistencyMode { kPerTarget, kPerRegion };

/// Replacement policy for the remote-region cache. The paper uses
/// least-frequently-used; LRU exists for the ablation showing why
/// (hot global structures survive cold scans under LFU).
enum class CacheReplacement { kLfu, kLru };

/// Strided (uniformly non-contiguous) protocol selection (S III-C2).
enum class StridedProtocol {
  kAuto,        ///< zero-copy, switching to typed for tall-skinny shapes
  kZeroCopy,    ///< one RDMA per contiguous chunk
  kTyped,       ///< single PAMI typed-datatype operation
  kPackUnpack,  ///< legacy pack at source / unpack at target baseline
};

struct Options {
  ProgressMode progress = ProgressMode::kDefault;
  /// Communication contexts per rank (rho). With kAsyncThread and
  /// rho=2 each thread advances its own context; with rho=1 both
  /// threads contend on the single context's lock (S III-D).
  int contexts_per_rank = 1;
  ConsistencyMode consistency = ConsistencyMode::kPerRegion;
  StridedProtocol strided = StridedProtocol::kAuto;
  /// kAuto switches to the typed path when the contiguous chunk is
  /// smaller than this and the transfer has many chunks (tall-skinny).
  std::uint64_t tall_skinny_chunk_bytes = 512;
  std::size_t tall_skinny_min_chunks = 8;
  /// Remote memory-region cache capacity (entries).
  std::size_t region_cache_capacity = 1024;
  /// Cache replacement policy; the paper uses LFU (S III-B).
  CacheReplacement region_cache_policy = CacheReplacement::kLfu;
  /// Cache endpoints for the communication clique (zeta) instead of
  /// re-creating one per operation.
  bool cache_endpoints = true;
  /// Raw key/value configuration for the collectives subsystem
  /// (src/coll), the "coll." CLI keys with the prefix stripped —
  /// e.g. {"algo.allreduce", "torus-ring"} or {"hw", "0"}. Core
  /// carries them opaquely; coll::CollConfig::from_options parses.
  std::vector<std::pair<std::string, std::string>> coll;
};

/// Completion state shared between a Handle and in-flight callbacks.
struct HandleState {
  int outstanding = 0;
  bool used = false;
  /// Completion bridge installed by the async runtime (src/async):
  /// fired exactly once, when `outstanding` next returns to zero.
  /// Null for plain handles — the zero-cost default.
  std::function<void()> on_zero;
};

/// Retires one completed operation from `s` and fires the completion
/// bridge when the count reaches zero. Every completion path — the
/// make_done callbacks and the AM reply handlers that decrement the
/// shared state directly — must funnel through here, or futures built
/// over the handle would never fulfill.
void handle_complete_one(HandleState& s);

/// Non-blocking request handle (explicit-handle ARMCI semantics). A
/// default-constructed handle can be passed to any nb_* call and then
/// waited on; one handle may aggregate several operations.
class Handle {
 public:
  Handle() : state_(std::make_shared<HandleState>()) {}

  /// All operations attached to this handle have completed.
  bool done() const { return state_->outstanding == 0; }
  /// At least one operation was attached.
  bool used() const { return state_->used; }

  const std::shared_ptr<HandleState>& state() const { return state_; }

 private:
  std::shared_ptr<HandleState> state_;
};

/// A get queued for deferred injection (Comm::nb_get_deferred): the
/// wire leg is generated at the next progress pass, so a revoke that
/// arrives first cancels the operation outright. The async runtime
/// (src/async) wraps this as its cancellable-get primitive.
struct DeferredGet {
  RemotePtr src;
  void* dst = nullptr;
  std::size_t bytes = 0;
  Handle handle;
  bool injected = false;
  bool revoked = false;
};

/// Collective-operation statistics, written by the collectives
/// subsystem (src/coll) and folded into the communication report.
/// Indexed [op][algo]; the name tables below give the meaning of each
/// index. Core only carries and renders these — the engine that fills
/// them lives above this layer.
struct CollStats {
  static constexpr int kOps = 6;    ///< barrier..alltoall, see kCollOpNames
  static constexpr int kAlgos = 6;  ///< binomial..rab, see kCollAlgoNames

  std::uint64_t count[kOps][kAlgos] = {};
  /// Payload bytes handed to the collective (not wire bytes).
  std::uint64_t bytes[kOps][kAlgos] = {};
  /// Virtual time the rank spent inside the collective.
  Time time[kOps][kAlgos] = {};
  /// Times the engine's persistent scratch heap had to grow.
  std::uint64_t scratch_reallocs = 0;

  std::uint64_t total_ops() const;
  /// Time in data-moving collectives only (total minus the barrier
  /// row, whose cost is mostly arrival wait, i.e. load imbalance).
  Time data_time() const;
  void merge(const CollStats& o);
};

inline constexpr const char* kCollOpNames[CollStats::kOps] = {
    "barrier", "broadcast", "reduce", "allreduce", "allgather", "alltoall"};
inline constexpr const char* kCollAlgoNames[CollStats::kAlgos] = {
    "binomial", "recdbl", "torus-ring", "hw", "hier", "rab"};

/// Per-rank operation statistics; the benchmark harness aggregates
/// these into the paper's tables.
struct CommStats {
  // Operation counts.
  std::uint64_t puts = 0, gets = 0, accs = 0, rmws = 0;
  std::uint64_t strided_puts = 0, strided_gets = 0, strided_accs = 0;
  // Protocol routing.
  std::uint64_t rdma_puts = 0, rdma_gets = 0;
  std::uint64_t fallback_puts = 0, fallback_gets = 0;
  std::uint64_t typed_ops = 0, zero_copy_chunks = 0, packed_ops = 0;
  // Bytes.
  std::uint64_t bytes_put = 0, bytes_got = 0, bytes_acc = 0;
  // Deferred gets cancelled before their wire leg (src/async revoke).
  std::uint64_t gets_revoked = 0;
  // Region cache.
  std::uint64_t region_cache_hits = 0, region_cache_misses = 0;
  std::uint64_t region_queries_sent = 0;
  // Consistency.
  std::uint64_t fence_calls = 0, forced_fences = 0;
  // Endpoints.
  std::uint64_t endpoints_created = 0;
  // Fault recovery (all zero unless a fault plan is active): wire legs
  // re-sent after ack timeout, virtual time spent waiting out those
  // timeouts, and async-progress stalls ridden out by this rank.
  std::uint64_t retransmits = 0;
  Time retransmit_backoff = 0;
  std::uint64_t progress_stalls = 0;
  Time progress_stall_time = 0;
  // Blocking time by category (virtual time).
  Time time_in_get = 0, time_in_put = 0, time_in_acc = 0;
  Time time_in_rmw = 0, time_in_fence = 0, time_in_barrier = 0, time_in_wait = 0;
  // Collective-engine counters (all zero until src/coll is used).
  CollStats coll;
  // Per-group collective counters, keyed by group label (empty until a
  // process group — src/grp, or a hierarchical schedule's internal
  // node/leader groups — runs a collective). Kept separate from `coll`
  // so the world engine's table stays comparable across runs.
  std::map<std::string, CollStats> group_coll;
  // Message-size distributions (log2 buckets) — the "large percentile
  // of message size used in real applications" evidence of S IV-A.
  Log2Histogram put_sizes, get_sizes, acc_sizes;

  void merge(const CommStats& o);
};

/// CommStats' metrics. Labelled counts fill the report's synchronization
/// table, labelled times its blocked-in table.
inline constexpr obs::Field<CommStats> kCommStatsFields[] = {
    {"armci.puts", obs::kCount, &CommStats::puts},
    {"armci.gets", obs::kCount, &CommStats::gets},
    {"armci.accs", obs::kCount, &CommStats::accs},
    {"armci.rmws", obs::kCount, &CommStats::rmws},
    {"armci.strided_puts", obs::kCount, &CommStats::strided_puts},
    {"armci.strided_gets", obs::kCount, &CommStats::strided_gets},
    {"armci.strided_accs", obs::kCount, &CommStats::strided_accs},
    {"armci.rdma_puts", obs::kCount, &CommStats::rdma_puts},
    {"armci.rdma_gets", obs::kCount, &CommStats::rdma_gets},
    {"armci.fallback_puts", obs::kCount, &CommStats::fallback_puts},
    {"armci.fallback_gets", obs::kCount, &CommStats::fallback_gets},
    {"armci.typed_ops", obs::kCount, &CommStats::typed_ops},
    {"armci.zero_copy_chunks", obs::kCount, &CommStats::zero_copy_chunks},
    {"armci.packed_ops", obs::kCount, &CommStats::packed_ops},
    {"armci.bytes_put", obs::kBytes, &CommStats::bytes_put},
    {"armci.bytes_got", obs::kBytes, &CommStats::bytes_got},
    {"armci.bytes_acc", obs::kBytes, &CommStats::bytes_acc},
    {"armci.gets_revoked", obs::kCount, &CommStats::gets_revoked},
    {"armci.region_cache_hits", obs::kCount, &CommStats::region_cache_hits},
    {"armci.region_cache_misses", obs::kCount, &CommStats::region_cache_misses},
    {"armci.region_queries_sent", obs::kCount, &CommStats::region_queries_sent,
     "region queries sent"},
    {"armci.fence_calls", obs::kCount, &CommStats::fence_calls, "fence calls"},
    {"armci.forced_fences", obs::kCount, &CommStats::forced_fences,
     "forced fences (conflicts)"},
    {"armci.endpoints_created", obs::kCount, &CommStats::endpoints_created,
     "endpoints created"},
    {"armci.retransmits", obs::kCount, &CommStats::retransmits},
    {"armci.retransmit_backoff_us", obs::kTime, &CommStats::retransmit_backoff},
    {"armci.progress_stalls", obs::kCount, &CommStats::progress_stalls},
    {"armci.progress_stall_us", obs::kTime, &CommStats::progress_stall_time},
    {"armci.time_in_get_us", obs::kTime, &CommStats::time_in_get, "get"},
    {"armci.time_in_put_us", obs::kTime, &CommStats::time_in_put, "put"},
    {"armci.time_in_acc_us", obs::kTime, &CommStats::time_in_acc, "accumulate"},
    {"armci.time_in_rmw_us", obs::kTime, &CommStats::time_in_rmw,
     "rmw (counters)"},
    {"armci.time_in_fence_us", obs::kTime, &CommStats::time_in_fence, "fence"},
    {"armci.time_in_barrier_us", obs::kTime, &CommStats::time_in_barrier,
     "barrier"},
    {"armci.time_in_wait_us", obs::kTime, &CommStats::time_in_wait,
     "wait (nb handles)"},
    {"armci.put_sizes", obs::kHistogram, &CommStats::put_sizes},
    {"armci.get_sizes", obs::kHistogram, &CommStats::get_sizes},
    {"armci.acc_sizes", obs::kHistogram, &CommStats::acc_sizes},
};

}  // namespace pgasq::armci
