// NbcEngine — incremental non-blocking collective schedules stepped
// from the progress loop. See nbc.hpp for the transport design.
#include "coll/nbc.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "fault/integrity.hpp"
#include "pami/machine.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace pgasq::coll {

namespace {

constexpr std::size_t kInitialArenaBytes = 64 * 1024;
constexpr int kMaxSlotRefetches = 16;

int ceil_log2(int p) {
  int rounds = 0;
  while ((1 << rounds) < p) ++rounds;
  return rounds;
}

}  // namespace

/// One open non-blocking collective: its slot block, its schedule's
/// program counter, and the promise its future hangs off. Every
/// message of the op carries the flag value (seq << 4) | kind, so a
/// receiver can prove a landed message belongs to the op it is
/// stepping.
struct NbcEngine::Op {
  enum Kind : int { kBarrier = 1, kBcast = 2, kAllreduce = 3 };

  Op(int k, fut::Scheduler& sched) : kind(k), promise(sched) {}

  int kind;
  std::uint64_t seq = 0;
  std::size_t base = 0;     ///< arena byte offset of slot 0
  std::size_t pitch = 0;    ///< slot stride (hdr + pad8(payload))
  std::size_t payload = 0;  ///< max payload bytes per slot
  fut::Promise<fut::Unit> promise;
  armci::Handle sends;  ///< aggregates every hop this op injected
  std::optional<pami::Process::Watch> watch;  ///< slot block, armed while open
  bool schedule_done = false;

  int phase = 0;      ///< algorithm sub-phase
  int round = 0;      ///< current exchange round
  bool sent = false;  ///< current round's send already issued
  int rounds = 0;

  // ibcast.
  std::byte* data = nullptr;
  std::size_t bytes = 0;
  int root = 0;

  // iallreduce (mirrors allreduce_recdbl's fold bookkeeping).
  double* x = nullptr;
  std::size_t n = 0;
  int vr = 0, pof2 = 1, rem = 0;

  std::uint64_t flag() const {
    return (seq << 4) | static_cast<std::uint64_t>(kind);
  }
  const char* name() const {
    switch (kind) {
      case kBarrier:
        return "ibarrier";
      case kBcast:
        return "ibcast";
      default:
        return "iallreduce";
    }
  }
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

NbcEngine& NbcEngine::of(armci::Comm& comm) {
  std::shared_ptr<void>& slot = comm.nbc_slot();
  if (!slot) slot = std::make_shared<NbcEngine>(comm);
  return *static_cast<NbcEngine*>(slot.get());
}

NbcEngine::NbcEngine(armci::Comm& comm)
    : comm_(comm),
      rt_(async::Runtime::of(comm)),
      p_(comm.nprocs()),
      me_(comm.rank()),
      salt_(comm.next_coll_engine_salt()) {
  pami::Machine& machine = comm.world().machine();
  if (machine.integrity() != nullptr &&
      machine.integrity()->config().coll_check) {
    integrity_ = machine.integrity();
    hdr_ = 32;
  }
  if ((trace_ = machine.engine().trace()) != nullptr) {
    track_ = trace_->register_track("coll-nbc/r" + std::to_string(me_),
                                    !machine.rank_traced(me_));
  }
  if ((timeline_ = machine.timeline()) != nullptr) {
    open_series_ =
        timeline_->series("async.nbc_open_ops", obs::Timeline::Kind::kGauge);
  }
  poller_id_ = rt_.register_poller([this] { step_all(); });
}

NbcEngine::~NbcEngine() {
  // Open ops at teardown stay counted as pending futures: the
  // runtime's finalize quiescence check turns them into a diagnostic
  // abort. Never throw from here.
  rt_.unregister_poller(poller_id_);
  for (auto& [ptr, cap] : keep_blocks_) comm_.free_local(ptr);
  keep_blocks_.clear();
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

void NbcEngine::ensure_arena(std::size_t need) {
  std::size_t cap = kInitialArenaBytes;
  while (cap < need) cap *= 2;
  // Collective and zero-filled: every rank allocates at its first nbc
  // initiation, which the collective-initiation contract aligns.
  arena_ = &comm_.malloc_collective(cap);
  cap_ = cap;
}

void NbcEngine::wrap(std::size_t need) {
  // Drive every open op home: each progress pass runs the poller,
  // and every rank reaches this same wrap before initiating the op
  // that overflowed the cursor.
  comm_.progress_until([this] { return open_.empty(); });
  // Fences first: every slot write is delivered before anyone wipes.
  comm_.barrier_hw();
  if (need > cap_) {
    comm_.free_collective(*arena_);
    std::size_t cap = cap_;
    while (cap < need) cap *= 2;
    arena_ = &comm_.malloc_collective(cap);  // fresh zero-filled slab
    cap_ = cap;
  } else {
    std::memset(arena_->local(me_), 0, cap_);
    comm_.barrier_hw();  // nobody injects the new cycle into a mid-wipe peer
  }
  keep_retire();  // no re-fetch can target a stage past the rendezvous
  cursor_ = 0;
}

void NbcEngine::open_slots(Op& op, std::size_t slots, std::size_t payload) {
  op.payload = payload;
  op.pitch = hdr_ + ((payload + 7) & ~std::size_t{7});
  const std::size_t need = op.pitch * slots;
  if (arena_ == nullptr) {
    ensure_arena(need);
  } else if (cursor_ + need > cap_) {
    wrap(need);
  }
  op.base = cursor_;
  cursor_ += need;
  op.watch.emplace(comm_.process(), arena_->local(me_) + op.base, need);
}

std::byte* NbcEngine::keep_alloc(std::size_t need) {
  need = (need + 7) & ~std::size_t{7};
  if (keep_blocks_.empty() || keep_blocks_.back().second - keep_used_ < need) {
    std::size_t cap =
        keep_blocks_.empty() ? std::size_t{16} * 1024 : keep_blocks_.back().second * 2;
    while (cap < need) cap *= 2;
    keep_blocks_.emplace_back(static_cast<std::byte*>(comm_.malloc_local(cap)),
                              cap);
    keep_used_ = 0;
  }
  std::byte* p = keep_blocks_.back().first + keep_used_;
  keep_used_ += need;
  return p;
}

void NbcEngine::keep_retire() {
  if (keep_blocks_.size() > 1) {
    std::size_t total = 0;
    for (const auto& [ptr, cap] : keep_blocks_) {
      total += cap;
      comm_.free_local(ptr);
    }
    keep_blocks_.clear();
    keep_blocks_.emplace_back(
        static_cast<std::byte*>(comm_.malloc_local(total)), total);
  }
  keep_used_ = 0;
}

// ---------------------------------------------------------------------------
// Hop transport
// ---------------------------------------------------------------------------

void NbcEngine::send_hop(Op& op, int to, std::size_t slot, const void* data,
                         std::size_t bytes) {
  PGASQ_CHECK(bytes <= op.payload);
  std::byte* stage = keep_alloc(hdr_ + bytes);
  if (bytes > 0) std::memcpy(stage + hdr_, data, bytes);
  const std::uint64_t flag = op.flag();
  std::memcpy(stage, &flag, 8);
  if (hdr_ != 8) {
    const std::uint32_t crc = crc32c(stage + hdr_, bytes);
    const std::uint32_t len = static_cast<std::uint32_t>(bytes);
    const std::int32_t src = me_;
    const std::int32_t pad = 0;
    const std::uint64_t addr = reinterpret_cast<std::uint64_t>(stage + hdr_);
    std::memcpy(stage + 8, &crc, 4);
    std::memcpy(stage + 12, &len, 4);
    std::memcpy(stage + 16, &src, 4);
    std::memcpy(stage + 20, &pad, 4);
    std::memcpy(stage + 24, &addr, 8);
  }
  if (trace_ != nullptr) {
    trace_->flow_point('s', track_, "nbc hop", hop_flow_id(to, op.seq, slot),
                       comm_.now(),
                       {{"bytes", std::to_string(bytes)},
                        {"to", "rank" + std::to_string(to)},
                        {"op", op.name()}});
  }
  // One put carries flag + payload, delivered atomically, so a raised
  // flag implies a complete payload. The op's handle aggregates every
  // hop; completion requires them locally drained.
  comm_.nb_put(stage, arena_->at(to, op.base + slot * op.pitch), hdr_ + bytes,
               op.sends);
  ++hops_sent_;
}

const std::byte* NbcEngine::hop_payload(Op& op, std::size_t slot,
                                        std::size_t bytes) {
  std::byte* base = arena_->local(me_) + op.base + slot * op.pitch;
  const volatile std::uint64_t* flag =
      reinterpret_cast<const volatile std::uint64_t*>(base);
  const std::uint64_t got = *flag;
  if (got == 0) return nullptr;  // not landed yet — step again later
  PGASQ_CHECK(got == op.flag(),
              << "nbc slot " << slot << " of " << op.name() << " #" << op.seq
              << " holds flag " << got << ", expected " << op.flag()
              << " — ranks initiated different non-blocking collective "
                 "sequences (divergence)");
  if (hdr_ != 8) {
    fault::IntegrityStats& is = integrity_->stats();
    ++is.coll_slot_checks;
    std::uint32_t want = 0, len = 0;
    std::int32_t src = -1;
    std::uint64_t addr = 0;
    std::memcpy(&want, base + 8, 4);
    std::memcpy(&len, base + 12, 4);
    std::memcpy(&src, base + 16, 4);
    std::memcpy(&addr, base + 24, 8);
    PGASQ_CHECK(len == bytes, << "nbc slot " << slot << " header claims "
                              << len << " bytes, expected " << bytes);
    int refetches = 0;
    while (crc32c(base + hdr_, bytes) != want) {
      ++is.coll_slot_rejects;
      PGASQ_CHECK(++refetches <= kMaxSlotRefetches,
                  << "nbc slot " << slot << " payload failed its CRC "
                  << refetches << " times (re-fetched from rank " << src
                  << "); giving up");
      ++is.coll_slot_refetches;
      if (trace_ != nullptr) {
        trace_->instant(track_, "nbc slot refetch", comm_.now());
      }
      // Blocking, but bounded and rare; the re-fetch rides the wire
      // too, so re-verify until clean.
      comm_.get({src, reinterpret_cast<std::byte*>(addr)}, base + hdr_, bytes);
    }
  }
  if (trace_ != nullptr) {
    trace_->flow_point('f', track_, "nbc hop recv",
                       hop_flow_id(me_, op.seq, slot), comm_.now(),
                       {{"bytes", std::to_string(bytes)}});
  }
  return base + hdr_;
}

// ---------------------------------------------------------------------------
// Initiation
// ---------------------------------------------------------------------------

fut::Future<fut::Unit> NbcEngine::start(std::unique_ptr<Op> op) {
  // An open op counts as a pending future: an abandoned one (rank
  // divergence, a dropped future) is caught by the runtime's finalize
  // quiescence check instead of hanging silently.
  rt_.note_pending(+1);
  if (trace_ != nullptr) {
    trace_->instant(track_, std::string(op->name()) + " start", comm_.now());
  }
  fut::Future<fut::Unit> f = op->promise.future();
  open_.push_back(std::move(op));
  sample_gauge();
  // Step immediately: the first rounds' send hops go out at
  // initiation, not at the next progress pass.
  step_all();
  return f;
}

fut::Future<fut::Unit> NbcEngine::ibarrier() {
  if (p_ == 1) return fut::make_ready(rt_, fut::Unit{});
  auto op = std::make_unique<Op>(Op::kBarrier, rt_);
  op->seq = ++seq_;
  op->rounds = ceil_log2(p_);
  open_slots(*op, static_cast<std::size_t>(op->rounds), 0);
  return start(std::move(op));
}

fut::Future<fut::Unit> NbcEngine::ibcast(void* data, std::size_t bytes,
                                         armci::RankId root) {
  PGASQ_CHECK(data != nullptr && bytes > 0 && root >= 0 && root < p_);
  if (p_ == 1) return fut::make_ready(rt_, fut::Unit{});
  auto op = std::make_unique<Op>(Op::kBcast, rt_);
  op->seq = ++seq_;
  op->data = static_cast<std::byte*>(data);
  op->bytes = bytes;
  op->root = static_cast<int>(root);
  open_slots(*op, 1, bytes);
  return start(std::move(op));
}

fut::Future<fut::Unit> NbcEngine::iallreduce_sum(double* x, std::size_t n) {
  PGASQ_CHECK(x != nullptr && n > 0);
  if (p_ == 1) return fut::make_ready(rt_, fut::Unit{});
  auto op = std::make_unique<Op>(Op::kAllreduce, rt_);
  op->seq = ++seq_;
  op->x = x;
  op->n = n;
  while (op->pof2 * 2 <= p_) op->pof2 *= 2;
  op->rem = p_ - op->pof2;
  op->rounds = ceil_log2(op->pof2);
  // Slots: 0 = pre-fold, 1+r = exchange rounds, 1 + rounds =
  // post-fold — the exact allreduce_recdbl layout.
  open_slots(*op, static_cast<std::size_t>(op->rounds) + 2, n * 8);
  return start(std::move(op));
}

// ---------------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------------

void NbcEngine::step_all() {
  if (stepping_) return;
  stepping_ = true;
  for (std::size_t i = 0; i < open_.size();) {
    if (step(*open_[i])) {
      std::unique_ptr<Op> done = std::move(open_[i]);
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      finish(*done);
    } else {
      ++i;
    }
  }
  stepping_ = false;
}

bool NbcEngine::step(Op& op) {
  if (!op.schedule_done) {
    switch (op.kind) {
      case Op::kBarrier:
        op.schedule_done = step_barrier(op);
        break;
      case Op::kBcast:
        op.schedule_done = step_bcast(op);
        break;
      default:
        op.schedule_done = step_allreduce(op);
        break;
    }
  }
  // Completion: the schedule consumed every receive AND every injected
  // hop drained locally. (Stages stay retained for re-fetch until the
  // next wrap regardless; the drain condition rate-limits initiation.)
  return op.schedule_done && (!op.sends.used() || op.sends.done());
}

bool NbcEngine::step_barrier(Op& op) {
  // Dissemination: round r sends a flag to (me + 2^r) and consumes one
  // from (me - 2^r); after ceil(log2 p) rounds everyone has
  // transitively heard from everyone.
  while (op.round < op.rounds) {
    const int gap = 1 << op.round;
    if (!op.sent) {
      send_hop(op, (me_ + gap) % p_, static_cast<std::size_t>(op.round),
               nullptr, 0);
      op.sent = true;
    }
    if (hop_payload(op, static_cast<std::size_t>(op.round), 0) == nullptr) {
      return false;
    }
    ++op.round;
    op.sent = false;
  }
  return true;
}

bool NbcEngine::step_bcast(Op& op) {
  // Binomial tree, bcast_binomial's schedule: each non-root receives
  // exactly once (its own slot 0), then fans out to its children.
  const int vr = (me_ - op.root + p_) % p_;
  if (op.phase == 0) {
    if (vr != 0) {
      const std::byte* in = hop_payload(op, 0, op.bytes);
      if (in == nullptr) return false;
      std::memcpy(op.data, in, op.bytes);
    }
    op.phase = 1;
  }
  // Children sit at the mask positions below my join bit (below p for
  // the root).
  int mask = 1;
  while (mask < p_ && (vr & mask) == 0) mask <<= 1;
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p_) {
      send_hop(op, (vr + mask + op.root) % p_, 0, op.data, op.bytes);
    }
    mask >>= 1;
  }
  return true;
}

bool NbcEngine::step_allreduce(Op& op) {
  // Mirrors allreduce_recdbl exactly (same fold, same partner order,
  // partners computing a+b and b+a) so the result is bitwise identical
  // to the blocking recursive-doubling allreduce.
  const std::size_t nb = op.n * 8;
  if (op.phase == 0) {  // MPICH pre-fold down to a power of two
    if (me_ < 2 * op.rem) {
      if (me_ % 2 == 1) {
        send_hop(op, me_ - 1, 0, op.x, nb);
        op.vr = -1;
        op.phase = 2;  // lent my contribution; straight to post-fold
        op.sent = false;
      } else {
        const std::byte* in = hop_payload(op, 0, nb);
        if (in == nullptr) return false;
        const auto* v = reinterpret_cast<const double*>(in);
        for (std::size_t i = 0; i < op.n; ++i) op.x[i] += v[i];
        op.vr = me_ / 2;
        op.phase = 1;
      }
    } else {
      op.vr = me_ - op.rem;
      op.phase = 1;
    }
  }
  if (op.phase == 1) {  // recursive-doubling exchange rounds
    while (op.round < op.rounds) {
      const int pvr = op.vr ^ (1 << op.round);
      const int partner = pvr < op.rem ? pvr * 2 : pvr + op.rem;
      const std::size_t slot = static_cast<std::size_t>(1 + op.round);
      if (!op.sent) {
        send_hop(op, partner, slot, op.x, nb);
        op.sent = true;
      }
      const std::byte* in = hop_payload(op, slot, nb);
      if (in == nullptr) return false;
      const auto* v = reinterpret_cast<const double*>(in);
      for (std::size_t i = 0; i < op.n; ++i) op.x[i] += v[i];
      ++op.round;
      op.sent = false;
    }
    op.phase = 2;
  }
  // Post-fold: evens hand the full result back to their odd partner.
  if (me_ < 2 * op.rem) {
    const std::size_t slot = static_cast<std::size_t>(1 + op.rounds);
    if (me_ % 2 == 0) {
      send_hop(op, me_ + 1, slot, op.x, nb);
    } else {
      const std::byte* in = hop_payload(op, slot, nb);
      if (in == nullptr) return false;
      std::memcpy(op.x, in, nb);
    }
  }
  return true;
}

void NbcEngine::finish(Op& op) {
  rt_.note_pending(-1);
  op.watch.reset();
  if (trace_ != nullptr) {
    trace_->instant(track_, std::string(op.name()) + " done", comm_.now());
  }
  sample_gauge();
  // Continuations do NOT run inline here: fulfill enqueues them on the
  // runtime's FIFO queue, drained after the poller pass, so chained
  // work observes a deterministic order.
  op.promise.fulfill(fut::Unit{});
}

void NbcEngine::sample_gauge() {
  if (timeline_ == nullptr) return;
  timeline_->sample(open_series_, comm_.now(),
                    static_cast<double>(open_.size()));
}

}  // namespace pgasq::coll
