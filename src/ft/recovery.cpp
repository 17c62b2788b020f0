#include "ft/recovery.hpp"

#include <algorithm>
#include <cstring>

#include "coll/coll.hpp"
#include "fault/integrity.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace pgasq::ft {

RuntimeConfig RuntimeConfig::from_config(const Config& cfg) {
  RuntimeConfig c;
  parse_knobs(cfg, "ft", kFtKnobs, c);
  PGASQ_CHECK(c.heartbeat_timeout >= c.heartbeat_period,
              << "ft.heartbeat_timeout_us must be >= ft.heartbeat_period_us");
  return c;
}

std::size_t ArrayShard::max_shard_bytes(int q) const {
  const ga::Distribution2D dist(q, rows_, cols_);
  std::size_t best = 0;
  for (int gr = 0; gr < dist.grid_rows(); ++gr) {
    const auto [rlo, rhi] = dist.row_range(gr);
    for (int gc = 0; gc < dist.grid_cols(); ++gc) {
      const auto [clo, chi] = dist.col_range(gc);
      const std::size_t bytes = static_cast<std::size_t>(rhi - rlo) *
                                static_cast<std::size_t>(chi - clo) *
                                sizeof(double);
      best = std::max(best, bytes);
    }
  }
  return best;
}

std::size_t ArrayShard::shard_bytes(int q, int v) const {
  const ga::Distribution2D dist(q, rows_, cols_);
  const int gr = v / dist.grid_cols();
  const int gc = v % dist.grid_cols();
  const auto [rlo, rhi] = dist.row_range(gr);
  const auto [clo, chi] = dist.col_range(gc);
  return static_cast<std::size_t>(rhi - rlo) *
         static_cast<std::size_t>(chi - clo) * sizeof(double);
}

void ArrayShard::save_shard(std::byte* out) {
  const auto [rlo, rhi] = array_->local_rows();
  const auto [clo, chi] = array_->local_cols();
  const std::size_t bytes = static_cast<std::size_t>(rhi - rlo) *
                            static_cast<std::size_t>(chi - clo) *
                            sizeof(double);
  std::memcpy(out, array_->local_data(), bytes);
}

void ArrayShard::restore_shard(int q_old, int v, const std::byte* data,
                               std::size_t bytes) {
  const ga::Distribution2D dist(q_old, rows_, cols_);
  const int gr = v / dist.grid_cols();
  const int gc = v % dist.grid_cols();
  const auto [rlo, rhi] = dist.row_range(gr);
  const auto [clo, chi] = dist.col_range(gc);
  PGASQ_CHECK(bytes == static_cast<std::size_t>(rhi - rlo) *
                           static_cast<std::size_t>(chi - clo) *
                           sizeof(double));
  array_->put(rlo, rhi, clo, chi, reinterpret_cast<const double*>(data),
              chi - clo);
}

Runtime::Runtime(armci::Comm& comm, RuntimeConfig config,
                 std::initializer_list<Shardable*> objects)
    : comm_(comm),
      config_(config),
      monitor_(comm.ft_monitor()),
      objects_(objects.begin(), objects.end()) {
  init_arena();
}

Runtime::Runtime(armci::Comm& comm, RuntimeConfig config,
                 const std::vector<ga::GlobalArray*>& arrays)
    : comm_(comm), config_(config), monitor_(comm.ft_monitor()) {
  for (ga::GlobalArray* a : arrays) {
    owned_adapters_.push_back(
        std::make_unique<ArrayShard>(a->rows(), a->cols(), a));
    objects_.push_back(owned_adapters_.back().get());
  }
  init_arena();
}

void Runtime::init_arena() {
  members_.resize(static_cast<std::size_t>(comm_.nprocs()));
  for (int r = 0; r < comm_.nprocs(); ++r) {
    members_[static_cast<std::size_t>(r)] = r;
  }
  if (monitor_ == nullptr) return;  // inert: fault-free path untouched

  // Size each per-object shard slot for the worst membership the fault
  // plan can leave behind: losing a node takes all its ranks, so the
  // smallest possible survivor clique is p - deaths * ranks_per_node.
  const int p = comm_.nprocs();
  const int worst_loss = static_cast<int>(monitor_->scheduled_deaths()) *
                         monitor_->mapping().ranks_per_node();
  const int q_min = std::max(1, p - worst_loss);
  for (const Shardable* obj : objects_) {
    std::size_t best = 0;
    for (int q = q_min; q <= p; ++q) {
      best = std::max(best, obj->max_shard_bytes(q));
    }
    max_shard_.push_back(best);
  }
  std::size_t area = 0;
  for (const std::size_t s : max_shard_) area += s;
  fault::Integrity* ig = comm_.world().machine().integrity();
  if (ig != nullptr && ig->config().ckpt_digest) {
    integrity_ = ig;
    own_digest_[0].assign(max_shard_.size(), 0);
    own_digest_[1].assign(max_shard_.size(), 0);
  }
  // One collective allocation while every world rank is still alive;
  // the double-buffered own/incoming areas are carved out of it (plus,
  // under checkpoint digests, one 8-byte word per incoming shard for
  // the buddy-shipped digest). With no objects to protect (barrier-only
  // workloads) there is no arena.
  if (area != 0) {
    std::size_t total = 4 * area;
    if (integrity_ != nullptr) total += 2 * max_shard_.size() * 8;
    arena_ = &comm_.malloc_collective(total);
  }
}

int Runtime::vrank() const {
  const int me = comm_.rank();
  for (std::size_t v = 0; v < members_.size(); ++v) {
    if (members_[v] == me) return static_cast<int>(v);
  }
  return 0;
}

void Runtime::rebind_arrays(const std::vector<ga::GlobalArray*>& arrays) {
  PGASQ_CHECK(arrays.size() == owned_adapters_.size(),
              << "array-form call on a Runtime built over "
              << owned_adapters_.size() << " arrays");
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    owned_adapters_[i]->rebind(arrays[i]);
  }
}

std::size_t Runtime::own_offset(std::size_t object, int buf) const {
  std::size_t area = 0, pre = 0;
  for (std::size_t i = 0; i < max_shard_.size(); ++i) {
    if (i < object) pre += max_shard_[i];
    area += max_shard_[i];
  }
  return static_cast<std::size_t>(buf) * area + pre;
}

std::size_t Runtime::in_offset(std::size_t object, int buf) const {
  std::size_t area = 0;
  for (const std::size_t s : max_shard_) area += s;
  return 2 * area + own_offset(object, buf);
}

std::size_t Runtime::digest_offset(std::size_t object, int buf) const {
  std::size_t area = 0;
  for (const std::size_t s : max_shard_) area += s;
  return 4 * area +
         (static_cast<std::size_t>(buf) * max_shard_.size() + object) * 8;
}

int Runtime::shard_copy_label() const {
  if (arena_ == nullptr) return 0;
  const int b = committed_[1] > committed_[0] ? 1 : 0;
  if (committed_[b] == 0 || ckpt_members_[b] != members_) return 0;
  return committed_[b];
}

armci::RemotePtr Runtime::shard_copy(std::size_t object,
                                     armci::RankId home) const {
  if (shard_copy_label() == 0 || object >= max_shard_.size()) return {};
  const int b = committed_[1] > committed_[0] ? 1 : 0;
  for (std::size_t v = 0; v < members_.size(); ++v) {
    if (members_[v] != home) continue;
    const armci::RankId buddy = members_[(v + 1) % members_.size()];
    if (buddy == home) return {};  // self-buddy: no second node to race
    return arena_->at(buddy, in_offset(object, b));
  }
  return {};
}

void Runtime::poison_for_test(int buf, std::size_t object) {
  PGASQ_CHECK(arena_ != nullptr && object < max_shard_.size());
  arena_->local(comm_.rank())[own_offset(object, buf)] ^= std::byte{0xff};
}

bool Runtime::should_checkpoint(int iter) const {
  return enabled() && config_.checkpoint_interval > 0 && iter > 0 &&
         iter % config_.checkpoint_interval == 0;
}

void Runtime::checkpoint(int iter, const std::vector<ga::GlobalArray*>& arrays) {
  rebind_arrays(arrays);
  checkpoint(iter);
}

void Runtime::checkpoint(int iter) {
  if (!should_checkpoint(iter)) return;
  const int b = (iter / config_.checkpoint_interval) % 2;

  // Invalidate-before-write: a death between the two barriers leaves
  // this buffer uncommitted on EVERY survivor, so agreement falls back
  // to the other buffer (or to a cold restart).
  committed_[b] = 0;
  comm_.barrier();

  const armci::RankId me = comm_.rank();
  const int q = static_cast<int>(members_.size());
  const int v = vrank();
  const armci::RankId buddy =
      members_[(static_cast<std::size_t>(v) + 1) % members_.size()];
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    const std::size_t bytes = objects_[i]->shard_bytes(q, v);
    if (bytes == 0) continue;
    PGASQ_CHECK(bytes <= max_shard_[i]);
    std::byte* own = arena_->local(me) + own_offset(i, b);
    objects_[i]->save_shard(own);
    if (integrity_ != nullptr) {
      // Self-checking checkpoint: digest the shard once and keep it
      // with each copy — locally for my own shard, shipped as its own
      // (flip-proof) 8-byte word alongside the buddy copy.
      const std::uint32_t d = crc32c(own, bytes);
      own_digest_[b][i] = d;
      ++integrity_->stats().ckpt_digests_computed;
      comm_.compute(integrity_->crc_cost(bytes));
      std::uint64_t word = d;
      if (buddy == me) {
        std::memcpy(arena_->local(me) + digest_offset(i, b), &word, 8);
      } else {
        comm_.put(reinterpret_cast<const std::byte*>(&word),
                  arena_->at(buddy, digest_offset(i, b)), 8);
      }
    }
    if (buddy == me) {
      std::memcpy(arena_->local(me) + in_offset(i, b), own, bytes);
    } else {
      comm_.put(own, arena_->at(buddy, in_offset(i, b)), bytes);
      monitor_->stats().checkpoint_bytes += bytes;
    }
  }
  comm_.fence_all();
  comm_.barrier();

  committed_[b] = iter;
  ckpt_members_[b] = members_;
  if (me == members_.front()) {
    ++monitor_->stats().checkpoints;
    monitor_->injector().trace_mark("checkpoint commit", comm_.now());
  }
}

bool Runtime::buffer_valid(int buf) const {
  if (committed_[buf] == 0) return false;
  const std::vector<int>& old = ckpt_members_[buf];
  for (std::size_t ov = 0; ov < old.size(); ++ov) {
    const int owner = old[ov];
    const int buddy = old[(ov + 1) % old.size()];
    if (monitor_->rank_declared_dead(owner) &&
        monitor_->rank_declared_dead(buddy)) {
      return false;  // this shard died with both of its holders
    }
  }
  return true;
}

bool Runtime::validate_buffer(int buf) {
  // Mirror restore()'s holder/offset choice exactly: validate the
  // shards this survivor would actually push into the rebuilt objects.
  double ok = 1.0;
  const std::vector<int>& old = ckpt_members_[buf];
  const armci::RankId me = comm_.rank();
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    for (std::size_t ov = 0; ov < old.size(); ++ov) {
      const int owner = old[ov];
      const int buddy = old[(ov + 1) % old.size()];
      armci::RankId holder;
      std::size_t offset;
      bool own_copy;
      if (!monitor_->rank_declared_dead(owner)) {
        holder = owner;
        offset = own_offset(i, buf);
        own_copy = true;
      } else {
        holder = buddy;
        offset = in_offset(i, buf);
        own_copy = false;
      }
      if (holder != me) continue;
      const std::size_t bytes = objects_[i]->shard_bytes(
          static_cast<int>(old.size()), static_cast<int>(ov));
      if (bytes == 0) continue;
      std::uint32_t want;
      if (own_copy) {
        want = own_digest_[buf][i];
      } else {
        std::uint64_t word = 0;
        std::memcpy(&word, arena_->local(me) + digest_offset(i, buf), 8);
        want = static_cast<std::uint32_t>(word);
      }
      ++integrity_->stats().ckpt_digests_validated;
      comm_.compute(integrity_->crc_cost(bytes));
      if (crc32c(arena_->local(me) + offset, bytes) != want) {
        ++integrity_->stats().ckpt_digest_mismatches;
        ok = 0.0;
      }
    }
  }
  // Survivors agree before anyone rolls back: the sum equals the
  // member count iff every held shard verified everywhere. The 8-byte
  // payload sits inside the wire-protected prefix, so the agreement
  // itself cannot be corrupted.
  coll::CollEngine::of(comm_).allreduce_sum(&ok, 1);
  return ok == static_cast<double>(members_.size());
}

bool Runtime::recover() {
  if (monitor_ == nullptr) return true;
  const Time t0 = comm_.now();
  if (monitor_->rank_declared_dead(comm_.rank())) {
    comm_.ft_mark_failed();
    return false;
  }

  comm_.ft_accept_epoch();
  comm_.ft_quiesce();
  // The abort can interrupt survivors at different points of the
  // collective-allocation sequence; re-align before the engine rebuild
  // and the objects allocate anything.
  comm_.ft_align_collectives();
  members_ = monitor_->live_ranks();
  coll::CollEngine::rebuild_shrunk(comm_, members_);
  // First survivor rendezvous on the shrunk clique. A further death
  // here throws PeerDeadError again; the caller re-enters recover().
  comm_.barrier();

  // Agreement needs no messages: commit metadata is written in
  // lockstep between barriers, so every survivor holds identical
  // committed_/ckpt_members_ and picks the same buffer. Candidates go
  // newest-first; with checkpoint digests on, a candidate whose
  // surviving shards fail validation is discarded — the older buffer
  // is the fallback, and if every committed buffer fails the run
  // aborts loudly rather than roll back to garbage.
  agreed_buf_ = -1;
  restart_iter_ = 0;
  int order[2] = {0, 1};
  if (committed_[1] > committed_[0]) {
    order[0] = 1;
    order[1] = 0;
  }
  int rejected = 0;
  for (const int b : order) {
    if (!buffer_valid(b)) continue;
    if (integrity_ != nullptr && !validate_buffer(b)) {
      ++rejected;
      continue;
    }
    agreed_buf_ = b;
    restart_iter_ = committed_[b];
    break;
  }
  if (rejected > 0) {
    if (agreed_buf_ < 0) {
      throw IntegrityError(
          "checkpoint restore", -1, -1, 0,
          "integrity: every committed checkpoint buffer failed digest "
          "validation on the survivor clique — no verified state to roll "
          "back to");
    }
    if (comm_.rank() == members_.front()) {
      ++integrity_->stats().ckpt_fallback_restores;
    }
  }

  if (comm_.rank() == members_.front()) {
    FtStats& s = monitor_->stats();
    ++s.rollbacks;
    s.rollback_ranks += members_.size();
    s.recovery_time += comm_.now() - t0;
    monitor_->injector().trace_mark("rollback complete", comm_.now());
  }
  return true;
}

void Runtime::restore(const std::vector<ga::GlobalArray*>& arrays) {
  rebind_arrays(arrays);
  restore();
}

void Runtime::restore() {
  if (monitor_ == nullptr || agreed_buf_ < 0 || restart_iter_ == 0) return;
  const int b = agreed_buf_;
  const std::vector<int>& old = ckpt_members_[b];
  const armci::RankId me = comm_.rank();

  for (std::size_t i = 0; i < objects_.size(); ++i) {
    for (std::size_t ov = 0; ov < old.size(); ++ov) {
      const int owner = old[ov];
      const int buddy = old[(ov + 1) % old.size()];
      // Prefer the owner's pristine copy; fall back to the buddy's.
      armci::RankId holder;
      std::size_t offset;
      if (!monitor_->rank_declared_dead(owner)) {
        holder = owner;
        offset = own_offset(i, b);
      } else {
        PGASQ_CHECK(!monitor_->rank_declared_dead(buddy));
        holder = buddy;
        offset = in_offset(i, b);
      }
      if (holder != me) continue;
      const std::size_t bytes = objects_[i]->shard_bytes(
          static_cast<int>(old.size()), static_cast<int>(ov));
      if (bytes == 0) continue;
      objects_[i]->restore_shard(static_cast<int>(old.size()),
                                 static_cast<int>(ov),
                                 arena_->local(me) + offset, bytes);
    }
  }
  comm_.fence_all();
  comm_.barrier();
}

}  // namespace pgasq::ft
