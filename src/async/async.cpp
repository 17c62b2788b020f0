#include "async/async.hpp"

#include <utility>

#include "pami/machine.hpp"
#include "util/error.hpp"

namespace pgasq::async {

Runtime& Runtime::of(armci::Comm& comm) {
  std::shared_ptr<void>& slot = comm.async_slot();
  if (!slot) slot = std::make_shared<Runtime>(comm);
  return *static_cast<Runtime*>(slot.get());
}

Runtime* Runtime::maybe_of(armci::Comm& comm) {
  return static_cast<Runtime*>(comm.async_slot().get());
}

Runtime::Runtime(armci::Comm& comm)
    : comm_(comm) {
  timeline_ = comm.world().machine().timeline();
  if (timeline_ != nullptr) {
    pending_series_ =
        timeline_->series("async.pending_futures", obs::Timeline::Kind::kGauge);
    queue_series_ =
        timeline_->series("async.cont_queue_depth", obs::Timeline::Kind::kGauge);
  }
  comm.set_async_hook([this] { drain(); }, [this] { check_quiesced(); });
}

Runtime::~Runtime() = default;

void Runtime::enqueue(std::function<void()> k) {
  queue_.push_back(std::move(k));
  sample_gauges();
}

void Runtime::note_pending(int delta) {
  if (delta > 0) {
    pending_ += static_cast<std::size_t>(delta);
  } else {
    PGASQ_CHECK(pending_ >= static_cast<std::size_t>(-delta),
                << "pending-continuation underflow");
    pending_ -= static_cast<std::size_t>(-delta);
  }
  sample_gauges();
}

void Runtime::drain() {
  // Pollers always step (a continuation blocking on an nbc future
  // re-enters here and the schedule must keep advancing); the queue is
  // owned by the outermost frame so continuation order stays FIFO.
  for (auto& [id, fn] : pollers_) fn();
  if (draining_) return;
  draining_ = true;
  while (!queue_.empty()) {
    auto k = std::move(queue_.front());
    queue_.pop_front();
    sample_gauges();
    k();
    // A continuation may have fulfilled promises whose futures belong
    // to a still-initiating nbc op — keep stepping between queue runs.
    for (auto& [id, fn] : pollers_) fn();
  }
  draining_ = false;
}

std::size_t Runtime::register_poller(std::function<void()> fn) {
  const std::size_t id = next_poller_id_++;
  pollers_.emplace_back(id, std::move(fn));
  return id;
}

void Runtime::unregister_poller(std::size_t id) {
  for (auto it = pollers_.begin(); it != pollers_.end(); ++it) {
    if (it->first == id) {
      pollers_.erase(it);
      return;
    }
  }
}

void Runtime::check_quiesced() const {
  PGASQ_CHECK(queue_.empty() && pending_ == 0,
              << "abandoned continuations at finalize: " << queue_.size()
              << " queued, " << pending_
              << " awaiting futures that never fulfilled — chained work was "
                 "silently dropped (wait on your futures before finalize)");
}

fut::Future<fut::Unit> Runtime::future_of(armci::Handle& h) {
  auto s = h.state();
  fut::Promise<fut::Unit> p(*this);
  if (s->outstanding == 0) {
    p.fulfill({});
    return p.future();
  }
  if (s->on_zero) {
    // A future already bridges this handle: chain, preserving order.
    auto prev = std::move(s->on_zero);
    s->on_zero = [prev = std::move(prev), p] {
      prev();
      p.fulfill({});
    };
  } else {
    s->on_zero = [p] { p.fulfill({}); };
  }
  return p.future();
}

fut::Future<fut::Unit> Runtime::put(const void* src, armci::RemotePtr dst,
                                    std::size_t bytes, Cx cx) {
  armci::Handle h;
  switch (cx) {
    case Cx::kSource: {
      // Puts snapshot the source at injection (pami rput stages a
      // copy; the AM fall-back copies the payload) — source completion
      // is satisfied when the initiation returns.
      comm_.nb_put(src, dst, bytes, h);
      return fut::make_ready(*this, fut::Unit{});
    }
    case Cx::kOperation: {
      comm_.nb_put(src, dst, bytes, h);
      return future_of(h);
    }
    case Cx::kRemote: {
      fut::Promise<fut::Unit> p(*this);
      comm_.nb_put(src, dst, bytes, h, [p] { p.fulfill(fut::Unit{}); });
      return p.future();
    }
  }
  PGASQ_UNREACHABLE("completion variant");
}

fut::Future<fut::Unit> Runtime::get(armci::RemotePtr src, void* dst,
                                    std::size_t bytes) {
  armci::Handle h;
  comm_.nb_get(src, dst, bytes, h);
  // Operation completion == remote completion for a get: the data has
  // landed locally, and the target did nothing that needs acking.
  return future_of(h);
}

fut::Future<fut::Unit> Runtime::acc(double alpha, const double* src,
                                    armci::RemotePtr dst, std::size_t count,
                                    Cx cx) {
  armci::Handle h;
  switch (cx) {
    case Cx::kSource: {
      comm_.nb_acc(alpha, src, dst, count, h);
      return fut::make_ready(*this, fut::Unit{});
    }
    case Cx::kOperation: {
      comm_.nb_acc(alpha, src, dst, count, h);
      return future_of(h);
    }
    case Cx::kRemote: {
      fut::Promise<fut::Unit> p(*this);
      comm_.nb_acc(alpha, src, dst, count, h, [p] { p.fulfill(fut::Unit{}); });
      return p.future();
    }
  }
  PGASQ_UNREACHABLE("completion variant");
}

RevocableGet Runtime::get_revocable(armci::RemotePtr src, void* dst,
                                    std::size_t bytes) {
  RevocableGet g;
  g.op = comm_.nb_get_deferred(src, dst, bytes);
  g.handle = g.op->handle;
  g.future = future_of(g.op->handle);
  return g;
}

bool Runtime::revoke(RevocableGet& g) {
  PGASQ_CHECK(g.valid(), << "revoke of an invalid RevocableGet");
  if (comm_.revoke_get(g.op)) {
    ++gets_revoked_;
    return true;
  }
  if (!g.op->handle.done()) ++gets_abandoned_;
  return false;
}

fut::Future<std::vector<fut::Unit>> Runtime::when_all(
    std::vector<armci::Handle*> hs) {
  std::vector<fut::Future<fut::Unit>> fs;
  fs.reserve(hs.size());
  for (armci::Handle* h : hs) fs.push_back(future_of(*h));
  return fut::when_all(*this, std::move(fs));
}

fut::Future<std::size_t> Runtime::when_any(std::vector<armci::Handle*> hs) {
  std::vector<fut::Future<fut::Unit>> fs;
  fs.reserve(hs.size());
  for (armci::Handle* h : hs) fs.push_back(future_of(*h));
  return fut::when_any(*this, std::move(fs));
}

void Runtime::sample_gauges() {
  if (timeline_ == nullptr) return;
  const Time t = comm_.now();
  timeline_->sample(pending_series_, t, static_cast<double>(pending_));
  timeline_->sample(queue_series_, t, static_cast<double>(queue_.size()));
}

}  // namespace pgasq::async
