#include "flow/flow.hpp"

#include "obs/timeline.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pgasq::flow {

namespace {
/// One splitmix64 step of a value (stateless; mirrors fault.cpp).
std::uint64_t splitmix64_of(std::uint64_t v) {
  std::uint64_t s = v;
  return splitmix64(s);
}
}  // namespace

FlowConfig FlowConfig::from_config(const Config& cfg, FlowConfig out) {
  out.configured |= parse_knobs(cfg, "flow", kFlowKnobs, out);
  PGASQ_CHECK(out.init_limit <= out.max_limit,
              << "flow.init_limit " << out.init_limit << " vs flow.max_limit "
              << out.max_limit);
  PGASQ_CHECK(out.aimd_inc > 0.0, << "flow.aimd_inc = " << out.aimd_inc);
  PGASQ_CHECK(out.aimd_dec > 0.0 && out.aimd_dec < 1.0,
              << "flow.aimd_dec must be in (0,1), got " << out.aimd_dec);
  PGASQ_CHECK(out.retry_backoff_us > 0.0 &&
                  out.retry_backoff_us <= out.retry_max_backoff_us,
              << "flow.retry_backoff_us " << out.retry_backoff_us
              << " vs flow.retry_max_backoff_us " << out.retry_max_backoff_us);
  return out;
}

Controller::Controller(const FlowConfig& cfg, int num_ranks)
    : cfg_(cfg), num_ranks_(num_ranks) {
  if (cfg_.credits > 0) {
    const std::size_t pairs =
        static_cast<std::size_t>(num_ranks) * static_cast<std::size_t>(num_ranks);
    window_.resize(pairs);
    head_.assign(pairs, 0);
    count_.assign(pairs, 0);
  }
}

Time Controller::acquire(int src, int dst, Time start) {
  if (cfg_.credits <= 0) return start;
  const std::size_t p = pair_index(src, dst);
  auto& win = window_[p];
  if (win.empty()) win.assign(static_cast<std::size_t>(cfg_.credits), 0);
  // Retire credits whose transfer has already been delivered by
  // `start`; what remains is the current window occupancy.
  while (count_[p] > 0 && win[head_[p]] <= start) {
    head_[p] = (head_[p] + 1) % win.size();
    --count_[p];
  }
  stats_.queue_depth.add(count_[p]);
  if (timeline_ != nullptr) {
    timeline_->sample(tl_window_, start, static_cast<double>(count_[p]));
  }
  if (count_[p] < win.size()) return start;
  // Window full: the sender blocks until the oldest in-flight transfer
  // returns its credit (its delivery time — the ring keeps delivery
  // horizons in issue order, and release() enforces monotonicity).
  const Time granted = win[head_[p]];
  ++stats_.credit_stalls;
  stats_.credit_stall_time += granted - start;
  if (trace_ != nullptr) trace_->instant(track_, "credit stall", start);
  if (timeline_ != nullptr) timeline_->count(tl_stalls_, start);
  head_[p] = (head_[p] + 1) % win.size();
  --count_[p];
  return granted;
}

void Controller::release(int src, int dst, Time arrive) {
  if (cfg_.credits <= 0) return;
  const std::size_t p = pair_index(src, dst);
  auto& win = window_[p];
  if (win.empty()) win.assign(static_cast<std::size_t>(cfg_.credits), 0);
  // Keep horizons monotone in the ring so acquire's oldest-first
  // retirement stays correct even when a later transfer is (locally)
  // predicted to deliver before an earlier one.
  const std::uint32_t tail =
      (head_[p] + count_[p]) % static_cast<std::uint32_t>(win.size());
  Time horizon = arrive;
  if (count_[p] > 0) {
    const std::uint32_t prev =
        (tail + static_cast<std::uint32_t>(win.size()) - 1) %
        static_cast<std::uint32_t>(win.size());
    horizon = std::max(horizon, win[prev]);
  }
  win[tail] = horizon;
  if (count_[p] < win.size()) ++count_[p];
}

bool Controller::expired_at_server(Time deadline, Time now) {
  if (deadline <= 0 || now <= deadline) return false;
  ++stats_.expired_server;
  if (trace_ != nullptr) trace_->instant(track_, "deadline shed", now);
  if (timeline_ != nullptr) timeline_->count(tl_shed_server_, now);
  return true;
}

void Controller::note_client_expiry(Time now) {
  ++stats_.expired_client;
  if (trace_ != nullptr) trace_->instant(track_, "deadline expired", now);
  if (timeline_ != nullptr) timeline_->count(tl_expired_client_, now);
}

void Controller::set_trace(sim::TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) track_ = trace_->register_track("flow");
}

void Controller::set_timeline(obs::Timeline* timeline) {
  timeline_ = timeline;
  if (timeline_ != nullptr) {
    using Kind = obs::Timeline::Kind;
    tl_window_ = timeline_->series("flow.window_occupancy", Kind::kGauge);
    tl_stalls_ = timeline_->series("flow.credit_stalls", Kind::kCounter);
    tl_shed_server_ =
        timeline_->series("flow.deadline_shed_server", Kind::kCounter);
    tl_expired_client_ =
        timeline_->series("flow.deadline_expired_client", Kind::kCounter);
  }
}

double jitter(std::uint64_t seed, int rank, std::uint64_t attempt,
              double spread) {
  if (spread <= 0.0) return 1.0;
  const std::uint64_t h = splitmix64_of(
      splitmix64_of(seed ^ 0xf10bf10bf10bf10bULL) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 32 |
       attempt));
  // 53-bit mantissa draw in [0,1), mapped to [1-spread, 1+spread).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return 1.0 - spread + 2.0 * spread * u;
}

}  // namespace pgasq::flow
