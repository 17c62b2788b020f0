#include "fault/fault.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "sim/trace.hpp"
#include "util/config.hpp"

namespace pgasq::fault {

// ---------------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------------

namespace {

int parse_int32(const std::string& key, const std::string& s) {
  const std::int64_t v = parse_int(key, s);
  PGASQ_CHECK(std::in_range<int>(v), << key << ": '" << s << "' does not fit an int");
  return static_cast<int>(v);
}

int parse_dir(const std::string& s, const std::string& what) {
  if (s == "+" || s == "+1") return 1;
  if (s == "-" || s == "-1") return -1;
  if (s == "*" || s == "0") return 0;
  PGASQ_CHECK(false, << what << ": direction must be '+', '-' or '*', got '" << s << "'");
  return 0;
}

/// Parses "node:dim:dir[:from_us:until_us]" (capacity fixed) or
/// "node:dim:dir:capacity[:from_us:until_us]" (with_capacity).
LinkFaultSpec parse_link_spec(const std::string& spec, bool with_capacity,
                              const std::string& what) {
  const auto f = split(spec, ':');
  const std::size_t base = with_capacity ? 4 : 3;
  PGASQ_CHECK(f.size() == base || f.size() == base + 2,
              << what << ": expected " << base << " or " << base + 2
              << " ':'-separated fields in '" << spec << "'");
  LinkFaultSpec out;
  out.node = parse_int32(what, f[0]);
  out.dim = parse_int32(what, f[1]);
  out.dir = parse_dir(f[2], what);
  if (with_capacity) {
    out.capacity = parse_double(what, f[3]);
    PGASQ_CHECK(out.capacity > 0.0 && out.capacity < 1.0,
                << what << ": degrade capacity must be in (0,1), got " << out.capacity);
  }
  if (f.size() == base + 2) {
    out.begin = from_us(parse_double(what, f[base]));
    out.end = from_us(parse_double(what, f[base + 1]));
    PGASQ_CHECK(out.begin < out.end, << what << ": empty window in '" << spec << "'");
  }
  return out;
}

}  // namespace

void parse_corrupt_window(FaultPlan& plan, const std::string& key,
                          const std::string& spec) {
  const auto f = split(spec, ':');
  PGASQ_CHECK(f.size() == 2, << key << ": expected from_us:until_us in '" << spec << "'");
  const CorruptWindow w{from_us(parse_double(key, f[0])),
                        from_us(parse_double(key, f[1]))};
  PGASQ_CHECK(w.begin < w.end, << key << ": empty window in '" << spec << "'");
  plan.corrupt_windows.push_back(w);
}

void parse_link_fail(FaultPlan& plan, const std::string& key, const std::string& spec) {
  plan.link_faults.push_back(parse_link_spec(spec, /*with_capacity=*/false, key));
}

void parse_link_degrade(FaultPlan& plan, const std::string& key,
                        const std::string& spec) {
  plan.link_faults.push_back(parse_link_spec(spec, /*with_capacity=*/true, key));
}

void parse_stall(FaultPlan& plan, const std::string& key, const std::string& spec) {
  const auto f = split(spec, ':');
  PGASQ_CHECK(f.size() == 3,
              << key << ": expected rank:from_us:until_us in '" << spec << "'");
  const StallSpec s{parse_int32(key, f[0]), from_us(parse_double(key, f[1])),
                    from_us(parse_double(key, f[2]))};
  PGASQ_CHECK(s.begin < s.end, << key << ": empty window in '" << spec << "'");
  plan.stalls.push_back(s);
}

void parse_node_fail(FaultPlan& plan, const std::string& key, const std::string& spec) {
  const auto f = split(spec, ':');
  PGASQ_CHECK(f.size() == 2, << key << ": expected node:at_us in '" << spec << "'");
  plan.node_fails.push_back({parse_int32(key, f[0]), from_us(parse_double(key, f[1]))});
}

FaultPlan FaultPlan::from_config(const Config& cfg) {
  FaultPlan plan;
  parse_knobs(cfg, "fault", kFaultKnobs, plan);
  PGASQ_CHECK(plan.drop_prob + plan.corrupt_prob < 1.0,
              << "fault.drop_prob + fault.corrupt_prob must stay below 1");
  PGASQ_CHECK(plan.ack_timeout > 0, << "fault.ack_timeout_us must be positive");
  PGASQ_CHECK(plan.max_backoff >= plan.ack_timeout,
              << "fault.max_backoff_us below fault.ack_timeout_us");
  PGASQ_CHECK(plan.backoff_jitter < 1.0,
              << "fault.backoff_jitter must be in [0,1), got " << plan.backoff_jitter);
  return plan;
}

// ---------------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------------

namespace {
/// One splitmix64 step of a value (stateless wrapper for seeding the
/// corruption stream off the plan seed).
std::uint64_t splitmix64_of(std::uint64_t v) {
  std::uint64_t s = v;
  return splitmix64(s);
}

/// The directed link leaving `node` along `dim` toward `dir`.
topo::Link directed_link(const topo::Torus5D& torus, int node, int dim, int dir) {
  topo::Coord5 c = torus.coord_of(node);
  c[dim] = (c[dim] + dir + torus.dims()[dim]) % torus.dims()[dim];
  return topo::Link{node, torus.node_of(c), dim, dir};
}
}  // namespace

Injector::Injector(FaultPlan plan, const topo::Torus5D& torus)
    : plan_(std::move(plan)),
      torus_(torus),
      rng_(plan_.seed),
      crng_(splitmix64_of(plan_.seed ^ 0xc0bbc0bbc0bbc0bbULL)) {
  for (const auto& spec : plan_.link_faults) {
    PGASQ_CHECK(spec.node >= 0 && spec.node < torus_.num_nodes(),
                << "fault: link node " << spec.node << " out of range");
    PGASQ_CHECK(spec.dim >= 0 && spec.dim < topo::kDims,
                << "fault: link dim " << spec.dim << " out of range");
    PGASQ_CHECK(torus_.dims()[spec.dim] > 1,
                << "fault: dim " << spec.dim << " has size 1 — no link to fail");
    const Window w{spec.begin, spec.end, spec.capacity};
    if (spec.dir != 0) {
      const auto link = directed_link(torus_, spec.node, spec.dim, spec.dir);
      by_link_[torus_.link_index(link)].push_back(w);
    } else {
      // Both directions of the cable from `node` to its +1 neighbour.
      const auto fwd = directed_link(torus_, spec.node, spec.dim, 1);
      const auto rev = directed_link(torus_, fwd.to_node, spec.dim, -1);
      by_link_[torus_.link_index(fwd)].push_back(w);
      by_link_[torus_.link_index(rev)].push_back(w);
    }
  }
  for (const auto& s : plan_.stalls) {
    PGASQ_CHECK(s.rank >= 0, << "fault: stall rank " << s.rank);
  }
  for (const auto& n : plan_.node_fails) {
    PGASQ_CHECK(n.node >= 0 && n.node < torus_.num_nodes(),
                << "fault: node_fail node " << n.node << " out of range");
    PGASQ_CHECK(n.at >= 0, << "fault: node_fail time for node " << n.node);
  }
}

bool Injector::node_dead(int node, Time now) const {
  for (const auto& n : plan_.node_fails) {
    if (n.node == node && n.at <= now) return true;
  }
  return false;
}

Time Injector::node_fail_time(int node) const {
  Time at = kForever;
  for (const auto& n : plan_.node_fails) {
    if (n.node == node) at = std::min(at, n.at);
  }
  return at;
}

void Injector::set_trace(sim::TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ != nullptr) track_ = trace_->register_track("faults");
}

void Injector::mark(const char* name, Time at) {
  if (trace_ != nullptr) trace_->instant(track_, name, at);
}

void Injector::trace_mark(const char* name, Time at) const {
  if (trace_ != nullptr) trace_->instant(track_, name, at);
}

PacketFate Injector::roll_packet(Time now) {
  if (plan_.drop_prob <= 0.0) return PacketFate::kDelivered;
  if (rng_.next_double() < plan_.drop_prob) {
    ++stats_.packets_dropped;
    mark("packet drop", now);
    return PacketFate::kDropped;
  }
  return PacketFate::kDelivered;
}

std::uint64_t Injector::roll_corrupt(Time now) {
  if (plan_.corrupt_prob <= 0.0) return 0;
  if (!plan_.corrupt_windows.empty()) {
    const bool open = std::any_of(
        plan_.corrupt_windows.begin(), plan_.corrupt_windows.end(),
        [now](const CorruptWindow& w) { return w.begin <= now && now < w.end; });
    if (!open) return 0;
  }
  if (crng_.next_double() >= plan_.corrupt_prob) return 0;
  ++stats_.packets_corrupted;
  mark("packet corrupt", now);
  // Nonzero by construction so 0 can mean "clean".
  return crng_.next_u64() | 1ULL;
}

bool Injector::link_blocked(const topo::Link& link, Time now) const {
  const auto it = by_link_.find(torus_.link_index(link));
  if (it == by_link_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(), [now](const Window& w) {
    return w.capacity == 0.0 && w.begin <= now && now < w.end;
  });
}

double Injector::link_capacity(const topo::Link& link, Time now) const {
  const auto it = by_link_.find(torus_.link_index(link));
  if (it == by_link_.end()) return 1.0;
  double cap = 1.0;
  for (const Window& w : it->second) {
    if (w.begin <= now && now < w.end) cap = std::min(cap, w.capacity);
  }
  return cap;
}

bool Injector::route_blocked(const std::vector<topo::Link>& route, Time now) const {
  return std::any_of(route.begin(), route.end(),
                     [&](const topo::Link& l) { return link_blocked(l, now); });
}

Time Injector::stalled_until(int rank, Time now) const {
  Time until = now;
  for (const auto& s : plan_.stalls) {
    if (s.rank == rank && s.begin <= now && now < s.end) until = std::max(until, s.end);
  }
  return until;
}

void Injector::record_stall(Time from, Time until) {
  ++stats_.progress_stalls;
  stats_.stall_time += until - from;
  mark("progress stall", from);
}

void Injector::record_retransmit(Time backoff, Time now) {
  ++stats_.retransmits;
  stats_.backoff_time += backoff;
  mark("retransmit", now);
}

void Injector::record_reroute(std::size_t extra_hops, Time now) {
  ++stats_.reroutes;
  stats_.rerouted_extra_hops += extra_hops;
  mark("reroute", now);
}

void Injector::record_degraded_transfer(Time now) {
  ++stats_.degraded_transfers;
  mark("degraded link", now);
}

Time Injector::in_order_arrival(int src_node, int dst_node, Time arrive,
                                bool retransmitted) {
  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                                src_node))
                             << 32) |
                            static_cast<std::uint32_t>(dst_node);
  Time& floor = last_arrival_[key];
  arrive = std::max(arrive, floor);
  if (retransmitted) floor = std::max(floor, arrive);
  return arrive;
}

void apply_bit_flips(std::uint64_t token, int nbits, std::byte* data,
                     std::size_t bytes, std::size_t skip) {
  if (token == 0 || bytes <= skip) return;
  const std::size_t region_bits = (bytes - skip) * 8;
  std::uint64_t state = token;
  for (int i = 0; i < nbits; ++i) {
    const std::uint64_t r = splitmix64(state);
    const std::size_t bit = static_cast<std::size_t>(r % region_bits);
    data[skip + bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

}  // namespace pgasq::fault
