// pgasq_perf: one process of the pgasq benchmark.
//
//   pgasq_perf --workload scf-at|coll-sw|kvs-zipf --machine-seed N
//              --app-seed N --mode calibrate|rep|iso
//              [--traced 0|1] [--windows PS,PS[,PS,PS...]] [--spans PATH]
//
// The driver reaches the simulator only through its public entry
// points (armci::World/Comm, coll::CollEngine/NbcEngine, apps::run_scf,
// kvs::run_workload, armci::build_registry, pami::Context::stats(),
// sim::Engine, noc::NetworkModel and the obs.* knobs) and records its
// own spans around those calls. It prints "@rec {json}" lines that
// perfbench/run.py turns into named metrics and checks.
//
// Every measured repetition is its own process (--mode rep), so each
// starts from the same process state and its virtual results must
// repeat bit for bit. --mode calibrate runs the workload once and
// prints the virtual instants at which the timed region of each of its
// Worlds begins and ends. A repetition given those --windows schedules
// marker events at both ends of each region and evenly between them;
// each reads the host clocks and times a burst of kernel entries (the
// host speed the simulator's fiber switches depend on). A marker is
// one extra event and changes no virtual time. --mode iso runs the
// isolated layer drivers.
#include <signal.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "apps/scf.hpp"
#include "async/async.hpp"
#include "coll/coll.hpp"
#include "coll/nbc.hpp"
#include "core/comm.hpp"
#include "core/report_json.hpp"
#include "core/world.hpp"
#include "kvs/kvs.hpp"
#include "obs/json.hpp"
#include "pami/machine.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace {

using namespace pgasq;
using obs::Json;

// ---------------------------------------------------------------------------
// Host clocks

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double host_s() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessStart)
      .count();
}

/// CPU seconds of this process (user + sys, all threads). Unlike the
/// wall clock it does not advance while the process waits for a core,
/// so the timed metrics are taken on it.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The wall and CPU clocks, read together.
struct Stamp {
  double wall = 0.0;
  double cpu = 0.0;
};

Stamp stamp() { return {host_s(), cpu_s()}; }

struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Spans: name, rank (-1 = driver), parent index, host ns, virtual ps.
// Kept in memory during traced repetitions and written out at the end.

struct Span {
  std::string name;
  int rank = -1;
  int parent = -1;
  std::int64_t host_start_ns = 0;
  std::int64_t host_ns = 0;
  Time virt_start = 0;
  Time virt_ps = 0;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its index, or -1 when recording is off.
  int open(const char* name, int rank, int parent, Time virt_now) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.rank = rank;
    s.parent = parent;
    s.host_start_ns = host_ns();
    s.virt_start = virt_now;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, Time virt_now) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.host_ns = host_ns() - s.host_start_ns;
    s.virt_ps = virt_now - s.virt_start;
  }

  /// Records a finished span from host-clock seconds and virtual
  /// instants taken elsewhere (e.g. by marker events).
  void add(const char* name, int parent, double host_from_s, double host_to_s,
           Time virt_from, Time virt_to) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.parent = parent;
    s.host_start_ns = static_cast<std::int64_t>(host_from_s * 1e9);
    s.host_ns = static_cast<std::int64_t>((host_to_s - host_from_s) * 1e9);
    s.virt_start = virt_from;
    s.virt_ps = virt_to - virt_from;
    spans_.push_back(std::move(s));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

SpanLog g_spans;

/// RAII span for code running inside one rank's fiber.
class RankSpan {
 public:
  RankSpan(const char* name, armci::Comm& comm, int parent = -1)
      : comm_(comm), id_(g_spans.open(name, comm.rank(), parent, comm.now())) {}
  ~RankSpan() { g_spans.close(id_, comm_.now()); }
  RankSpan(const RankSpan&) = delete;
  RankSpan& operator=(const RankSpan&) = delete;
  int id() const { return id_; }

 private:
  armci::Comm& comm_;
  int id_;
};

// ---------------------------------------------------------------------------
// Records

struct Check {
  std::string name;
  bool ok = true;
  std::uint64_t failed_ops = 0;
  std::string detail;
};

struct Rep {
  bool traced = false;
  double setup_s = 0.0;       // World construction through warm-up, CPU s
  double timed_s = 0.0;       // CPU seconds of the timed region
  double setup_wall_s = 0.0;  // the same two spans on the wall clock
  double timed_wall_s = 0.0;
  std::vector<double> entry_ns;  // kernel-entry cost at every marker
  /// The repetition's own timed regions (begin, end pairs, virtual);
  /// run.py checks them against the calibrated ones.
  std::vector<Time> windows;
  double total_s = 0.0;     // host seconds of the whole repetition
  double user_s = 0.0;      // getrusage deltas over the repetition
  double sys_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double virt_ms = 0.0;
  std::vector<Check> checks;
  /// Values that must repeat bit for bit across repetitions.
  std::vector<std::pair<std::string, double>> det;
  /// Per-layer ledger values (name, value, unit).
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> layer;
  /// Raw outputs run.py checks against stored references.
  std::vector<std::pair<std::string, double>> outputs;

  void add_layer(std::string name, double value, std::string unit) {
    layer.push_back({std::move(name), value, std::move(unit)});
  }
  void add_check(std::string name, bool ok, std::uint64_t failed_ops,
                 std::string detail) {
    checks.push_back({std::move(name), ok, ok ? 0 : failed_ops, std::move(detail)});
    if (!ok) failed += failed_ops;
  }
};

/// Nearest-rank quantile of `v` (sorted copy); 0 for an empty vector.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(pos));
  idx = idx == 0 ? 0 : idx - 1;
  return v[std::min(idx, v.size() - 1)];
}

void emit(const Json& j) {
  std::printf("@rec %s\n", j.dump().c_str());
  std::fflush(stdout);
}

Json pairs_json(const std::vector<std::pair<std::string, double>>& kv) {
  Json o = Json::object();
  for (const auto& [k, v] : kv) o.set(k, Json::number(v));
  return o;
}

Json times_json(const std::vector<Time>& ts) {
  Json arr = Json::array();
  for (Time t : ts) arr.push(Json::number(static_cast<std::int64_t>(t)));
  return arr;
}

void emit_rep(const Rep& r) {
  Json j = Json::object();
  j.set("kind", Json::string("rep"));
  j.set("traced", Json::boolean(r.traced));
  j.set("setup_s", Json::number(r.setup_s));
  j.set("timed_s", Json::number(r.timed_s));
  j.set("setup_wall_s", Json::number(r.setup_wall_s));
  j.set("timed_wall_s", Json::number(r.timed_wall_s));
  j.set("kernel_entry_ns", Json::number(quantile(r.entry_ns, 0.5)));
  j.set("windows_ps", times_json(r.windows));
  j.set("attempted", Json::number(r.attempted));
  j.set("failed", Json::number(r.failed));
  j.set("virt_ms", Json::number(r.virt_ms));
  Json checks = Json::array();
  for (const Check& c : r.checks) {
    Json cj = Json::object();
    cj.set("name", Json::string(c.name));
    cj.set("ok", Json::boolean(c.ok));
    cj.set("failed_ops", Json::number(c.failed_ops));
    cj.set("detail", Json::string(c.detail));
    checks.push(std::move(cj));
  }
  j.set("checks", std::move(checks));
  j.set("det", pairs_json(r.det));
  j.set("outputs", pairs_json(r.outputs));
  Json layer = Json::object();
  for (const Rep::Metric& m : r.layer) {
    Json mj = Json::object();
    mj.set("value", Json::number(m.value));
    mj.set("unit", Json::string(m.unit));
    layer.set(m.name, std::move(mj));
  }
  j.set("layer", std::move(layer));
  emit(j);
}

// ---------------------------------------------------------------------------
// Small helpers

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d) {
  std::uint64_t s = a * 0x9e3779b97f4a7c15ULL ^ (b << 40) ^ (c << 20) ^ d;
  return splitmix64(s);
}

/// Value of the unlabelled registry metric `name` (0 when absent).
double registry_value(const Json& reg, const std::string& name) {
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const Json& m = reg[i];
    if (m.at("name").as_string() != name || m.find("labels") != nullptr) continue;
    if (const Json* v = m.find("value")) return v->as_double();
  }
  return 0.0;
}

struct Seeds {
  std::uint64_t machine = 1;
  std::uint64_t app = 1;
};

armci::WorldConfig base_world(int ranks, int per_node, const std::string& net,
                              std::uint64_t seed, bool traced) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  cfg.machine.ranks_per_node = per_node;
  cfg.machine.network_model = net;
  cfg.machine.seed = seed;
  cfg.armci.consistency = armci::ConsistencyMode::kPerRegion;
  if (traced) {
    // The existing observability knobs: critical-path legs, the
    // timeline (fiber-switch counter) and per-link accounting.
    Config obs_knobs;
    obs_knobs.set("obs.critpath", "1");
    obs_knobs.set("obs.timeline", "1");
    obs_knobs.set("obs.links", "1");
    pami::configure_observability(obs_knobs, cfg.machine);
  }
  return cfg;
}

/// Ledger entries every workload has, summed over the Worlds of one
/// repetition: sim, noc, pami and armci counts from the engine, the
/// network model, every context's stats and the report registry;
/// critpath, timeline and link figures when traced.
class GenericLedger {
 public:
  void add(armci::World& world) {
    pami::Machine& m = world.machine();
    events_ += static_cast<double>(m.engine().events_processed());
    msgs_ += static_cast<double>(m.network().messages_sent());
    bytes_ += static_cast<double>(m.network().bytes_sent());
    for (int rank = 0; rank < m.num_ranks(); ++rank) {
      pami::Process& p = m.process(rank);
      for (int c = 0; c < p.num_contexts(); ++c) {
        const pami::ContextStats& s = p.context(c).stats();
        ctx_.advance_calls += s.advance_calls;
        ctx_.empty_advances += s.empty_advances;
        ctx_.ams_dispatched += s.ams_dispatched;
        ctx_.rmws_serviced += s.rmws_serviced;
        ctx_.total_service_delay += s.total_service_delay;
      }
    }
    const Json reg = armci::build_registry(world).to_json();
    for (std::size_t i = 0; i < kTimeIn.size(); ++i) {
      time_in_us_[i] += registry_value(reg, time_in_name(i));
    }
    cache_hits_ += registry_value(reg, "armci.region_cache_hits");
    cache_misses_ += registry_value(reg, "armci.region_cache_misses");
    if (const obs::CritPath* cp = m.critpath()) {
      const Json seg = cp->to_json().at("segments");
      legs_ += seg.at("legs").as_double();
      for (std::size_t i = 0; i < kLegs.size(); ++i) {
        leg_us_[i] += seg.at(std::string(kLegs[i]) + "_us").as_double();
      }
      critpath_ = true;
    }
    if (m.link_usage() != nullptr) {
      link_max_util_ =
          std::max(link_max_util_, registry_value(reg, "obs.link_max_utilization"));
      links_ = true;
    }
    if (const obs::Timeline* tl = m.timeline()) {
      fiber_switches_ += static_cast<double>(tl->counter_total("sim.fiber_switches"));
      timeline_ = true;
    }
  }

  /// Adds the ledger entries and deterministic counts to `r`; call
  /// after RepClock::stop, since sim.* ratios use its host times.
  void emit(Rep& r) const {
    r.add_layer("sim.events", events_, "count");
    r.add_layer("sim.events_per_msg", msgs_ > 0 ? events_ / msgs_ : 0.0, "ratio");
    r.add_layer("sim.host_ns_per_event", events_ > 0 ? r.total_s * 1e9 / events_ : 0.0,
                "ns");
    const double cpu = r.user_s + r.sys_s;
    r.add_layer("sim.sys_frac", cpu > 0 ? r.sys_s / cpu : 0.0, "ratio");
    r.add_layer("noc.messages", msgs_, "count");
    r.add_layer("noc.bytes", bytes_, "bytes");

    const double adv = static_cast<double>(ctx_.advance_calls);
    const double serviced = static_cast<double>(ctx_.ams_dispatched + ctx_.rmws_serviced);
    r.add_layer("pami.advance_calls", adv, "count");
    r.add_layer("pami.useful_advance_ratio",
                adv > 0 ? 1.0 - static_cast<double>(ctx_.empty_advances) / adv : 0.0,
                "ratio");
    r.add_layer("pami.service_delay_us",
                serviced > 0 ? to_us(ctx_.total_service_delay) / serviced : 0.0, "us");
    r.add_layer("pami.rmws_serviced", static_cast<double>(ctx_.rmws_serviced), "count");
    r.add_layer("pami.ams_dispatched", static_cast<double>(ctx_.ams_dispatched), "count");

    for (std::size_t i = 0; i < kTimeIn.size(); ++i) {
      r.add_layer(time_in_name(i), time_in_us_[i], "us");
    }
    const double lookups = cache_hits_ + cache_misses_;
    r.add_layer("armci.region_cache_lookups", lookups, "count");
    r.add_layer("armci.region_cache_hit_ratio", lookups > 0 ? cache_hits_ / lookups : 0.0,
                "ratio");

    if (critpath_) {
      for (std::size_t i = 0; i < kLegs.size(); ++i) {
        r.add_layer(std::string("noc.") + kLegs[i] + "_us",
                    legs_ > 0 ? leg_us_[i] / legs_ : 0.0, "us");
      }
    }
    if (links_) r.add_layer("noc.link_max_util", link_max_util_, "ratio");
    if (timeline_) r.add_layer("sim.fiber_switches", fiber_switches_, "count");
    r.det.emplace_back("sim.events", events_);
    r.det.emplace_back("noc.messages", msgs_);
    r.det.emplace_back("pami.rmws_serviced", static_cast<double>(ctx_.rmws_serviced));
  }

 private:
  static constexpr std::array<const char*, 6> kTimeIn = {"get",  "put",  "acc",
                                                         "rmw",  "wait", "barrier"};
  static constexpr std::array<const char*, 4> kLegs = {"inject_wait", "ser", "wire",
                                                       "ack"};
  static std::string time_in_name(std::size_t i) {
    return std::string("armci.time_in_") + kTimeIn[i] + "_us";
  }

  double events_ = 0.0;
  double msgs_ = 0.0;
  double bytes_ = 0.0;
  pami::ContextStats ctx_;
  std::array<double, kTimeIn.size()> time_in_us_{};
  double cache_hits_ = 0.0;
  double cache_misses_ = 0.0;
  bool critpath_ = false;
  double legs_ = 0.0;
  std::array<double, kLegs.size()> leg_us_{};
  bool links_ = false;
  double link_max_util_ = 0.0;
  bool timeline_ = false;
  double fiber_switches_ = 0.0;
};

/// Host cost of one kernel entry, in ns: the mean over a burst of
/// sigprocmask calls that leave the mask as it is. Each fiber switch
/// of the simulator (swapcontext) makes two such calls, and their cost
/// drifts with the load other tenants put on a shared host; run.py
/// uses it to put host times on a fixed host speed (see README.md).
double kernel_entry_ns() {
  constexpr int kCalls = 256;
  sigset_t cur;
  sigprocmask(SIG_SETMASK, nullptr, &cur);
  const std::int64_t t0 = host_ns();
  for (int k = 0; k < kCalls; ++k) sigprocmask(SIG_SETMASK, &cur, nullptr);
  return static_cast<double>(host_ns() - t0) / kCalls;
}

/// Markers cut a timed region into this many stretches of equal
/// virtual time, so its kernel-entry cost is sampled all through it.
constexpr int kMarkerGaps = 32;

/// Host clocks over the timed region [begin, end] of one World. Each
/// marker is an event that reads the clocks and times a burst of
/// kernel entries; it touches no simulated state. The first marker
/// opens the region, the last closes it, and the probes are left out
/// of its host time.
class Markers {
 public:
  Markers(armci::World& world, Time begin, Time end)
      : begin_(begin), end_(end), marks_(kMarkerGaps + 1) {
    PGASQ_CHECK(begin < end, << "empty timed region " << begin << ".." << end);
    for (int i = 0; i <= kMarkerGaps; ++i) {
      Mark* m = &marks_[static_cast<std::size_t>(i)];
      const Time at = begin + (end - begin) * i / kMarkerGaps;
      world.machine().engine().schedule_at(at, [m] {
        m->before = stamp();
        m->entry_ns = kernel_entry_ns();
        m->after = stamp();
      });
    }
  }
  // The marker events hold pointers into marks_.
  Markers(const Markers&) = delete;
  Markers& operator=(const Markers&) = delete;

  Time begin() const { return begin_; }
  Time end() const { return end_; }
  double first_wall() const { return marks_.front().before.wall; }
  double last_wall() const { return marks_.back().before.wall; }

  /// Adds this World's set-up and timed host time and kernel-entry
  /// samples to `r`; `start` was stamped before the World was built.
  void add_to(Rep& r, const Stamp& start) const {
    const Mark& a = marks_.front();
    const Mark& b = marks_.back();
    Stamp probes;  // host time the probes inside the region took
    for (std::size_t i = 0; i < marks_.size(); ++i) {
      r.entry_ns.push_back(marks_[i].entry_ns);
      if (i == 0 || i + 1 == marks_.size()) continue;
      probes.cpu += marks_[i].after.cpu - marks_[i].before.cpu;
      probes.wall += marks_[i].after.wall - marks_[i].before.wall;
    }
    r.setup_s += a.before.cpu - start.cpu;
    r.timed_s += b.before.cpu - a.after.cpu - probes.cpu;
    r.setup_wall_s += a.before.wall - start.wall;
    r.timed_wall_s += b.before.wall - a.after.wall - probes.wall;
  }

 private:
  struct Mark {
    Stamp before;
    Stamp after;
    double entry_ns = 0.0;
  };
  Time begin_;
  Time end_;
  std::vector<Mark> marks_;
};

// ---------------------------------------------------------------------------
// Workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs once and returns the virtual instants where the timed region
  /// of each World begins and ends, as begin, end pairs.
  virtual std::vector<Time> calibrate() = 0;
  /// One measured repetition, given the calibrated windows.
  virtual Rep run(bool traced, const std::vector<Time>& windows) = 0;
  /// Ops a repetition attempts (used when it throws).
  virtual std::uint64_t planned_ops() const = 0;
};

/// Host-time bookkeeping of one repetition.
struct RepClock {
  Stamp t0 = stamp();
  CpuTimes c0 = cpu_times();
  /// Fills the whole-repetition host and CPU times; call before
  /// GenericLedger::emit, which derives sim.* ratios from them.
  void stop(Rep& r) const {
    const CpuTimes c1 = cpu_times();
    r.total_s = host_s() - t0.wall;
    r.user_s = c1.user - c0.user;
    r.sys_s = c1.sys - c0.sys;
  }
};

// --- scf-at: Fig 11 SCF Fock build, 1024 ranks, AT progress --------------

class ScfAt final : public Workload {
 public:
  static constexpr int kIterations = 3;

  explicit ScfAt(Seeds seeds) : seeds_(seeds) {
    cfg_.nbf = 644;
    cfg_.block = 7;
    cfg_.iterations = kIterations;
    cfg_.mean_task_compute = from_us(5000.0);
    cfg_.seed = seeds.app;
  }

  std::uint64_t planned_ops() const override {
    return static_cast<std::uint64_t>(kIterations * apps::scf_tasks_per_iteration(cfg_));
  }

  std::vector<Time> calibrate() override {
    // wall_time is the Fock loop; the run ends with a short tail after
    // it (checksum reads and the closing barrier), so the region
    // [elapsed - wall_time, elapsed] is the loop shifted by that tail.
    armci::World world(config(false));
    const apps::ScfResult res = apps::run_scf(world, cfg_);
    return {world.elapsed() - res.wall_time, world.elapsed()};
  }

  Rep run(bool traced, const std::vector<Time>& windows) override {
    PGASQ_CHECK(windows.size() == 2, << "scf-at takes one window");
    const RepClock clock;
    Rep r;
    const int top = g_spans.open("perf.rep", -1, -1, 0);
    int sp = g_spans.open("armci.World", -1, top, 0);
    armci::World world(config(traced));
    g_spans.close(sp, 0);
    const Markers mk(world, windows[0], windows[1]);
    sp = g_spans.open("apps.run_scf", -1, top, 0);
    const apps::ScfResult res = apps::run_scf(world, cfg_);
    g_spans.close(sp, world.elapsed());
    g_spans.add("apps.scf.setup", sp, clock.t0.wall, mk.first_wall(), 0, mk.begin());
    g_spans.add("apps.scf.fock_loop", sp, mk.first_wall(), mk.last_wall(), mk.begin(),
                mk.end());
    mk.add_to(r, clock.t0);
    r.attempted = planned_ops();
    r.virt_ms = to_ms(res.wall_time);
    r.windows = {world.elapsed() - res.wall_time, world.elapsed()};
    r.add_check("scf.task_count", res.tasks_executed == planned_ops(), planned_ops(),
                "tasks " + std::to_string(res.tasks_executed) + " expected " +
                    std::to_string(planned_ops()));
    r.outputs.emplace_back("fock_checksum", res.fock_checksum);
    r.outputs.emplace_back("final_energy", res.final_energy);
    clock.stop(r);
    sp = g_spans.open("armci.build_registry", -1, top, world.elapsed());
    GenericLedger ledger;
    ledger.add(world);
    g_spans.close(sp, world.elapsed());
    ledger.emit(r);
    r.add_layer("apps.counter_s", to_s(res.counter_time), "s");
    r.add_layer("apps.get_s", to_s(res.get_time), "s");
    r.add_layer("apps.acc_s", to_s(res.acc_time), "s");
    r.add_layer("apps.reduce_s", to_s(res.reduce_time), "s");
    g_spans.close(top, world.elapsed());
    return r;
  }

 private:
  armci::WorldConfig config(bool traced) const {
    armci::WorldConfig cfg = base_world(1024, 16, "loggp", seeds_.machine, traced);
    cfg.armci.progress = armci::ProgressMode::kAsyncThread;
    cfg.armci.contexts_per_rank = 2;
    return cfg;
  }

  Seeds seeds_;
  apps::ScfConfig cfg_;
};

// --- coll-sw: software collective schedules, 512 nodes, contention net ----

class CollSw final : public Workload {
 public:
  static constexpr int kRanks = 512;
  static constexpr int kRounds = 6;            // timed rounds per repetition
  static constexpr std::size_t kSmall = 8;     // 64 B allreduce
  static constexpr std::size_t kMid = 2048;    // 16 KiB allreduce
  static constexpr std::size_t kNbc = 128;     // 1 KiB iallreduce
  static constexpr int kOverlapSlices = 8;
  static constexpr double kSliceUs = 2.5;      // compute slice between polls
  static constexpr std::uint64_t kMaxSkewNs = 4000;

  explicit CollSw(Seeds seeds) : seeds_(seeds) {
    // Expected sums: every input is base(op, round, rank) + (i % 8), a
    // small integer, so every partial sum is exact in double.
    for (int op = 0; op < 3; ++op) {
      for (int round = 0; round <= kRounds; ++round) {
        double total = 0.0;
        for (int rank = 0; rank < kRanks; ++rank) total += base(op, round, rank);
        base_sum_[op][round] = total;
      }
    }
  }

  std::uint64_t planned_ops() const override { return 4 * kRounds; }

  /// The timed region runs from rank 0 leaving the barrier that opens
  /// round 1 to rank 0 finishing the last round.
  std::vector<Time> calibrate() override {
    run(false, {});
    return {window_.first, window_.second};
  }

  /// One repetition; without a window (calibration) it only records
  /// the virtual window of the timed region.
  Rep run(bool traced, const std::vector<Time>& windows) override {
    PGASQ_CHECK(windows.empty() || windows.size() == 2, << "coll-sw takes one window");
    const RepClock clock;
    armci::WorldConfig cfg = base_world(kRanks, 1, "contention", seeds_.machine, traced);
    cfg.armci.coll.emplace_back("hw", "0");
    const int top = g_spans.open("perf.rep", -1, -1, 0);
    int sp = g_spans.open("armci.World", -1, top, 0);
    armci::World world(cfg);
    g_spans.close(sp, 0);
    std::unique_ptr<Markers> mk;
    if (!windows.empty()) mk = std::make_unique<Markers>(world, windows[0], windows[1]);

    // Per-rank samples, written by the fibers of this single-threaded
    // simulation and read after spmd returns.
    std::vector<double> barrier_us, small_us, mid_us, nbc_us, overlap;
    std::vector<double> round_host_ms;
    std::vector<std::uint8_t> bad(static_cast<std::size_t>(4 * (kRounds + 1)), 0);
    Time v_begin = 0;
    Time v_end = 0;
    std::uint64_t nbc_hops = 0;

    sp = g_spans.open("armci.World::spmd", -1, top, 0);
    world.spmd([&](armci::Comm& comm) {
      const int me = comm.rank();
      coll::CollEngine& ce = coll::CollEngine::of(comm);
      coll::NbcEngine& nbc = coll::NbcEngine::of(comm);
      async::Runtime& rt = async::Runtime::of(comm);
      Rng skew(mix(seeds_.app, 99, 0, static_cast<std::uint64_t>(me)));
      std::vector<double> xs(kSmall), xm(kMid), xn(kNbc);

      // Round 0 is the warm-up (arena allocation, first collective);
      // rounds 1..kRounds are timed.
      for (int round = 0; round <= kRounds; ++round) {
        const bool timed = round > 0;
        if (round == 1) {
          ce.barrier();
          if (me == 0) v_begin = comm.now();
        }
        const double h0 = host_s();
        RankSpan rs("coll-sw.round", comm);
        comm.compute(from_ns(static_cast<double>(skew.next_below(kMaxSkewNs))));

        Time t = comm.now();
        {
          RankSpan s("coll.barrier", comm, rs.id());
          ce.barrier();
        }
        if (timed) barrier_us.push_back(to_us(comm.now() - t));

        fill(xs, kOpSmall, round, me);
        t = comm.now();
        {
          RankSpan s("coll.allreduce.small", comm, rs.id());
          ce.allreduce_sum(xs.data(), xs.size());
        }
        if (timed) small_us.push_back(to_us(comm.now() - t));
        if (!exact(xs, kOpSmall, round)) bad[static_cast<std::size_t>(4 * round + 1)] = 1;

        fill(xm, kOpMid, round, me);
        t = comm.now();
        {
          RankSpan s("coll.allreduce.mid", comm, rs.id());
          ce.allreduce_sum(xm.data(), xm.size());
        }
        if (timed) mid_us.push_back(to_us(comm.now() - t));
        if (!exact(xm, kOpMid, round)) bad[static_cast<std::size_t>(4 * round + 2)] = 1;

        fill(xn, kOpNbc, round, me);
        t = comm.now();
        {
          RankSpan s("async.iallreduce", comm, rs.id());
          fut::Future<fut::Unit> f = nbc.iallreduce_sum(xn.data(), xn.size());
          Time computing = 0;
          {
            RankSpan c("app.compute_overlap", comm, s.id());
            for (int k = 0; k < kOverlapSlices; ++k) {
              const Time c0 = comm.now();
              comm.compute(from_us(kSliceUs));
              computing += comm.now() - c0;
              comm.progress();
            }
          }
          {
            RankSpan w("async.wait", comm, s.id());
            rt.wait(f);
          }
          const Time span = comm.now() - t;
          if (timed) {
            nbc_us.push_back(to_us(span));
            overlap.push_back(span > 0 ? static_cast<double>(computing) /
                                             static_cast<double>(span)
                                       : 0.0);
          }
        }
        if (!exact(xn, kOpNbc, round)) bad[static_cast<std::size_t>(4 * round + 3)] = 1;
        if (me == 0 && timed) round_host_ms.push_back(1e3 * (host_s() - h0));
      }
      if (me == 0) v_end = comm.now();
      nbc_hops += nbc.hops_sent();
    });
    g_spans.close(sp, world.elapsed());

    window_ = {v_begin, v_end};
    Rep r;
    r.attempted = planned_ops();
    r.virt_ms = to_ms(v_end - v_begin);
    if (mk) {
      mk->add_to(r, clock.t0);
      r.windows = {v_begin, v_end};
    }
    static const char* kOpNames[4] = {"barrier", "allreduce.small", "allreduce.mid",
                                      "iallreduce"};
    for (int op = 1; op < 4; ++op) {
      std::uint64_t wrong = 0;
      for (int round = 0; round <= kRounds; ++round) {
        wrong += bad[static_cast<std::size_t>(4 * round + op)];
      }
      r.add_check(std::string("coll.") + kOpNames[op] + ".exact_sum", wrong == 0, wrong,
                  std::to_string(wrong) + " calls with a wrong sum on some rank");
    }
    clock.stop(r);
    GenericLedger ledger;
    ledger.add(world);
    ledger.emit(r);
    const std::pair<const char*, const std::vector<double>*> dists[] = {
        {"coll.allreduce_us.small", &small_us}, {"coll.allreduce_us.mid", &mid_us}};
    for (const auto& [name, v] : dists) {
      for (const auto& [q, tag] : {std::pair{0.5, ".p50"}, std::pair{0.99, ".p99"}}) {
        const double x = quantile(*v, q);
        r.add_layer(std::string(name) + tag, x, "us");
        r.det.emplace_back(std::string(name) + tag, x);
      }
    }
    r.add_layer("coll.barrier_us.p50", quantile(barrier_us, 0.5), "us");
    r.add_layer("coll.round_host_ms.p50", quantile(round_host_ms, 0.5), "ms");
    r.add_layer("coll.round_host_ms.p90", quantile(round_host_ms, 0.9), "ms");
    r.add_layer("async.nbc_hops", static_cast<double>(nbc_hops), "count");
    r.add_layer("async.iallreduce_us.p50", quantile(nbc_us, 0.5), "us");
    r.add_layer("async.overlap_frac", mean(overlap), "ratio");
    g_spans.close(top, world.elapsed());
    return r;
  }

 private:
  enum Op { kOpSmall = 0, kOpMid = 1, kOpNbc = 2 };

  double base(int op, int round, int rank) const {
    return static_cast<double>(mix(seeds_.app, static_cast<std::uint64_t>(op),
                                   static_cast<std::uint64_t>(round),
                                   static_cast<std::uint64_t>(rank)) % 16);
  }

  void fill(std::vector<double>& x, int op, int round, int rank) const {
    const double b = base(op, round, rank);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = b + static_cast<double>(i % 8);
  }

  bool exact(const std::vector<double>& x, int op, int round) const {
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double want =
          base_sum_[op][round] + static_cast<double>(kRanks) * static_cast<double>(i % 8);
      if (x[i] != want) return false;
    }
    return true;
  }

  Seeds seeds_;
  double base_sum_[3][kRounds + 1] = {};
  std::pair<Time, Time> window_;
};

// --- kvs-zipf: closed-loop zipfian KVS, 512 ranks, 16 per node ------------

class KvsZipf final : public Workload {
 public:
  static constexpr int kRanks = 512;
  /// Independent KVS instances per repetition, each its own World with
  /// its own key and op stream: hot-key contention, and with it the
  /// work per request, differs from stream to stream, and the sum over
  /// several streams moves less from seed to seed than one stream.
  static constexpr int kInstances = 3;

  explicit KvsZipf(Seeds seeds) : seeds_(seeds) {
    kc_.keys = 8192;
    kc_.zipf_theta = 0.99;
    kc_.get_ratio = 0.50;
    kc_.faa_ratio = 0.05;
    kc_.requests = 16;
    kc_.value_bytes = 32;
    kc_.verify = true;
  }

  std::uint64_t planned_ops() const override {
    return static_cast<std::uint64_t>(kInstances) * instance_ops();
  }

  std::vector<Time> calibrate() override {
    std::vector<Time> windows;
    for (int j = 0; j < kInstances; ++j) {
      armci::World world(config(false));
      const kvs::KvResult res = kvs::run_workload(world, instance(j));
      windows.push_back(res.traffic_begin);
      windows.push_back(res.traffic_end);
    }
    return windows;
  }

  Rep run(bool traced, const std::vector<Time>& windows) override {
    PGASQ_CHECK(windows.size() == 2 * kInstances,
                << "kvs-zipf takes " << kInstances << " windows");
    const RepClock clock;
    Rep r;
    GenericLedger ledger;
    kvs::KvStats st;  // merged over instances
    std::uint64_t acked = 0;
    std::uint64_t lost_acked = 0;
    std::uint64_t torn_reads = 0;
    std::uint64_t faa_gap = 0;
    const int top = g_spans.open("perf.rep", -1, -1, 0);
    for (int j = 0; j < kInstances; ++j) {
      const Stamp start = stamp();
      int sp = g_spans.open("armci.World", -1, top, 0);
      armci::World world(config(traced));
      g_spans.close(sp, 0);
      const Markers mk(world, windows[2 * j], windows[2 * j + 1]);
      sp = g_spans.open("kvs.run_workload", -1, top, 0);
      const kvs::KvResult res = kvs::run_workload(world, instance(j));
      g_spans.close(sp, world.elapsed());
      g_spans.add("kvs.setup", sp, start.wall, mk.first_wall(), 0, mk.begin());
      g_spans.add("kvs.traffic", sp, mk.first_wall(), mk.last_wall(), mk.begin(),
                  mk.end());
      g_spans.add("kvs.audit", sp, mk.last_wall(), host_s(), mk.end(), world.elapsed());
      mk.add_to(r, start);
      r.windows.push_back(res.traffic_begin);
      r.windows.push_back(res.traffic_end);
      r.virt_ms += to_ms(res.traffic_end - res.traffic_begin);
      st.merge(res.total);
      acked += res.acked_ops;
      lost_acked += res.lost_acked;
      torn_reads += res.torn_reads;
      faa_gap += res.faa_expected > res.faa_applied ? res.faa_expected - res.faa_applied
                                                    : res.faa_applied - res.faa_expected;
      ledger.add(world);
    }
    const std::uint64_t errored = st.shed_ops + st.expired_ops + st.deadline_errors;
    r.attempted = acked + errored;
    r.add_check("kvs.no_errored_requests", errored == 0, errored,
                std::to_string(errored) + " shed, expired or errored requests");
    r.add_check("kvs.all_requests_acked", acked == planned_ops(),
                planned_ops() > acked ? planned_ops() - acked : 1,
                "acked " + std::to_string(acked) + " of " + std::to_string(planned_ops()));
    r.add_check("kvs.verify.lost_acked", lost_acked == 0, lost_acked,
                std::to_string(lost_acked) + " acked writes lost");
    r.add_check("kvs.verify.torn_reads", torn_reads == 0, torn_reads,
                std::to_string(torn_reads) + " torn reads");
    r.add_check("kvs.verify.faa_exactly_once", faa_gap == 0, faa_gap,
                "faa applied differs from expected by " + std::to_string(faa_gap));
    clock.stop(r);
    ledger.emit(r);
    const std::pair<const char*, const util::Histogram*> hists[] = {
        {"kvs.get_us", &st.get_lat}, {"kvs.put_us", &st.put_lat}};
    for (const auto& [name, h] : hists) {
      const bool get = std::string(name) == "kvs.get_us";
      for (const auto& [q, tag] :
           {std::pair{0.5, ".p50"}, std::pair{0.99, ".p99"}, std::pair{0.999, ".p999"}}) {
        if (!get && q > 0.99) continue;
        const double us = static_cast<double>(h->quantile(q)) / 1e3;
        r.add_layer(std::string(name) + tag, us, "us");
        if (get) r.det.emplace_back(std::string(name) + tag, us);
      }
    }
    const double puts = static_cast<double>(st.puts);
    r.add_layer("kvs.cas_success_ratio",
                puts > 0 ? puts / (puts + static_cast<double>(st.cas_lost)) : 0.0,
                "ratio");
    g_spans.close(top, 0);
    return r;
  }

 private:
  armci::WorldConfig config(bool traced) const {
    return base_world(kRanks, 16, "loggp", seeds_.machine, traced);
  }

  std::uint64_t instance_ops() const {
    return static_cast<std::uint64_t>(kRanks) * static_cast<std::uint64_t>(kc_.requests);
  }

  /// Instance j's configuration: its key and op stream come from the
  /// application seed and j.
  kvs::KvConfig instance(int j) const {
    kvs::KvConfig kc = kc_;
    kc.seed = mix(seeds_.app, 0x6b7673, static_cast<std::uint64_t>(j), 0);
    return kc;
  }

  Seeds seeds_;
  kvs::KvConfig kc_;
};

// ---------------------------------------------------------------------------
// Isolated layer drivers: host ns per call into one layer's public API.
// Each sample is the mean over a batch of calls; kSamples batches put
// 20 samples beyond the p90.

constexpr int kSamples = 200;

void emit_iso(const std::string& name, int batch, const std::vector<double>& ns) {
  Json j = Json::object();
  j.set("kind", Json::string("iso"));
  j.set("name", Json::string(name));
  j.set("calls_per_sample", Json::number(batch));
  Json arr = Json::array();
  for (double v : ns) arr.push(Json::number(v));
  j.set("samples_ns", std::move(arr));
  emit(j);
}

/// sim.event_ns: schedule_at + run of trivial events.
void iso_event() {
  constexpr int kBatch = 2000;
  sim::Engine engine;
  std::uint64_t sink = 0;
  std::vector<double> out;
  for (int s = 0; s < kSamples; ++s) {
    const std::int64_t t0 = host_ns();
    for (int k = 0; k < kBatch; ++k) {
      engine.schedule_at(engine.now() + k + 1, [&sink] { ++sink; });
    }
    engine.run();
    out.push_back(static_cast<double>(host_ns() - t0) / kBatch);
  }
  PGASQ_CHECK(sink == static_cast<std::uint64_t>(kSamples) * kBatch);
  emit_iso("sim.event_ns", kBatch, out);
}

/// sim.switch_ns: WaitQueue ping-pong between two fibers; one sample
/// is the mean host time of one one-way hand-off.
void iso_switch() {
  constexpr int kBatch = 2000;  // round trips per sample
  sim::Engine engine;
  sim::WaitQueue qa(engine);
  sim::WaitQueue qb(engine);
  int turn = 0;
  std::vector<double> out;
  engine.spawn("ping", [&] {
    for (int s = 0; s < kSamples; ++s) {
      const std::int64_t t0 = host_ns();
      for (int k = 0; k < kBatch; ++k) {
        turn = 1;
        qb.notify_one();
        while (turn != 0) qa.wait();
      }
      out.push_back(static_cast<double>(host_ns() - t0) / (2.0 * kBatch));
    }
    turn = 2;
    qb.notify_one();
  });
  engine.spawn("pong", [&] {
    for (;;) {
      while (turn == 0) qb.wait();
      if (turn == 2) return;
      turn = 0;
      qa.notify_one();
    }
  });
  engine.run();
  emit_iso("sim.switch_ns", kBatch, out);
}

/// noc.transfer_ns: contention-model transfers on the coll-sw torus.
void iso_transfer(std::uint64_t seed) {
  constexpr int kBatch = 1000;
  pami::MachineConfig mc;
  mc.num_ranks = CollSw::kRanks;
  mc.ranks_per_node = 1;
  mc.network_model = "contention";
  pami::Machine machine(mc);
  noc::NetworkModel& net = machine.network();
  const int nodes = CollSw::kRanks;
  Rng rng(seed);
  struct Call {
    int src, dst;
    std::uint64_t bytes;
  };
  std::vector<Call> calls(kBatch);
  Time t = 0;
  std::vector<double> out;
  for (int s = 0; s < kSamples; ++s) {
    for (Call& c : calls) {
      c.src = static_cast<int>(rng.next_below(nodes));
      c.dst = static_cast<int>(rng.next_below(nodes - 1));
      if (c.dst >= c.src) ++c.dst;
      c.bytes = std::uint64_t{64} << rng.next_below(9);  // 64 B .. 16 KiB
    }
    Time sink = 0;
    const std::int64_t t0 = host_ns();
    for (const Call& c : calls) {
      sink += net.transfer(c.src, c.dst, c.bytes, t).arrive;
      t += from_ns(50);
    }
    out.push_back(static_cast<double>(host_ns() - t0) / kBatch);
    PGASQ_CHECK(sink > 0);
  }
  emit_iso("noc.transfer_ns", kBatch, out);
}

/// armci.{get,put,fetch_add}_host_ns: 2 ranks on 2 nodes, KVS value
/// size, rank 0 issuing blocking ops at rank 1.
void iso_armci(std::uint64_t seed) {
  constexpr int kBatch = 100;
  constexpr std::size_t kBytes = 32;
  armci::World world(base_world(2, 1, "loggp", seed, false));
  std::vector<double> get_ns, put_ns, faa_ns;
  world.spmd([&](armci::Comm& comm) {
    armci::GlobalMem& mem = comm.malloc_collective(4096);
    if (comm.rank() == 0) {
      std::vector<std::byte> buf(kBytes, std::byte{7});
      for (int s = 0; s < kSamples; ++s) {
        std::int64_t t0 = host_ns();
        for (int k = 0; k < kBatch; ++k) comm.get(mem.at(1), buf.data(), kBytes);
        get_ns.push_back(static_cast<double>(host_ns() - t0) / kBatch);
        t0 = host_ns();
        for (int k = 0; k < kBatch; ++k) comm.put(buf.data(), mem.at(1, 64), kBytes);
        put_ns.push_back(static_cast<double>(host_ns() - t0) / kBatch);
        t0 = host_ns();
        for (int k = 0; k < kBatch; ++k) comm.fetch_add(mem.at(1, 128), 1);
        faa_ns.push_back(static_cast<double>(host_ns() - t0) / kBatch);
      }
    }
    comm.barrier();
  });
  emit_iso("armci.get_host_ns", kBatch, get_ns);
  emit_iso("armci.put_host_ns", kBatch, put_ns);
  emit_iso("armci.fetch_add_host_ns", kBatch, faa_ns);
}

// ---------------------------------------------------------------------------

void write_spans(const char* path) {
  Json arr = Json::array();
  std::map<std::string, std::vector<double>> agg;  // name -> {count, host ns, virt ps}
  for (const Span& s : g_spans.spans()) {
    Json j = Json::object();
    j.set("name", Json::string(s.name));
    j.set("rank", Json::number(s.rank));
    j.set("parent", Json::number(s.parent));
    j.set("host_start_ns", Json::number(s.host_start_ns));
    j.set("host_ns", Json::number(s.host_ns));
    j.set("virt_start_ps", Json::number(s.virt_start));
    j.set("virt_ps", Json::number(s.virt_ps));
    arr.push(std::move(j));
    std::vector<double>& a = agg[s.name];
    if (a.empty()) a.assign(3, 0.0);
    a[0] += 1;
    a[1] += static_cast<double>(s.host_ns);
    a[2] += static_cast<double>(s.virt_ps);
  }
  if (*path != '\0') {
    Json doc = Json::object();
    doc.set("schema", Json::string("pgasq.perfbench.spans"));
    doc.set("schema_version", Json::number(1));
    doc.set("spans", std::move(arr));
    std::ofstream f(path);
    PGASQ_CHECK(f.good(), << "cannot write " << path);
    f << doc.dump() << "\n";
  }
  Json by = Json::object();
  for (const auto& [name, a] : agg) {
    Json j = Json::object();
    j.set("count", Json::number(a[0]));
    j.set("host_ms", Json::number(a[1] / 1e6));
    j.set("virt_us", Json::number(a[2] / 1e6));
    by.set(name, std::move(j));
  }
  Json rec = Json::object();
  rec.set("kind", Json::string("spans"));
  rec.set("path", Json::string(path));
  rec.set("by_name", std::move(by));
  emit(rec);
}

struct Args {
  std::string_view workload;
  std::string_view mode;
  Seeds seeds;
  bool traced = false;
  std::vector<Time> windows;
  const char* spans_path = "";
};

template <typename T>
T parse_number(std::string_view text) {
  T v{};
  const auto [end, err] = std::from_chars(text.data(), text.data() + text.size(), v);
  PGASQ_CHECK(err == std::errc() && end == text.data() + text.size(),
              << "not a number: " << std::string(text));
  return v;
}

std::vector<Time> parse_times(std::string_view csv) {
  std::vector<Time> out;
  while (!csv.empty()) {
    const std::size_t comma = csv.find(',');
    out.push_back(parse_number<Time>(csv.substr(0, comma)));
    csv = comma == std::string_view::npos ? std::string_view() : csv.substr(comma + 1);
  }
  return out;
}

// Arguments are read as views of argv, with no heap copies: scf-at's
// event count depends on the heap layout (see perfbench/README.md,
// "Determinism guard"), so an argument-sized allocation, such as a
// spans path that differs between checkouts, must not precede the run.
Args parse_args(int argc, char** argv) {
  Args a;
  bool have_machine = false;
  bool have_app = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    PGASQ_CHECK(i + 1 < argc, << "missing value for " << argv[i]);
    const std::string_view val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--mode") {
      a.mode = val;
    } else if (key == "--machine-seed") {
      a.seeds.machine = parse_number<std::uint64_t>(val);
      have_machine = true;
    } else if (key == "--app-seed") {
      a.seeds.app = parse_number<std::uint64_t>(val);
      have_app = true;
    } else if (key == "--traced") {
      PGASQ_CHECK(val == "0" || val == "1", << "--traced takes 0 or 1");
      a.traced = val == "1";
    } else if (key == "--windows") {
      a.windows = parse_times(val);
    } else if (key == "--spans") {
      a.spans_path = argv[i];
    } else {
      PGASQ_CHECK(false, << "unknown argument " << argv[i - 1]);
    }
  }
  PGASQ_CHECK(have_machine && have_app, << "--machine-seed and --app-seed are required");
  PGASQ_CHECK(a.mode == "calibrate" || a.mode == "rep" || a.mode == "iso",
              << "--mode takes calibrate, rep or iso");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "scf-at") return std::make_unique<ScfAt>(a.seeds);
  if (a.workload == "coll-sw") return std::make_unique<CollSw>(a.seeds);
  if (a.workload == "kvs-zipf") return std::make_unique<KvsZipf>(a.seeds);
  PGASQ_CHECK(false, << "unknown workload '" << std::string(a.workload)
                     << "' (scf-at, coll-sw, kvs-zipf)");
  return nullptr;
}

void emit_process() {
  Json proc = Json::object();
  proc.set("kind", Json::string("process"));
  proc.set("peak_rss_mb", Json::number(peak_rss_mb()));
  emit(proc);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::unique_ptr<Workload> w = make_workload(args);
    if (args.mode == "calibrate") {
      Json rec = Json::object();
      rec.set("kind", Json::string("calibration"));
      rec.set("windows_ps", times_json(w->calibrate()));
      emit(rec);
    } else if (args.mode == "iso") {
      iso_event();
      iso_switch();
      iso_transfer(args.seeds.machine);
      iso_armci(args.seeds.machine);
    } else {
      g_spans.set_enabled(args.traced);
      Rep r;
      try {
        r = w->run(args.traced, args.windows);
      } catch (const std::exception& e) {
        // A repetition that throws fails every op it attempted.
        r = Rep();
        r.attempted = w->planned_ops();
        r.add_check("exception", false, r.attempted, e.what());
      }
      r.traced = args.traced;
      emit_rep(r);
      if (args.traced) write_spans(args.spans_path);
    }
    emit_process();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgasq_perf: %s\n", e.what());
    return 2;
  }
}
