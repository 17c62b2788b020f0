// Overload control (src/flow): credit-window backpressure at prime
// rank counts, server-side deadline shedding with the typed error
// hierarchy, deterministic jittered backoff, zero-cost-off identity,
// open-loop shed determinism, and config typo rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "core/comm.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "flow/flow.hpp"
#include "kvs/kvs.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace pgasq::armci {
namespace {

WorldConfig world_of(int ranks) {
  WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  return cfg;
}

// jitter() is the anti-storm primitive: it must be a pure function of
// (seed, rank, attempt), stay inside [1 - s, 1 + s), give distinct
// ranks distinct draws (the desynchronization property), and collapse
// to exactly 1.0 when the spread is off.
TEST(Flow, JitterIsDeterministicBoundedAndDesynchronizing) {
  const double s = 0.5;
  std::set<double> distinct;
  for (int rank = 0; rank < 16; ++rank) {
    for (std::uint64_t attempt = 0; attempt < 8; ++attempt) {
      const double a = flow::jitter(42, rank, attempt, s);
      EXPECT_EQ(a, flow::jitter(42, rank, attempt, s));
      EXPECT_GE(a, 1.0 - s);
      EXPECT_LT(a, 1.0 + s);
      if (attempt == 3) distinct.insert(a);
    }
  }
  // 16 ranks at the same attempt must not share a factor — a shared
  // draw is exactly the synchronized retry storm jitter exists to break.
  EXPECT_EQ(distinct.size(), 16u);
  EXPECT_EQ(flow::jitter(42, 3, 1, 0.0), 1.0);
  EXPECT_EQ(flow::jitter(42, 3, 1, -1.0), 1.0);
}

// RetryBudget: backoffs grow exponentially under the cap and within
// the jitter envelope, allow() flips after the budget is spent, and a
// zero budget reproduces the historical free spin (no backoff at all).
TEST(Flow, RetryBudgetBacksOffThenExhausts) {
  flow::FlowConfig cfg;
  cfg.retry_budget = 4;
  cfg.retry_backoff_us = 2.0;
  cfg.retry_max_backoff_us = 8.0;
  flow::RetryBudget b(cfg, /*rank=*/3, /*op_id=*/17);
  double prev_cap = 0.0;
  for (int attempt = 0; attempt < 4; ++attempt) {
    ASSERT_TRUE(b.allow()) << "attempt " << attempt;
    const double cap =
        std::min(2.0 * static_cast<double>(1u << attempt), 8.0);
    const double us = to_s(b.next_backoff()) * 1e6;
    EXPECT_GE(us, 0.5 * cap) << "attempt " << attempt;
    EXPECT_LT(us, 1.5 * cap) << "attempt " << attempt;
    EXPECT_GE(cap, prev_cap);
    prev_cap = cap;
  }
  EXPECT_FALSE(b.allow());
  EXPECT_EQ(b.used(), 4u);

  flow::FlowConfig off;
  off.retry_budget = 0;
  flow::RetryBudget free_spin(off, 0, 0);
  EXPECT_TRUE(free_spin.allow());
  EXPECT_EQ(free_spin.next_backoff(), 0);
  EXPECT_TRUE(free_spin.allow());
}

// A credit window of 1 on each (src,dst) pair must visibly stall a
// burst of back-to-back transfers: each rank fires four non-blocking
// puts at its neighbour, so three of them find the window full. Prime
// rank counts keep the pair matrix irregular.
TEST(Flow, CreditWindowBackpressuresAtPrimeRanks) {
  for (const int n : {7, 13}) {
    WorldConfig cfg = world_of(n);
    cfg.machine.flow.configured = true;
    cfg.machine.flow.credits = 1;
    World world(cfg);
    world.spmd([n](Comm& comm) {
      constexpr std::size_t kBytes = 32 * 1024;
      auto& mem = comm.malloc_collective(4 * kBytes);
      std::vector<std::byte> src(4 * kBytes, std::byte{0x5a});
      const RankId dst = (comm.rank() + 1) % n;
      Handle h[4];
      for (int i = 0; i < 4; ++i) {
        comm.nb_put(src.data() + static_cast<std::size_t>(i) * kBytes,
                    mem.at(dst, static_cast<std::size_t>(i) * kBytes), kBytes,
                    h[i]);
      }
      for (auto& hh : h) comm.wait(hh);
      comm.barrier();
    });
    const flow::Controller* fc = world.machine().flow();
    ASSERT_NE(fc, nullptr) << n << " ranks";
    EXPECT_GT(fc->stats().credit_stalls, 0u) << n << " ranks";
    EXPECT_GT(fc->stats().credit_stall_time, 0) << n << " ranks";
    EXPECT_GT(fc->stats().queue_depth.total(), 0u) << n << " ranks";
    // The stalls surface in the text report's overload-control table.
    const std::string text = render_report(world);
    EXPECT_NE(text.find("overload control (flow)"), std::string::npos);
  }
}

// A request whose absolute deadline has already passed when the server
// dequeues it is shed before servicing; the blocking client call
// throws flow::DeadlineError, which IS-A FaultError so existing
// guarded recovery paths catch it without new plumbing. Clearing the
// deadline restores normal service on the same comm. Every rmw and
// the fall-back (target-serviced) get obey the same rule.
TEST(Flow, DeadlineShedsServerSideWithTypedError) {
  WorldConfig cfg = world_of(2);
  cfg.machine.flow.configured = true;
  cfg.machine.flow.deadline_us = 1000.0;
  World world(cfg);
  std::vector<char> typed(2, 0), as_fault(2, 0);
  // Host memory no rank registered: a get from it takes the fall-back.
  std::vector<double> unregistered(1, 42.0);
  world.spmd([&](Comm& comm) {
    auto& mem = comm.malloc_collective(64);
    comm.barrier();
    if (comm.rank() == 0) {
      const auto me = static_cast<std::size_t>(comm.rank());
      comm.set_op_deadline(Time{1});  // 1 ps: expired long before dequeue
      try {
        comm.fetch_add(mem.at(1), 5);
      } catch (const flow::DeadlineError&) {
        typed[me] = 1;
      }
      comm.set_op_deadline(Time{1});
      try {
        comm.fetch_add(mem.at(1), 5);
      } catch (const FaultError&) {  // the base class must catch it too
        as_fault[me] = 1;
      }
      comm.set_op_deadline(0);
      EXPECT_EQ(comm.fetch_add(mem.at(1), 5), 0);  // service restored
      EXPECT_EQ(comm.fetch_add(mem.at(1), 0), 5);

      const RemotePtr fallback{1, reinterpret_cast<std::byte*>(unregistered.data())};
      double got = 0.0;
      const std::vector<std::pair<const char*, std::function<void()>>> ops = {
          {"swap", [&] { comm.swap(mem.at(1), 7); }},
          {"compare_swap", [&] { comm.compare_swap(mem.at(1), 7, 9); }},
          {"get", [&] { comm.get(fallback, &got, sizeof(double)); }},
      };
      for (const auto& [what, op] : ops) {
        comm.set_op_deadline(Time{1});
        EXPECT_THROW(op(), flow::DeadlineError) << what;
      }
      comm.set_op_deadline(0);
      EXPECT_EQ(comm.swap(mem.at(1), 7), 5);
      EXPECT_EQ(comm.compare_swap(mem.at(1), 7, 9), 7);
      EXPECT_EQ(comm.fetch_add(mem.at(1), 0), 9);
      const std::uint64_t fallback_gets = comm.stats().fallback_gets;
      comm.get(fallback, &got, sizeof(double));
      EXPECT_DOUBLE_EQ(got, 42.0);
      EXPECT_EQ(comm.stats().fallback_gets, fallback_gets + 1);
    }
    comm.barrier();
  });
  EXPECT_EQ(typed[0], 1);
  EXPECT_EQ(as_fault[0], 1);
  ASSERT_NE(world.machine().flow(), nullptr);
  EXPECT_GE(world.machine().flow()->stats().expired_server, 5u);
}

// Zero-cost-off: a run with flow.* keys present but no hook enabled
// (no controller is built), and a run with an enabled-but-never-
// binding credit window, must both reproduce the flow-unset workload
// bit for bit — shard CRCs, op counts, and virtual time.
TEST(Flow, OffAndNonBindingRunsAreByteIdenticalToUnset) {
  kvs::KvConfig kc;
  kc.keys = 256;
  kc.requests = 24;
  kc.get_ratio = 0.5;
  kc.faa_ratio = 0.2;

  auto run = [&](const flow::FlowConfig& fl, std::uint64_t* stalls) {
    WorldConfig cfg = world_of(7);
    cfg.machine.flow = fl;
    World world(cfg);
    const kvs::KvResult r = kvs::run_workload(world, kc);
    if (stalls != nullptr) {
      const flow::Controller* fc = world.machine().flow();
      *stalls = fc != nullptr ? fc->stats().credit_stalls : 0;
    }
    return r;
  };

  const kvs::KvResult unset = run(flow::FlowConfig{}, nullptr);

  flow::FlowConfig parsed_only;  // e.g. just flow.seed in the config
  parsed_only.configured = true;
  const kvs::KvResult off = run(parsed_only, nullptr);

  flow::FlowConfig huge;  // controller built, window can never fill
  huge.configured = true;
  huge.credits = 1 << 20;
  std::uint64_t stalls = 1;
  const kvs::KvResult slack = run(huge, &stalls);

  for (const kvs::KvResult* r : {&off, &slack}) {
    EXPECT_EQ(unset.shard_crcs, r->shard_crcs);
    EXPECT_EQ(unset.acked_ops, r->acked_ops);
    EXPECT_EQ(unset.elapsed_s, r->elapsed_s);
    EXPECT_EQ(unset.total.get_lat.quantile(0.99),
              r->total.get_lat.quantile(0.99));
  }
  EXPECT_EQ(stalls, 0u) << "a never-binding window must never stall";
}

// The open-loop overload path is a pure function of the seed: two
// identical over-driven runs must agree on every shed/expiry decision,
// not just on aggregate throughput.
TEST(Flow, OpenLoopSheddingIsDeterministic) {
  kvs::KvConfig kc;
  kc.keys = 256;
  kc.requests = 48;
  kc.get_ratio = 0.7;
  kc.arrival_rate = 4.0e5;  // well past the ~155k/s/rank saturation
  kc.slo_us = 50.0;

  flow::FlowConfig fl;
  fl.configured = true;
  fl.deadline_us = 50.0;
  fl.admit = true;
  fl.low_prio_frac = 0.25;
  fl.retry_budget = 8;

  struct Shed {
    kvs::KvResult r;
    flow::FlowStats f;
  };
  auto run = [&] {
    WorldConfig cfg = world_of(7);
    cfg.machine.flow = fl;
    World world(cfg);
    Shed out{kvs::run_workload(world, kc), {}};
    const flow::Controller* fc = world.machine().flow();
    if (fc != nullptr) {
      out.f.expired_server = fc->stats().expired_server;
      out.f.expired_client = fc->stats().expired_client;
      out.f.shed_low_prio = fc->stats().shed_low_prio;
      out.f.shed_high_prio = fc->stats().shed_high_prio;
    }
    return out;
  };
  const Shed a = run();
  const Shed b = run();
  EXPECT_GT(a.r.total.shed_ops + a.f.expired_server + a.f.expired_client, 0u)
      << "an over-driven open loop must shed somewhere";
  EXPECT_EQ(a.r.acked_ops, b.r.acked_ops);
  EXPECT_EQ(a.r.total.shed_ops, b.r.total.shed_ops);
  EXPECT_EQ(a.r.total.expired_ops, b.r.total.expired_ops);
  EXPECT_EQ(a.r.total.deadline_errors, b.r.total.deadline_errors);
  EXPECT_EQ(a.f.expired_server, b.f.expired_server);
  EXPECT_EQ(a.f.expired_client, b.f.expired_client);
  EXPECT_EQ(a.f.shed_low_prio, b.f.shed_low_prio);
  EXPECT_EQ(a.f.shed_high_prio, b.f.shed_high_prio);
  EXPECT_EQ(a.r.elapsed_s, b.r.elapsed_s);
}

// flow./fault./kvs. overload knobs are reject_unknown-checked with
// typo suggestions, and out-of-range values fail loudly at parse time.
TEST(Flow, ConfigRejectsTyposAndBadValues) {
  auto expect_suggestion = [](const char* key, const char* value,
                              const char* suggestion, auto parse) {
    Config cfg;
    cfg.set(key, value);
    try {
      parse(cfg);
      FAIL() << key << " must be rejected";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find(suggestion), std::string::npos) << what;
    }
  };
  auto parse_flow = [](const Config& c) { flow::FlowConfig::from_config(c, {}); };
  auto parse_kvs = [](const Config& c) { kvs::KvConfig::from_config(c); };
  auto parse_fault = [](const Config& c) { fault::FaultPlan::from_config(c); };
  expect_suggestion("flow.credtis", "4", "did you mean flow.credits?",
                    parse_flow);
  expect_suggestion("flow.dead_line_us", "10", "did you mean flow.deadline_us?",
                    parse_flow);
  expect_suggestion("kvs.prefil", "true", "did you mean kvs.prefill?",
                    parse_kvs);
  expect_suggestion("kvs.hedge_u", "5", "did you mean kvs.hedge_us?",
                    parse_kvs);
  expect_suggestion("fault.backoff_jiter", "0.3",
                    "did you mean fault.backoff_jitter?", parse_fault);

  Config ok;
  ok.set("flow.credits", "3");
  ok.set("flow.deadline_us", "25");
  ok.set("flow.admit", "true");
  ok.set("flow.low_prio_frac", "0.1");
  const flow::FlowConfig fl = flow::FlowConfig::from_config(ok, {});
  EXPECT_TRUE(fl.configured);
  EXPECT_TRUE(fl.enabled());
  EXPECT_EQ(fl.credits, 3);
  EXPECT_DOUBLE_EQ(fl.deadline_us, 25.0);
  EXPECT_TRUE(fl.admit);

  Config bad_dec;
  bad_dec.set("flow.aimd_dec", "1.5");
  EXPECT_THROW(flow::FlowConfig::from_config(bad_dec, {}), Error);
  Config bad_jitter;
  bad_jitter.set("fault.backoff_jitter", "1.0");
  EXPECT_THROW(fault::FaultPlan::from_config(bad_jitter), Error);

  // Values the member type cannot hold are errors naming the key, not
  // silent wraps: 2^32 + 1 credits used to become 1.
  auto expect_bad_value = [](const char* key, const char* value, auto parse) {
    Config cfg;
    cfg.set(key, value);
    try {
      parse(cfg);
      FAIL() << key << "=" << value << " must be rejected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  };
  expect_bad_value("flow.credits", "4294967297", parse_flow);
  expect_bad_value("flow.credits", "-1", parse_flow);
  expect_bad_value("flow.init_limit", "0", parse_flow);
  expect_bad_value("flow.low_prio_frac", "1.5", parse_flow);
  expect_bad_value("flow.seed", "010x", parse_flow);
  expect_bad_value("flow.seed", "-1", parse_flow);  // no wrap to 2^64 - 1
  expect_bad_value("kvs.requests", "16.5", parse_kvs);
  expect_bad_value("kvs.keys", "0", parse_kvs);
  expect_bad_value("fault.corrupt_bits", "65", parse_fault);
  expect_bad_value("fault.stall", "0:abc:5", parse_fault);
  expect_bad_value("fault.node_fail", "4294967297:10", parse_fault);
}

}  // namespace
}  // namespace pgasq::armci
