// The post-run communication report: content sanity, histogram
// plumbing through CommStats, and the field tables that declare every
// stats-struct metric once for both renderers.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/comm.hpp"
#include "core/report.hpp"
#include "core/report_json.hpp"
#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "flow/flow.hpp"
#include "ft/liveness.hpp"
#include "kvs/kvs.hpp"

namespace pgasq::armci {
namespace {

TEST(Report, ContainsTheRunsTraffic) {
  WorldConfig cfg;
  cfg.machine.num_ranks = 4;
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(8192);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(8192));
    const int peer = (comm.rank() + 1) % comm.nprocs();
    comm.put(buf, mem.at(peer), 4096);
    comm.get(mem.at(peer), buf, 64);
    std::vector<double> v(8, 1.0);
    comm.acc(1.0, v.data(), mem.at(peer), 8);
    comm.fetch_add(mem.at(0).offset(8000), 1);
    comm.barrier();
  });
  ReportOptions opt;
  opt.include_per_rank = true;
  const std::string report = render_report(world, opt);
  EXPECT_NE(report.find("pgasq communication report"), std::string::npos);
  EXPECT_NE(report.find("4 ranks"), std::string::npos);
  EXPECT_NE(report.find("rmw (fetch&add etc.)"), std::string::npos);
  EXPECT_NE(report.find("put sizes (log2 buckets):"), std::string::npos);
  EXPECT_NE(report.find("fence calls"), std::string::npos);
  // Per-rank table lists rank 0..3.
  EXPECT_NE(report.find("rank"), std::string::npos);
}

TEST(Report, HistogramsCountEveryOperation) {
  WorldConfig cfg;
  cfg.machine.num_ranks = 2;
  World world(cfg);
  world.spmd([](Comm& comm) {
    auto& mem = comm.malloc_collective(1 << 16);
    auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 16));
    if (comm.rank() == 0) {
      comm.put(buf, mem.at(1), 100);
      comm.put(buf, mem.at(1), 5000);
      comm.get(mem.at(1), buf, 256);
      EXPECT_EQ(comm.stats().put_sizes.total(), 2u);
      EXPECT_EQ(comm.stats().get_sizes.total(), 1u);
    }
    comm.barrier();
  });
  const CommStats total = world.total_stats();
  EXPECT_EQ(total.put_sizes.total(), 2u);
  EXPECT_EQ(total.get_sizes.total(), 1u);
}

/// Checks one field table against a finished run: each named row is in
/// `metrics` exactly once under `labels`, with the struct's value, and
/// each row's kind fits its member; each label is in `text`. Records
/// every name in `declared` (a name must not be declared twice).
template <class S>
void expect_table(const obs::Json& metrics, const std::string& text,
                  const S& s, obs::Fields<S> fields, const obs::Labels& labels,
                  std::map<std::string, int>& declared) {
  obs::Json want_labels = obs::Json::object();
  for (const auto& [k, v] : labels) want_labels.set(k, obs::Json::string(v));
  for (const obs::Field<S>& f : fields) {
    // The kind must fit the member type.
    switch (f.kind) {
      case obs::kCount:
      case obs::kBytes:
        EXPECT_TRUE(std::holds_alternative<std::uint64_t S::*>(f.member));
        break;
      case obs::kTime:
        EXPECT_TRUE(std::holds_alternative<Time S::*>(f.member));
        break;
      case obs::kHistogram:
        EXPECT_FALSE(std::holds_alternative<std::uint64_t S::*>(f.member) ||
                     std::holds_alternative<Time S::*>(f.member));
        EXPECT_EQ(f.label, nullptr) << "histograms have no text row";
        break;
    }
    if (f.label != nullptr) {
      EXPECT_NE(text.find(f.label), std::string::npos)
          << "label '" << f.label << "' missing from the text report";
    }
    if (f.name == nullptr) continue;
    ++declared[f.name];
    int found = 0;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const obs::Json& m = metrics[i];
      const obs::Json* l = m.find("labels");
      if (m.at("name").as_string() != f.name ||
          (l != nullptr ? *l : obs::Json::object()).dump() !=
              want_labels.dump()) {
        continue;
      }
      ++found;
      std::visit(
          [&](auto member) {
            using V = std::remove_cvref_t<decltype(s.*member)>;
            if constexpr (std::is_same_v<V, Time>) {
              EXPECT_EQ(m.at("value").dump(),
                        obs::Json::number(to_us(s.*member)).dump())
                  << f.name;
            } else if constexpr (std::is_same_v<V, std::uint64_t>) {
              EXPECT_EQ(m.at("value").as_uint(), s.*member) << f.name;
            } else {
              EXPECT_EQ(m.at("total").as_uint(), (s.*member).total())
                  << f.name;
            }
          },
          f.member);
    }
    EXPECT_EQ(found, 1) << f.name << " in the JSON registry";
  }
}

// Every row of every field table reaches both renderers: one small
// KVS World with drop, corrupt and node-death faults (so integrity and
// fail-stop recovery are on), flow credits, and hierarchical
// allreduces (whose node/leader process groups fill grp.coll.*).
TEST(Report, EveryDeclaredMetricRendersOnce) {
  kvs::KvConfig kc;
  kc.keys = 256;
  kc.requests = 24;
  kc.get_ratio = 0.4;
  kc.faa_ratio = 0.2;
  kc.checkpoint_every = 8;
  kc.think_us = 25.0;

  WorldConfig cfg;
  cfg.machine.num_ranks = 8;
  cfg.machine.ranks_per_node = 2;
  cfg.armci.coll = {{"algo.allreduce", "hier"}, {"algo.barrier", "hier"}};
  cfg.machine.flow.configured = true;
  cfg.machine.flow.credits = 2;
  Time death_at = 0;
  {
    World clean(cfg);
    const kvs::KvResult r = kvs::run_workload(clean, kc);
    death_at = r.traffic_begin + (r.traffic_end - r.traffic_begin) / 2;
  }
  cfg.machine.fault.seed = 11;
  cfg.machine.fault.drop_prob = 0.01;
  cfg.machine.fault.corrupt_prob = 0.01;
  cfg.machine.fault.node_fails.push_back({3, death_at});
  World world(cfg);
  const kvs::KvResult r = kvs::run_workload(world, kc);
  const obs::Labels mix{{"mix", "zipfian"}};
  kvs::export_metrics(world.app_metrics(), r, mix);

  const pami::Machine& m = world.machine();
  ASSERT_NE(m.injector(), nullptr);
  ASSERT_NE(m.integrity(), nullptr);
  ASSERT_NE(m.monitor(), nullptr);
  ASSERT_NE(m.flow(), nullptr);
  EXPECT_GT(m.monitor()->stats().detections, 0u);
  EXPECT_GT(m.integrity()->stats().crc_checks, 0u);
  const CommStats s = world.total_stats();
  EXPECT_FALSE(s.group_coll.empty()) << "no process-group collectives ran";

  const obs::Json metrics = build_registry(world).to_json();
  const std::string text = render_report(world);
  std::map<std::string, int> declared;
  expect_table(metrics, text, s, kCommStatsFields, {}, declared);
  expect_table(metrics, text, m.injector()->stats(),
               fault::kFaultStatsFields, {}, declared);
  expect_table(metrics, text, m.integrity()->stats(),
               fault::kIntegrityStatsFields, {}, declared);
  expect_table(metrics, text, m.monitor()->stats(), ft::kFtStatsFields, {},
               declared);
  expect_table(metrics, text, m.flow()->stats(), flow::kFlowStatsFields, {},
               declared);
  expect_table(metrics, text, r.total, kvs::kKvStatsFields, mix, declared);
  for (const auto& [name, n] : declared) {
    EXPECT_EQ(n, 1) << name << " is declared by " << n << " table rows";
  }
  EXPECT_NE(text.find("group 'hier-node'"), std::string::npos) << text;
}

TEST(RegionCachePolicy, LruEvictsByRecencyLfuByFrequency) {
  // Direct unit check of the two policies over the same access trace.
  auto region = [](std::uint64_t id) {
    static std::byte arena[1 << 14];
    return pami::MemoryRegion{1, arena + id * 128, 64, id};
  };
  for (const auto policy : {CacheReplacement::kLfu, CacheReplacement::kLru}) {
    RegionCache cache(2, policy);
    cache.insert(1, region(1));
    cache.insert(1, region(2));
    // Heat region 1, then touch region 2 last.
    for (int i = 0; i < 5; ++i) cache.lookup(1, region(1).base, 8);
    cache.lookup(1, region(2).base, 8);
    cache.insert(1, region(3));  // forces an eviction
    if (policy == CacheReplacement::kLfu) {
      // 2 had lower frequency: evicted despite being recent.
      EXPECT_TRUE(cache.lookup(1, region(1).base, 8).has_value());
      EXPECT_FALSE(cache.lookup(1, region(2).base, 8).has_value());
    } else {
      // 1 was less recent at eviction time? No: 1 was touched before 2,
      // so LRU evicts 1.
      EXPECT_FALSE(cache.lookup(1, region(1).base, 8).has_value());
      EXPECT_TRUE(cache.lookup(1, region(2).base, 8).has_value());
    }
  }
}

TEST(RegionCachePolicy, WorldOptionSelectsPolicy) {
  WorldConfig cfg;
  cfg.machine.num_ranks = 2;
  cfg.armci.region_cache_policy = CacheReplacement::kLru;
  World world(cfg);
  world.spmd([](Comm& comm) {
    EXPECT_EQ(comm.region_cache().policy(), CacheReplacement::kLru);
    comm.barrier();
  });
}

}  // namespace
}  // namespace pgasq::armci
