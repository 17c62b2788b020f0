// Ablation: what end-to-end integrity costs and what it buys. The
// Fig-4-style contiguous put/get sweep runs with the silent-corruption
// rate swept over {0, 1e-6, 1e-4}; transport CRC verification arms
// automatically whenever corruption is planned, and a "crc rate=0"
// scenario isolates the pure checksum overhead on a clean fabric
// (target: < 2% off the baseline curve — BG/Q gets this for free from
// the torus link CRC, so the software stand-in must stay cheap).
//
// Knobs: the usual bench ones plus fault.seed, integrity.crc_setup_ns,
// integrity.crc_ns_per_byte and window=N. --report.json_path writes
// the versioned JSON report of the final (rate=1e-4) scenario, whose
// integrity.* metrics carry the detected == injected invariant.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "fault/fault.hpp"
#include "fault/integrity.hpp"

using namespace pgasq;

namespace {

struct Scenario {
  const char* name;
  double corrupt_prob;
  bool integrity;  // arm the layer even at rate 0
};

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner(
      "bench_abl_integrity: put/get bandwidth under CRC-verified transport",
      "Fig 4 with silent corruption — CRC+NACK repair cost vs corruption rate");
  const int window = static_cast<int>(cli.get_int("window", 32));
  bench::reject_unused_before_sweep(cli);

  const std::vector<Scenario> scenarios = {
      {"off", 0.0, false},
      {"crc rate=0", 0.0, true},
      {"crc rate=1e-6", 1e-6, true},
      {"crc rate=1e-4", 1e-4, true},
  };

  const std::vector<std::size_t> sizes = bench::size_sweep();
  // put bandwidth per size per scenario, for the overhead line below.
  std::vector<std::vector<double>> put_bw(scenarios.size());

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& sc = scenarios[s];
    armci::WorldConfig cfg = bench::make_world_config(cli, /*ranks=*/2);
    cfg.machine.dims = topo::Coord5{4, 1, 1, 1, 1};
    cfg.machine.ranks_per_node = 1;
    cfg.machine.num_ranks = 2;
    cfg.machine.fault.corrupt_prob = sc.corrupt_prob;
    if (sc.integrity) cfg.machine.integrity.configured = true;

    // One world per scenario so each row keeps consuming the injector's
    // corruption stream across the whole sweep (same rationale as
    // bench_abl_faults: a fresh world per size would replay the same
    // few draws and could miss every flip at the low rates).
    Table table({"bytes", "put_MB/s", "get_MB/s"});
    armci::World world(cfg);
    world.spmd([&](armci::Comm& comm) {
      auto& mem = comm.malloc_collective(1 << 20);
      auto* buf = static_cast<std::byte*>(comm.malloc_local(1 << 20));
      if (comm.rank() == 0) {
        comm.get(mem.at(1), buf, 16);  // warm the region cache
        comm.fence(1);
        for (std::size_t m : sizes) {
          Time t0 = comm.now();
          {
            armci::Handle h;
            for (int i = 0; i < window; ++i) comm.nb_put(buf, mem.at(1), m, h);
            comm.wait(h);
          }
          const double put =
              static_cast<double>(window) * static_cast<double>(m) /
              to_s(comm.now() - t0) / 1e6;
          comm.fence(1);
          t0 = comm.now();
          {
            armci::Handle h;
            for (int i = 0; i < window; ++i) comm.nb_get(mem.at(1), buf, m, h);
            comm.wait(h);
          }
          const double get =
              static_cast<double>(window) * static_cast<double>(m) /
              to_s(comm.now() - t0) / 1e6;
          put_bw[s].push_back(put);
          table.row().add(format_bytes(m)).add(put, 1).add(get, 1);
        }
      }
      comm.barrier();
    });
    std::printf("\n--- scenario %s (seed=%llu) ---\n", sc.name,
                static_cast<unsigned long long>(cfg.machine.fault.seed));
    table.print();
    std::uint64_t injected = 0;
    if (const fault::Injector* inj = world.machine().injector()) {
      injected = inj->stats().packets_corrupted;
    }
    if (const fault::Integrity* ig = world.machine().integrity()) {
      const fault::IntegrityStats& is = ig->stats();
      std::printf("crc_checks=%llu injected=%llu detected=%llu nacks=%llu "
                  "echo_acks=%llu\n",
                  static_cast<unsigned long long>(is.crc_checks),
                  static_cast<unsigned long long>(injected),
                  static_cast<unsigned long long>(is.corruptions_detected),
                  static_cast<unsigned long long>(is.nacks_sent),
                  static_cast<unsigned long long>(is.echo_crc_acks));
    }
    // The JSON report describes the most interesting scenario: the
    // highest corruption rate, where integrity.* metrics are nonzero.
    if (s + 1 == scenarios.size()) bench::emit_observability(cli, world);
  }

  // Pure CRC overhead on a clean fabric: scenario 1 vs scenario 0,
  // worst case over the size sweep.
  double worst = 0.0;
  for (std::size_t i = 0; i < put_bw[0].size(); ++i) {
    const double loss = 1.0 - put_bw[1][i] / put_bw[0][i];
    if (loss > worst) worst = loss;
  }
  std::printf("\nCRC-on overhead at corruption rate 0: worst %.2f%% of put "
              "bandwidth across the sweep (budget: 2%%)\n",
              100.0 * worst);
  return worst < 0.02 ? 0 : 1;
}
