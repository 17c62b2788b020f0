// Ablation: deterministic dimension-order vs (emulated) dynamic
// routing under hot-spot traffic. BG/Q hardware supports dynamic
// routing but the paper-era software stack exposed deterministic only
// (S II-A footnote 1) — this experiment quantifies what that left on
// the table for incast patterns, at the network level (dynamic routing
// forfeits PAMI's pairwise ordering, so the full ARMCI stack stays on
// deterministic routes).
#include "common.hpp"
#include "noc/network.hpp"
#include "topo/torus.hpp"

using namespace pgasq;

namespace {

/// All-to-one incast at the raw network level: every node fires one
/// message at node 0 at t=0; report when the last one lands.
double incast_us(const std::string& model, bool dynamic, int nodes,
                 std::uint64_t bytes) {
  topo::Torus5D torus(topo::has_bgq_partition(nodes)
                          ? topo::bgq_partition_dims(nodes)
                          : topo::balanced_dims(nodes));
  noc::BgqParameters params;
  params.dynamic_routing = dynamic;
  auto net = noc::make_network_model(model, torus, params);
  Time last = 0;
  for (int n = 1; n < torus.num_nodes(); ++n) {
    const auto t = net->transfer(n, 0, bytes, 0);
    last = std::max(last, t.arrive);
  }
  return to_us(last);
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  bench::print_banner("bench_abl_routing: deterministic vs dynamic routing (incast)",
                      "S II-A footnote 1 — what deterministic-only software costs");
  const std::uint64_t bytes = static_cast<std::uint64_t>(cli.get_int("bytes", 65536));
  cli.reject_unused();
  Table table({"nodes", "loggp_us", "det_contention_us", "dyn_contention_us",
               "dyn_speedup"});
  for (int nodes : {32, 128, 512}) {
    const double ideal = incast_us("loggp", false, nodes, bytes);
    const double det = incast_us("contention", false, nodes, bytes);
    const double dyn = incast_us("contention", true, nodes, bytes);
    table.row().add(nodes).add(ideal, 1).add(det, 1).add(dyn, 1).add(det / dyn, 2);
  }
  table.print();
  std::printf("(64KB from every node to node 0 at t=0; dynamic routing spreads\n"
              " the convergecast over more inbound links)\n");
  return 0;
}
