// Collective algorithm selection (the "collective logic" layer).
//
// BG/Q ships two very different collective substrates: the 5D torus
// (point-to-point, what the ARMCI runtime of the paper drives) and the
// collective-logic / global-interrupt hardware that combines or
// broadcasts along a spanning tree embedded in the same wires at
// ~2 GB/s (S II-A). A PGAS runtime therefore picks, per collective
// invocation, between software schedules on the torus and the hardware
// path. This module is that decision table: message size x participant
// count x geometry -> algorithm, with `coll.*` option overrides.
#pragma once

#include <cstdint>
#include <string>

#include "core/types.hpp"
#include "util/knobs.hpp"

namespace pgasq::coll {

/// Collective operations; values index armci::CollStats / kCollOpNames.
enum class Op : int {
  kBarrier = 0,
  kBroadcast = 1,
  kReduce = 2,
  kAllreduce = 3,
  kAllgather = 4,
  kAlltoall = 5,
};

/// Algorithms; values index armci::CollStats / kCollAlgoNames.
enum class Algo : int {
  kAuto = -1,      ///< selection-table choice (never recorded in stats)
  kBinomial = 0,   ///< binomial / dissemination tree on ranks
  kRecdbl = 1,     ///< recursive doubling / halving (XOR partners)
  kTorusRing = 2,  ///< per-torus-dimension ring / bucket schedule
  kHw = 3,         ///< BG/Q collective-logic hardware model
  kHier = 4,       ///< node-aware two-level (shm combine + leaders)
  kRab = 5,        ///< Rabenseifner reduce-scatter + allgather allreduce
};

const char* op_name(Op op);
const char* algo_name(Algo algo);
/// Parses "binomial" / "recdbl" / "torus-ring" / "hw" / "hier" /
/// "rab" / "auto". Throws pgasq::Error on anything else.
Algo parse_algo(const std::string& name);

/// Participant-geometry facts the selection table keys on.
struct Geometry {
  int p = 1;               ///< participants (whole clique, or survivors)
  bool pow2 = false;       ///< p is a power of two
  int torus_dims = 0;      ///< torus dimensions of extent > 1 (incl. T)
  int diameter = 0;        ///< network diameter in hops
  bool link_faults = false;  ///< fault plan disables specific links
  /// Fault plan flips payload bits (fault.corrupt_prob > 0). The
  /// hardware collective-logic model moves no torus packets, so it can
  /// neither suffer nor detect corruption; it is deselected so
  /// corruption runs exercise the CRC-checked software schedules.
  bool corruption = false;
  /// Fail-stop communicator shrink: participants are a survivor subset
  /// of the clique. The hardware collective logic (which spans the
  /// whole partition) and the torus ring schedules (which need the
  /// full per-dimension rings) are unselectable.
  bool shrunk = false;
  /// Process-group engine (src/grp, or a hierarchy's internal child
  /// engines): the hardware collective logic spans the whole partition
  /// and is unselectable; rings survive when the member set decomposes
  /// into torus rings (torus_dims > 0).
  bool group = false;
  int ppn = 1;    ///< ranks per node (c) under the active mapping
  int nodes = 1;  ///< node count under the active mapping
  /// Two-level node-aware schedules are runnable: full world clique
  /// with ppn > 1 and more than one node.
  bool hier = false;
};

/// Tunables + per-op forced algorithms, parsed from the raw `coll.*`
/// key/value pairs that core carries in armci::Options::coll.
struct CollConfig {
  Algo force[armci::CollStats::kOps] = {Algo::kAuto, Algo::kAuto, Algo::kAuto,
                                        Algo::kAuto, Algo::kAuto, Algo::kAuto};

  /// Hardware collective-logic model (coll.hw=0 disables it; it is
  /// also deselected automatically when the fault plan fails links,
  /// so recovery tests exercise the software schedules).
  bool hw_enabled = true;
  double hw_gbps = 2.0;       ///< collective-network streaming rate
  double hw_hop_ns = 35.0;    ///< per-hop combine/forward latency
  double hw_startup_us = 2.0; ///< arm/fire cost (GI-barrier class)

  /// Below this payload, latency-optimal trees win over bandwidth
  /// schedules.
  std::uint64_t small_bytes = 2048;
  /// Torus-ring bucket schedules need enough payload per participant
  /// and enough participants to amortize their p-proportional step
  /// count.
  std::uint64_t ring_min_bytes = 64 * 1024;
  int ring_min_ranks = 16;
  /// Hierarchical (node-aware) schedules are preferred on the software
  /// path once this many ranks share a node: below that the intra-node
  /// combine saves too little inter-node traffic to pay for its extra
  /// phase (Table II's c sweep).
  int hier_min_ppn = 8;
  /// Segment size for the pipelined chain-tree broadcast; 0 keeps the
  /// whole-payload-per-hop schedule. The hierarchical fan-out always
  /// pipelines (with this value, or its own default when unset).
  std::uint64_t bcast_segment_bytes = 0;

  static CollConfig from_options(const armci::Options& options);

  /// The selection table. Returns the algorithm to run for `op` on
  /// `bytes` of payload: the forced override if set, otherwise the
  /// size/count/geometry default — in both cases normalized to an
  /// algorithm the op supports on this geometry (see normalize).
  Algo choose(Op op, std::uint64_t bytes, const Geometry& g) const;

  /// Maps (op, algo) to a supported combination: ops without a
  /// hardware path fall back to software, recursive doubling falls
  /// back when p is not a power of two and the op has no fold step,
  /// and the hardware model is refused while torus links are failed.
  Algo normalize(Op op, Algo algo, const Geometry& g) const;
};

/// The coll.* knobs; coll.algo.<op> is parsed by hand (from_options).
inline constexpr Knob<CollConfig> kCollKnobs[] = {
    {"hw", &CollConfig::hw_enabled},
    {"hw_gbps", &CollConfig::hw_gbps, 0},
    {"hw_hop_ns", &CollConfig::hw_hop_ns, 0},
    {"hw_startup_us", &CollConfig::hw_startup_us, 0},
    {"small_bytes", &CollConfig::small_bytes, 0},
    {"ring_min_bytes", &CollConfig::ring_min_bytes, 0},
    {"ring_min_ranks", &CollConfig::ring_min_ranks, 0},
    {"hier_min_ppn", &CollConfig::hier_min_ppn, 0},
    {"bcast_segment_bytes", &CollConfig::bcast_segment_bytes, 0},
};

}  // namespace pgasq::coll
