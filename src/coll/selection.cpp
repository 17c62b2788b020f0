#include "coll/selection.hpp"

#include "util/config.hpp"
#include "util/error.hpp"

namespace pgasq::coll {

const char* op_name(Op op) {
  return armci::kCollOpNames[static_cast<int>(op)];
}

const char* algo_name(Algo algo) {
  PGASQ_CHECK(algo != Algo::kAuto);
  return armci::kCollAlgoNames[static_cast<int>(algo)];
}

Algo parse_algo(const std::string& name) {
  if (name == "auto") return Algo::kAuto;
  for (int a = 0; a < armci::CollStats::kAlgos; ++a) {
    if (name == armci::kCollAlgoNames[a]) return static_cast<Algo>(a);
  }
  PGASQ_CHECK(false, << "unknown collective algorithm '" << name << "'");
  return Algo::kAuto;
}

namespace {

/// coll.algo.<op> keys address ops by their report name.
int op_index(const std::string& name) {
  for (int op = 0; op < armci::CollStats::kOps; ++op) {
    if (name == armci::kCollOpNames[op]) return op;
  }
  return -1;
}

}  // namespace

CollConfig CollConfig::from_options(const armci::Options& options) {
  CollConfig c;
  Config knobs;
  for (const auto& [key, value] : options.coll) {
    if (key.rfind("algo.", 0) == 0) {
      const int op = op_index(key.substr(5));
      PGASQ_CHECK(op >= 0, << "coll." << key << ": unknown collective");
      c.force[op] = parse_algo(value);
    } else {
      knobs.set("coll." + key, value);
    }
  }
  parse_knobs(knobs, "coll", kCollKnobs, c);
  return c;
}

Algo CollConfig::choose(Op op, std::uint64_t bytes, const Geometry& g) const {
  const Algo forced = force[static_cast<int>(op)];
  if (forced != Algo::kAuto) return normalize(op, forced, g);

  const bool hw =
      hw_enabled && !g.link_faults && !g.corruption && !g.shrunk && !g.group;
  const bool ring =
      g.p >= ring_min_ranks && bytes >= ring_min_bytes && g.torus_dims > 0;
  // Node-aware two-level schedules pay off on the software path once
  // enough ranks share a node (Table II's c sweep): the intra-node
  // combine collapses c contributions over shared memory, so every
  // inter-node link carries one transfer instead of c.
  const bool hier = g.hier && g.ppn >= hier_min_ppn;
  Algo pick = Algo::kBinomial;
  switch (op) {
    case Op::kBarrier:
      // The global-interrupt network is the barrier on BG/Q.
      pick = hw ? Algo::kHw : Algo::kRecdbl;
      break;
    // For the combine/replicate collectives the collective logic wins
    // at every size in our calibration (startup ~2 us vs log2(p)
    // software rounds; 2 GB/s streaming vs multi-pass software), just
    // as BG/Q routes MPI_COMM_WORLD collectives over the collective
    // network at all sizes (S II-A). The size/geometry thresholds
    // pick the *software* schedule when hw is unavailable (disabled,
    // or deselected by a link-fault plan).
    case Op::kBroadcast:
      pick = hw                  ? Algo::kHw
             : hier              ? Algo::kHier
             : bytes < small_bytes ? Algo::kBinomial
             : ring              ? Algo::kTorusRing
                                 : Algo::kBinomial;
      break;
    case Op::kReduce:
      pick = hw ? Algo::kHw : hier ? Algo::kHier : Algo::kBinomial;
      break;
    case Op::kAllreduce:
      // Mid-size software band: the reduce-scatter + allgather
      // schedule (Rabenseifner) moves ~2n doubles per rank where
      // recursive doubling moves n log2(p) — it carries payloads that
      // are bandwidth-bound but too small (or the geometry too
      // irregular) for the torus-ring bucket schedule.
      pick = hw                  ? Algo::kHw
             : hier              ? Algo::kHier
             : bytes < small_bytes ? Algo::kRecdbl
             : ring              ? Algo::kTorusRing
                                 : Algo::kRab;
      break;
    case Op::kAllgather:
      // Total result is p * bytes: bandwidth schedules win early.
      pick = hier ? Algo::kHier
             : (g.pow2 && bytes * static_cast<std::uint64_t>(g.p) < ring_min_bytes)
                 ? Algo::kRecdbl
                 : Algo::kTorusRing;
      break;
    case Op::kAlltoall:
      pick = Algo::kTorusRing;
      break;
  }
  return normalize(op, pick, g);
}

Algo CollConfig::normalize(Op op, Algo algo, const Geometry& g) const {
  PGASQ_CHECK(algo != Algo::kAuto);
  if (g.p == 1) return algo;  // every algorithm degenerates to a no-op
  // Rabenseifner only exists for allreduce (the scatter and gather
  // phases are two halves of one combine); elsewhere it degrades to
  // recursive doubling and rides that algorithm's fall-backs below.
  if (algo == Algo::kRab && op != Op::kAllreduce) algo = Algo::kRecdbl;
  // The hardware model moves no torus packets, so it cannot honour a
  // fault plan that fails links or corrupts payloads; and it spans the
  // whole partition, so a shrunk survivor clique cannot ride it
  // either. Route through software in all these cases.
  if (algo == Algo::kHw && (!hw_enabled || g.link_faults || g.corruption ||
                            g.shrunk || g.group)) {
    algo = op == Op::kBarrier || op == Op::kAllreduce ? Algo::kRecdbl
                                                      : Algo::kBinomial;
  }
  // The two-level schedules need the full world clique mapped with
  // more than one rank per node and more than one node; the
  // personalized exchange has no combine step to hoist into a node, so
  // alltoall always runs flat.
  if (algo == Algo::kHier && (!g.hier || op == Op::kAlltoall)) {
    switch (op) {
      case Op::kBarrier:
      case Op::kAllreduce:
        algo = Algo::kRecdbl;
        break;
      case Op::kAlltoall:
        algo = g.torus_dims > 0 ? Algo::kTorusRing : Algo::kRecdbl;
        break;
      case Op::kAllgather:
        algo = g.torus_dims > 0 ? Algo::kTorusRing : Algo::kBinomial;
        break;
      default:
        algo = Algo::kBinomial;
        break;
    }
  }
  // The ring schedules need the full per-dimension torus rings; a
  // shrunk clique reports torus_dims == 0.
  if (algo == Algo::kTorusRing && g.torus_dims == 0) {
    switch (op) {
      case Op::kBarrier:
      case Op::kAllreduce:
        algo = Algo::kRecdbl;
        break;
      case Op::kAlltoall:
        algo = Algo::kRecdbl;  // pairwise-xor handles any p
        break;
      default:
        algo = Algo::kBinomial;
        break;
    }
  }
  switch (op) {
    case Op::kBarrier:
      return algo;  // all four exist
    case Op::kBroadcast:
      // No halving/doubling broadcast; the tree is the latency algo.
      return algo == Algo::kRecdbl ? Algo::kBinomial : algo;
    case Op::kReduce:
      if (algo == Algo::kRecdbl) return Algo::kBinomial;
      return algo;
    case Op::kAllreduce:
      return algo;  // recdbl carries the non-power-of-two fold step
    case Op::kAllgather:
      if (algo == Algo::kHw) return Algo::kTorusRing;
      if (algo == Algo::kRecdbl && !g.pow2) {
        return g.torus_dims > 0 ? Algo::kTorusRing : Algo::kBinomial;
      }
      return algo;
    case Op::kAlltoall:
      // Personalized exchange has no combine: hardware logic and trees
      // do not apply. XOR-pairing covers any p (non-pow2 ranks sit out
      // the steps whose partner falls past p).
      if (algo == Algo::kHw || algo == Algo::kBinomial) {
        return g.torus_dims > 0 ? Algo::kTorusRing : Algo::kRecdbl;
      }
      return algo;
  }
  return algo;
}

}  // namespace pgasq::coll
