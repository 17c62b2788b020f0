// End-to-end data integrity: CRC-verified transport, checksummed
// collective slots, self-checking checkpoints.
//
// BG/Q's fabric carries a hardware CRC per torus packet and ECC on
// every memory; the reproduction's commodity-cluster configurations
// get neither, so a flipped payload bit would silently poison a Fock
// matrix or a checkpoint. This module is the software stand-in:
//
//   * transport  — pami::Context computes a CRC32C over every
//     put/get/rput/rget/typed/AM payload at injection and verifies it
//     on delivery; a mismatch is NACKed back to the sender, which
//     retransmits on the context's existing retry budget with capped
//     backoff. Acks echo the payload CRC so one-sided completions are
//     end-to-end verified. Budget exhaustion on a corrupted leg raises
//     IntegrityError (a typed FaultError subclass).
//   * collectives — CollEngine slot transport checksums each hop, so a
//     software schedule detects corruption mid-tree and re-requests
//     the slot from the sender's retained stage instead of folding
//     garbage into a reduction (src/coll). Active when transport
//     verification is off (defense in depth for silent-delivery runs).
//   * checkpoints — ft::Runtime stores a CRC32C digest per checkpoint
//     shard and validates it *before* rollback; a bad newest buffer
//     falls back to the older double-buffered copy, and when both are
//     bad recovery aborts loudly (IntegrityError) rather than restore
//     garbage.
//
// Zero-cost guarantee: the machine constructs an Integrity object only
// when corruption is planned or an integrity.* knob is set; every hook
// is one pointer test against nullptr and timings are bit-identical to
// a build without this module when it is off.
#pragma once

#include <cstdint>

#include "obs/fields.hpp"
#include "util/knobs.hpp"
#include "util/time_types.hpp"

namespace pgasq {

namespace fault {

/// Parsed `integrity.*` knobs. `configured` is true when any key was
/// present — a machine builds the Integrity layer when corruption is
/// planned (fault.corrupt_prob > 0) or when explicitly configured.
struct IntegrityConfig {
  bool configured = false;
  /// Transport CRC verification + NACK/retransmit (`integrity.verify`).
  /// Off = flipped payloads land in application memory and only the
  /// coll/ft defenses stand between them and the physics.
  bool verify = true;
  /// Collective slot checksums + re-request (`integrity.coll_check`).
  bool coll_check = true;
  /// Checkpoint shard digests + pre-rollback validation
  /// (`integrity.ckpt_digest`).
  bool ckpt_digest = true;
  /// Virtual cost of one CRC pass over a payload: fixed setup plus a
  /// per-byte term (`integrity.crc_setup_ns`, `integrity.crc_ns_per_byte`).
  /// Defaults model a hardware-assisted CRC32C near memory bandwidth.
  double crc_setup_ns = 20.0;
  double crc_ns_per_byte = 0.005;

  /// Parses integrity.* keys (kIntegrityKnobs); misspelled keys are
  /// rejected with a typo suggestion.
  static IntegrityConfig from_config(const Config& cfg);
};

inline constexpr Knob<IntegrityConfig> kIntegrityKnobs[] = {
    {"verify", &IntegrityConfig::verify},
    {"coll_check", &IntegrityConfig::coll_check},
    {"ckpt_digest", &IntegrityConfig::ckpt_digest},
    {"crc_setup_ns", &IntegrityConfig::crc_setup_ns, 0},
    {"crc_ns_per_byte", &IntegrityConfig::crc_ns_per_byte, 0},
};

inline IntegrityConfig IntegrityConfig::from_config(const Config& cfg) {
  IntegrityConfig out;
  out.configured = parse_knobs(cfg, "integrity", kIntegrityKnobs, out);
  return out;
}

/// Counters for the report's "end-to-end integrity" table. Detected
/// corruptions must equal the injector's packets_corrupted under
/// transport verification — the zero-silent-escapes invariant the
/// chaos soak asserts.
struct IntegrityStats {
  /// Transport-level CRC verifications performed (one per delivered
  /// payload leg when verify is on).
  std::uint64_t crc_checks = 0;
  /// Payload legs whose CRC failed on delivery.
  std::uint64_t corruptions_detected = 0;
  /// NACKs issued back to senders (one per detection).
  std::uint64_t nacks_sent = 0;
  /// Retransmits triggered by NACKs (vs. drop timeouts).
  std::uint64_t nack_retransmits = 0;
  /// Acks that carried an echo CRC back to the initiator.
  std::uint64_t echo_crc_acks = 0;
  /// Collective slot verifications / mismatches / re-requests.
  std::uint64_t coll_slot_checks = 0;
  std::uint64_t coll_slot_rejects = 0;
  std::uint64_t coll_slot_refetches = 0;
  /// Checkpoint shard digests computed / validated / failed, and
  /// recoveries that had to fall back to the older buffer.
  std::uint64_t ckpt_digests_computed = 0;
  std::uint64_t ckpt_digests_validated = 0;
  std::uint64_t ckpt_digest_mismatches = 0;
  std::uint64_t ckpt_fallback_restores = 0;
};

/// IntegrityStats' metrics (integrity.flips_injected is the injector's).
inline constexpr obs::Field<IntegrityStats> kIntegrityStatsFields[] = {
    {"integrity.flips_detected", obs::kCount,
     &IntegrityStats::corruptions_detected, "corruptions detected"},
    {"integrity.crc_checks", obs::kCount, &IntegrityStats::crc_checks,
     "transport CRC checks"},
    {"integrity.nacks_sent", obs::kCount, &IntegrityStats::nacks_sent,
     "NACKs sent"},
    {"integrity.nack_retransmits", obs::kCount,
     &IntegrityStats::nack_retransmits, "NACK retransmits"},
    {"integrity.echo_crc_acks", obs::kCount, &IntegrityStats::echo_crc_acks,
     "echo-CRC acks"},
    {"integrity.coll_slot_checks", obs::kCount,
     &IntegrityStats::coll_slot_checks, "collective slot checks"},
    {"integrity.coll_slot_rejects", obs::kCount,
     &IntegrityStats::coll_slot_rejects, "collective slot rejects"},
    {"integrity.coll_slot_refetches", obs::kCount,
     &IntegrityStats::coll_slot_refetches, "collective slot re-fetches"},
    {"integrity.ckpt_digests_computed", obs::kCount,
     &IntegrityStats::ckpt_digests_computed, "checkpoint digests computed"},
    {"integrity.ckpt_digests_validated", obs::kCount,
     &IntegrityStats::ckpt_digests_validated, "checkpoint digests validated"},
    {"integrity.ckpt_digest_mismatches", obs::kCount,
     &IntegrityStats::ckpt_digest_mismatches, "checkpoint digest mismatches"},
    {"integrity.ckpt_fallback_restores", obs::kCount,
     &IntegrityStats::ckpt_fallback_restores, "checkpoint fallback restores"},
};

/// Machine-wide integrity state: configuration, counters, and the
/// virtual-time cost model for CRC passes. Owned by pami::Machine,
/// reached via machine.integrity() (nullptr when the subsystem is off,
/// same pattern as fault::Injector and obs::LinkUsage).
class Integrity {
 public:
  explicit Integrity(IntegrityConfig cfg) : cfg_(cfg) {}
  Integrity(const Integrity&) = delete;
  Integrity& operator=(const Integrity&) = delete;

  const IntegrityConfig& config() const { return cfg_; }
  IntegrityStats& stats() { return stats_; }
  const IntegrityStats& stats() const { return stats_; }

  /// Virtual time of one CRC pass over `bytes` of payload.
  Time crc_cost(std::uint64_t bytes) const {
    return from_ns(cfg_.crc_setup_ns +
                   cfg_.crc_ns_per_byte * static_cast<double>(bytes));
  }

 private:
  IntegrityConfig cfg_;
  IntegrityStats stats_;
};

}  // namespace fault
}  // namespace pgasq
