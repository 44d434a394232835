// Seed-deterministic fault injection for the UDP backend.
//
// Real sockets on loopback barely ever drop, so loss and jitter are
// injected at the sender: before each transmission attempt the plan is
// consulted and the datagram is either suppressed (forcing the
// retransmission machinery to recover it) or delayed by a bounded
// random interval (reordering it against later sends).
//
// Decisions are pure functions of (seed, from, to, seq, attempt) via a
// splitmix64-style mixer — no shared RNG stream — so they are
// reproducible regardless of how the receive and timer threads happen
// to interleave.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace ammb::net {

class FaultPlan {
 public:
  /// `loss` is the per-attempt drop probability; `jitterUs` bounds the
  /// extra delay (uniform in [0, jitterUs]) added to attempts that
  /// survive.  Both come from a NetBackendParams, whose validate()
  /// checks their ranges.
  FaultPlan(std::uint64_t seed, double loss, std::int64_t jitterUs);

  /// True when this transmission attempt should be suppressed.
  bool drop(NodeId from, NodeId to, std::uint64_t seq,
            std::uint32_t attempt) const;

  /// Extra sender-side delay (microseconds) for this attempt.
  std::int64_t delayUs(NodeId from, NodeId to, std::uint64_t seq,
                       std::uint32_t attempt) const;

  bool active() const { return loss_ > 0.0 || jitterUs_ > 0; }

 private:
  std::uint64_t mix(NodeId from, NodeId to, std::uint64_t seq,
                    std::uint32_t attempt, std::uint64_t salt) const;

  std::uint64_t seed_;
  double loss_;
  std::int64_t jitterUs_;
};

}  // namespace ammb::net
