// The knobs of the real UDP backend (net::NetEngine).
//
// They are one value type shared by the engine, which reads them, and
// by core::ExecutionBackend, which spells them as a label for sweep
// specs, CLI flags and run records.  validate() is the one check of
// their ranges.
#pragma once

#include <cstdint>

#include "common/error.h"
#include "common/types.h"

namespace ammb::net {

/// Knobs of the real UDP backend.  Defaults give a clean loopback run.
struct NetBackendParams {
  /// First UDP port; node v binds basePort + v on 127.0.0.1.  0 lets
  /// the kernel assign ephemeral ports (the loopback-test default).
  int basePort = 0;
  /// Injected per-datagram drop probability on data datagrams (the
  /// fault injector; perfect-link retransmission recovers G links).
  double loss = 0.0;
  /// Wall-clock microseconds per simulated tick — the scale on which
  /// real timestamps land in the recorded sim::Trace.
  std::int64_t tickUs = 100;
  /// Transmission attempts on G'-only links before giving up.  These
  /// links carry no delivery guarantee, so bounded attempts (plus
  /// injected loss) realize the paper's unreliable fringe.
  int gPrimeAttempts = 3;
  /// Fault: delay every MAC-level ack by this many ticks.  0 for
  /// honest runs; the negative e2e test pushes it past the fitted
  /// Fack to prove the ack-bound axiom trips on real executions.
  Time ackDelayTicks = 0;
  /// Fault: uniform extra send delay in [0, jitterUs] microseconds per
  /// data datagram — enough to reorder datagrams on loopback.
  std::int64_t jitterUs = 0;

  void validate() const {
    AMMB_REQUIRE(basePort == 0 || (basePort >= 1024 && basePort <= 65000),
                 "net backend base port must be 0 (ephemeral) or in "
                 "[1024, 65000]");
    AMMB_REQUIRE(loss >= 0.0 && loss <= 0.95,
                 "net backend loss probability must be in [0, 0.95]");
    AMMB_REQUIRE(tickUs >= 1, "net backend tick must be >= 1 microsecond");
    AMMB_REQUIRE(gPrimeAttempts >= 1,
                 "net backend needs at least one G'-link attempt");
    AMMB_REQUIRE(ackDelayTicks >= 0,
                 "net backend ack delay must be non-negative");
    AMMB_REQUIRE(jitterUs >= 0, "net backend jitter must be non-negative");
  }

  friend bool operator==(const NetBackendParams& a,
                         const NetBackendParams& b) {
    return a.basePort == b.basePort && a.loss == b.loss &&
           a.tickUs == b.tickUs && a.gPrimeAttempts == b.gPrimeAttempts &&
           a.ackDelayTicks == b.ackDelayTicks && a.jitterUs == b.jitterUs;
  }
  friend bool operator!=(const NetBackendParams& a,
                         const NetBackendParams& b) {
    return !(a == b);
  }
};

}  // namespace ammb::net
