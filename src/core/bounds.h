// Which of the paper's time bounds a run is entitled to.
//
// Theorems 3.1 and 3.16 (BMMB, standard model) and Theorem 4.1 (FMMB,
// enhanced model) quantify over every scheduler, so whether one covers
// a run — and what it promises — depends only on the run's inputs:
// the dual graph, the materialized arrivals, the RunConfig and the
// ProtocolSpec.  applicableBound() answers that question once, for the
// sweep report and the bound tests.
//
// Every theorem is about the paper's static problem, so none applies
// unless all of these hold:
//   * the topology view is static (no crash or drift epochs);
//   * the MAC layer is the abstract one (no physical realization) on
//     the simulator backend;
//   * every arrival of the materialized workload is at t = 0;
//   * the protocol runs verbatim (no churn reaction).
// On top of that, BMMB needs the standard model and its FIFO queue.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/experiment.h"

namespace ammb::core {

enum class Theorem : std::uint8_t {
  k3_1,   ///< BMMB, arbitrary G': (D + k) Fack
  k3_16,  ///< BMMB, r-restricted G': (D + (r+1)k - 2) Fprog + r(k-1) Fack
  k4_1,   ///< FMMB, enhanced model: the fmmbBoundEnvelope() shape
};

/// "3.1" | "3.16" | "4.1".
std::string toString(Theorem theorem);

/// The tightest bound that holds for one run.
struct Bound {
  Theorem theorem = Theorem::k3_1;
  /// Upper bound on the run's solve time (ticks).
  Time ticks = 0;
  /// D, the diameter of G.
  int diameter = 0;
  /// r, G''s restriction radius (BMMB only; empty for FMMB and when
  /// an E'-only edge joins two G components).
  std::optional<int> radius;
};

/// The bound one run is entitled to, or nothing if a hypothesis above
/// fails.  BMMB gets the smaller of Theorem 3.16 at the generated
/// graph's restrictionRadius() and Theorem 3.1 (3.16 on ties); FMMB
/// gets the Theorem 4.1 envelope.
std::optional<Bound> applicableBound(const graph::DualGraph& topology,
                                     const MmbWorkload& workload,
                                     const RunConfig& config,
                                     const ProtocolSpec& protocol);

}  // namespace ammb::core
