// Tunable constants of the FMMB algorithm (Section 4).
//
// The paper specifies every stage up to Theta(...) constants; this
// struct makes each constant explicit.  Defaults follow the paper's
// formulas with multipliers tuned so the w.h.p. events hold comfortably
// at the network sizes exercised by the tests and benches:
//
//   * election part:      exactly 4 ceil(log2 n) rounds (Section 4.2);
//   * announcement part:  ceil(3 c^2 log n) rounds, announce
//                         probability 1/(2 c^2);
//   * number of phases:   the paper's worst case is Theta(c^2 log^2 n);
//                         the default (2 log n + 8) is the empirical-
//                         convergence setting (geometric instances
//                         settle long before the worst case) —
//                         strictPaperPhases() restores the full bound;
//   * gather:             3-round periods, activation 1/(2 c^2);
//   * spread:             procedure phases of ceil(2.5 c^2 log n)
//                         3-round periods, activation 1/(2 c^2).
//
// k is unknown to FMMB (problem statement), which the paper glosses
// over when sizing the gather stage; kInterleaved resolves this by
// alternating gather and spread rounds forever after the MIS stage.
// kSequential reproduces the paper's narrative stage order and needs
// the k hint.  README, "Deviations from the paper", lists these
// departures with the other FMMB ones.
#pragma once

#include <cmath>

#include "common/error.h"
#include "common/types.h"

namespace ammb::core {

/// FMMB stage scheduling and probability constants.
struct FmmbParams {
  /// How gather and spread share the rounds after the MIS stage.
  enum class Mode : std::uint8_t {
    kInterleaved,  ///< k-oblivious: even rounds gather, odd rounds spread
    kSequential,   ///< paper narrative: gather stage sized by knownK
  };

  double c = 1.5;          ///< grey-zone constant of the topology
  int logn = 1;            ///< ceil(log2 n), at least 1
  int electionRounds = 4;  ///< per phase (4 logn)
  int announceRounds = 5;  ///< per phase (Theta(c^2 logn))
  int phases = 10;         ///< MIS phases
  double pAnnounce = 0.2;  ///< announcement broadcast probability
  double pGather = 0.2;    ///< gather-period activation probability
  double pSpread = 0.2;    ///< spread-period activation probability
  int spreadPeriods = 8;   ///< periods per spread procedure phase
  Mode mode = Mode::kInterleaved;
  int knownK = 0;          ///< k hint (sequential mode only)
  int gatherPeriods = 0;   ///< gather stage length (sequential mode)

  /// Rounds consumed by the MIS stage.
  int misRounds() const { return phases * (electionRounds + announceRounds); }

  /// Default parameters for an n-node grey-zone network.
  static FmmbParams make(NodeId n, double c = 1.5) {
    AMMB_REQUIRE(n >= 1, "network must be non-empty");
    AMMB_REQUIRE(c >= 1.0, "grey zone constant must be >= 1");
    FmmbParams p;
    p.c = c;
    p.logn = 1;
    while ((NodeId{1} << p.logn) < n) ++p.logn;
    const double c2 = c * c;
    p.electionRounds = 4 * p.logn;
    AMMB_REQUIRE(p.electionRounds <= 64,
                 "election bit-strings exceed 64 bits (n too large)");
    p.announceRounds = static_cast<int>(std::ceil(3.0 * c2 * p.logn));
    p.phases = 2 * p.logn + 8;
    p.pAnnounce = 1.0 / (2.0 * c2);
    p.pGather = 1.0 / (2.0 * c2);
    p.pSpread = 1.0 / (2.0 * c2);
    p.spreadPeriods = static_cast<int>(std::ceil(2.5 * c2 * p.logn));
    return p;
  }

  /// Sequential-mode parameters (gather stage sized by the k hint).
  static FmmbParams makeSequential(NodeId n, int k, double c = 1.5) {
    AMMB_REQUIRE(k >= 1, "sequential mode needs k >= 1");
    FmmbParams p = make(n, c);
    p.mode = Mode::kSequential;
    p.knownK = k;
    p.gatherPeriods =
        static_cast<int>(std::ceil(2.0 * c * c * (k + p.logn)));
    return p;
  }

  /// Restores the paper's worst-case Theta(c^2 log^2 n) phase count.
  FmmbParams& strictPaperPhases() {
    phases = static_cast<int>(std::ceil(c * c * logn * logn));
    return *this;
  }
};

}  // namespace ammb::core
