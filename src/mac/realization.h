// Physical MAC realizations.
//
// The abstract MAC layer treats Fprog/Fack as *given* constants; the
// literature's justification for that abstraction is that real
// contention-resolution MACs (CSMA/CA, decay, SINR capture) realize
// such bounds.  MacRealization is the run-level knob that selects
// whether an execution draws its timing from the abstract scheduler
// families (SchedulerKind) or from a simulated physical layer
// (src/phys/) that *derives* the timing from contention rounds.
//
// The type lives in mac/ — not phys/ — so core::RunConfig and the
// runner can carry it without depending on the physical-layer
// implementation; only core::Experiment reaches into phys/ to
// instantiate the simulator.
//
// The realization is value-semantic with a canonical label() /
// fromLabel() spelling shared by the sweep-spec
// codec (the "mac" key), the run-record codec, the `ammb_sweep --mac`
// flag and the fuzzer's case descriptions.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.h"
#include "common/types.h"

namespace ammb::mac {

/// Knobs of the slotted CSMA/CA contention simulator (phys/csma.h):
/// binary exponential backoff over [cwMin, cwMax] with at most
/// maxRetries re-draws, and probabilistic capture on G'-only links.
struct CsmaParams {
  /// Length of one contention slot in simulation ticks.
  Time slot = 1;
  /// Initial contention window (slots); doubles per failed attempt.
  int cwMin = 2;
  /// Contention-window ceiling (slots).
  int cwMax = 64;
  /// Max backoff re-draws for channel acquisition, per-receiver
  /// retransmissions, and the ack slot alike.
  int maxRetries = 8;
  /// Probability that a G'-only (unreliable) link captures the frame.
  double pCapture = 0.3;

  /// Validates parameter consistency (throws ammb::Error).
  void validate() const {
    AMMB_REQUIRE(slot >= 1, "CSMA slot must be at least one tick");
    AMMB_REQUIRE(cwMin >= 1, "CSMA cwMin must be at least 1");
    AMMB_REQUIRE(cwMax >= cwMin, "CSMA cwMax must be >= cwMin");
    AMMB_REQUIRE(maxRetries >= 0, "CSMA maxRetries must be non-negative");
    AMMB_REQUIRE(pCapture >= 0.0 && pCapture <= 1.0,
                 "CSMA pCapture must be a probability");
  }

  friend bool operator==(const CsmaParams& a, const CsmaParams& b) {
    return a.slot == b.slot && a.cwMin == b.cwMin && a.cwMax == b.cwMax &&
           a.maxRetries == b.maxRetries && a.pCapture == b.pCapture;
  }
  friend bool operator!=(const CsmaParams& a, const CsmaParams& b) {
    return !(a == b);
  }
};

/// Which MAC realization produces an execution's delivery/ack timing.
struct MacRealization {
  enum class Kind : std::uint8_t {
    kAbstract,  ///< abstract scheduler families (the model as given)
    kCsma,      ///< slotted CSMA/CA contention simulator (phys/csma.h)
  };

  Kind kind = Kind::kAbstract;
  CsmaParams csma;  ///< meaningful only for kCsma

  bool abstract() const { return kind == Kind::kAbstract; }

  /// Canonical spelling: "abstract", "csma" (all-default knobs) or
  /// "csma:<slot>,<cwMin>,<cwMax>,<maxRetries>,<pCapture>".
  std::string label() const;

  /// Inverse of label(); throws ammb::Error on unknown spellings.
  static MacRealization fromLabel(const std::string& label);

  static MacRealization abstractLayer() { return {}; }
  static MacRealization csmaWith(const CsmaParams& params) {
    params.validate();
    return {Kind::kCsma, params};
  }

  friend bool operator==(const MacRealization& a, const MacRealization& b) {
    if (a.kind != b.kind) return false;
    return a.kind == Kind::kAbstract || a.csma == b.csma;
  }
  friend bool operator!=(const MacRealization& a, const MacRealization& b) {
    return !(a == b);
  }
};

}  // namespace ammb::mac
