// Slotted CSMA/CA contention simulator behind the abstract MAC layer.
//
// The abstract MAC layer (Section 2) hands the model an arbitrary
// scheduler constrained by the Fprog/Fack bounds; the literature's
// justification is that real contention-resolution MACs realize those
// bounds.  PhysScheduler is one such MAC, folded into the existing
// mac::Scheduler seam so BMMB/FMMB run completely unchanged on top:
//
//   * channel acquisition — the sender runs binary exponential
//     backoff: attempt a draws a uniform backoff from a contention
//     window of min(cwMin·2^a, cwMax) slots and the slot clears with
//     the probability that no rival contender picked it (rivals =
//     live instances from the sender's G'-neighborhood, the engine's
//     carrier-sense set).  After maxRetries failed attempts the frame
//     is transmitted regardless (the abstract layer's delivery
//     guarantee; the envelope bounds below absorb the worst case).
//   * per-receiver delivery — each G-neighbor hears the frame at its
//     first collision-free slot for this sender: retransmission round
//     r collides with the receiver-local rival count under the same
//     exponential window schedule.  G'-only links first have to
//     capture the frame (probability pCapture), modelling unreliable
//     fringe links that only sometimes beat the interference.
//   * acknowledgment — the ack fires one slot after the last planned
//     delivery, once the sender's CTS/ack slot clears against its own
//     contention neighborhood.
//
// Every draw comes from the engine's scheduler RNG stream, so CSMA
// executions are bit-for-bit reproducible from (topology, params,
// seed), exactly like the abstract schedulers.
//
// The engine still validates every plan online against its MacParams.
// csmaEnvelopeParams() computes the analytic worst case of every plan
// this scheduler can emit, so an engine run under the envelope accepts
// all CSMA plans and its ProgressGuard stays inert — the *realized*
// Fprog/Fack constants are then measured from the trace afterwards
// (phys/measurement.h), which is the whole point of the layer.
#pragma once

#include "mac/engine.h"
#include "mac/params.h"
#include "mac/realization.h"
#include "mac/scheduler.h"

namespace ammb::phys {

/// Worst-case channel-acquisition span: every attempt 0..maxRetries
/// draws the largest backoff of its window,
/// sum_a min(cwMin·2^a, cwMax) · slot.
Time csmaAcquisitionEnvelope(const mac::CsmaParams& params);

/// MacParams under which every plan PhysScheduler can emit is valid:
/// fack/fprog are raised to the analytic plan envelope (acquisition +
/// worst receiver retransmission run + worst ack backoff run), with
/// `cell`'s values kept when already larger and epsAbort / msgCapacity
/// / variant passed through untouched.
mac::MacParams csmaEnvelopeParams(const mac::CsmaParams& params,
                                  const mac::MacParams& cell);

/// The CSMA/CA contention MAC, exposed as an abstract-layer scheduler.
class PhysScheduler : public mac::Scheduler {
 public:
  explicit PhysScheduler(mac::CsmaParams params);

  mac::DeliveryPlan planBcast(const mac::Instance& instance) override;

  const mac::CsmaParams& params() const { return params_; }

 private:
  /// Contention window (slots) of backoff attempt `attempt`.
  Time contentionWindow(int attempt) const;
  /// Live rival instances contending around `node`, excluding `self`.
  int rivalsAt(NodeId node, InstanceId self) const;
  /// First collision-free retransmission slot for `receiver`, starting
  /// one slot after the channel was acquired.
  Time receiverDelivery(NodeId receiver, Time acquired, InstanceId self,
                        Rng& rng) const;

  mac::CsmaParams params_;
};

}  // namespace ammb::phys
