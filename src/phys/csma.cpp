#include "phys/csma.h"

#include <algorithm>
#include <cmath>

namespace ammb::phys {

namespace {

Time windowFor(const mac::CsmaParams& p, int attempt) {
  // Doubling with a clamp instead of a shift: maxRetries is caller
  // data, and cwMin << attempt overflows long before the clamp could
  // catch it.
  Time cw = p.cwMin;
  for (int a = 0; a < attempt && cw < p.cwMax; ++a) cw *= 2;
  return std::min<Time>(cw, p.cwMax);
}

/// Probability that a slot drawn from a `cw`-slot window is free of
/// all `rivals` (each rival lands in the slot with probability 1/cw).
double clearProbability(Time cw, int rivals) {
  if (rivals <= 0) return 1.0;
  return std::pow(1.0 - 1.0 / static_cast<double>(cw), rivals);
}

}  // namespace

Time csmaAcquisitionEnvelope(const mac::CsmaParams& params) {
  params.validate();
  Time total = 0;
  for (int a = 0; a <= params.maxRetries; ++a) {
    total += windowFor(params, a) * params.slot;
  }
  return total;
}

mac::MacParams csmaEnvelopeParams(const mac::CsmaParams& params,
                                  const mac::MacParams& cell) {
  // Acquisition, then the worst per-receiver retransmission run, then
  // the worst ack backoff run (each at most maxRetries extra slots
  // after the first).
  const Time tail = static_cast<Time>(params.maxRetries + 1) * params.slot;
  const Time fack = csmaAcquisitionEnvelope(params) + 2 * tail;
  mac::MacParams out = cell;
  out.fack = std::max(cell.fack, fack);
  // With fprog at the full plan envelope the engine's ProgressGuard is
  // inert — contention resolution, not the guard, provides progress —
  // and the realized constants are measured from the trace instead.
  out.fprog = std::max(cell.fprog, fack);
  out.validate();
  return out;
}

PhysScheduler::PhysScheduler(mac::CsmaParams params) : params_(params) {
  params_.validate();
}

Time PhysScheduler::contentionWindow(int attempt) const {
  return windowFor(params_, attempt);
}

int PhysScheduler::rivalsAt(NodeId node, InstanceId self) const {
  int rivals = 0;
  for (NodeId s : engine_->topology().gPrime().neighbors(node)) {
    const InstanceId id = engine_->currentInstance(s);
    if (id != kNoInstance && id != self) ++rivals;
  }
  return rivals;
}

Time PhysScheduler::receiverDelivery(NodeId receiver, Time acquired,
                                     InstanceId self, Rng& rng) const {
  const int rivals = rivalsAt(receiver, self);
  Time at = acquired + params_.slot;
  for (int round = 0; round < params_.maxRetries; ++round) {
    if (rng.bernoulli(clearProbability(contentionWindow(round), rivals))) {
      break;
    }
    at += params_.slot;
  }
  return at;
}

mac::DeliveryPlan PhysScheduler::planBcast(const mac::Instance& instance) {
  Rng& rng = engine_->schedulerRng();
  const auto& topo = engine_->topology();
  const Time t0 = instance.bcastAt;
  const int rivals = rivalsAt(instance.sender, instance.id);

  // Phase 1 — channel acquisition by binary exponential backoff.
  Time acquired = t0;
  for (int attempt = 0;; ++attempt) {
    const Time cw = contentionWindow(attempt);
    const Time backoff = rng.uniformInt(0, cw - 1);
    acquired += (backoff + 1) * params_.slot;
    if (attempt >= params_.maxRetries) break;  // transmit regardless
    if (rng.bernoulli(clearProbability(cw, rivals))) break;
  }

  // Phase 2 — deliveries at each receiver's first collision-free slot.
  mac::DeliveryPlan plan;
  Time latest = acquired;
  for (NodeId j : topo.g().neighbors(instance.sender)) {
    const Time at = receiverDelivery(j, acquired, instance.id, rng);
    latest = std::max(latest, at);
    plan.deliveries.push_back({j, at});
  }
  for (NodeId j : topo.gPrime().neighbors(instance.sender)) {
    if (topo.g().hasEdge(instance.sender, j)) continue;
    if (!rng.bernoulli(params_.pCapture)) continue;  // no capture, no frame
    const Time at = receiverDelivery(j, acquired, instance.id, rng);
    latest = std::max(latest, at);
    plan.deliveries.push_back({j, at});
  }

  // Phase 3 — the ack fires once the sender's CTS/ack slot clears.
  Time ackAt = latest + params_.slot;
  for (int attempt = 0; attempt < params_.maxRetries; ++attempt) {
    if (rng.bernoulli(clearProbability(contentionWindow(attempt), rivals))) {
      break;
    }
    ackAt += params_.slot;
  }
  plan.ackAt = ackAt;
  return plan;
}

}  // namespace ammb::phys
