#include "core/bounds.h"

#include <algorithm>

namespace ammb::core {

std::string toString(Theorem theorem) {
  switch (theorem) {
    case Theorem::k3_1: return "3.1";
    case Theorem::k3_16: return "3.16";
    case Theorem::k4_1: return "4.1";
  }
  return "?";
}

std::optional<Bound> applicableBound(const graph::DualGraph& topology,
                                     const MmbWorkload& workload,
                                     const RunConfig& config,
                                     const ProtocolSpec& protocol) {
  if (!config.dynamics.isStatic() || !config.realization.abstract() ||
      !config.backend.sim()) {
    return std::nullopt;
  }
  const bool allAtZero =
      std::all_of(workload.arrivals.begin(), workload.arrivals.end(),
                  [](const Arrival& a) { return a.at == 0; });
  if (!allAtZero) return std::nullopt;

  Bound bound;
  bound.diameter = topology.g().diameter();
  if (protocol.kind() == ProtocolKind::kFmmb) {
    if (!protocol.fmmb().reaction.none()) return std::nullopt;
    bound.theorem = Theorem::k4_1;
    bound.ticks = fmmbBoundEnvelope(bound.diameter, workload.k,
                                    protocol.fmmb().params, config.mac);
    return bound;
  }
  const BmmbSpec& bmmb = protocol.bmmb();
  if (!bmmb.reaction.none() || bmmb.discipline != QueueDiscipline::kFifo ||
      config.mac.variant != mac::ModelVariant::kStandard) {
    return std::nullopt;
  }
  bound.theorem = Theorem::k3_1;
  bound.ticks = bmmbArbitraryBound(bound.diameter, workload.k, config.mac);
  bound.radius = topology.restrictionRadius();
  if (bound.radius.has_value()) {
    const Time restricted = bmmbRRestrictedBound(
        bound.diameter, workload.k, *bound.radius, config.mac);
    if (restricted <= bound.ticks) {
      bound.theorem = Theorem::k3_16;
      bound.ticks = restricted;
    }
  }
  return bound;
}

}  // namespace ammb::core
