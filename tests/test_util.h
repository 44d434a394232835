// Shared helpers for the ammb test suite.
#pragma once

#include <vector>

#include "mac/engine.h"
#include "mac/params.h"
#include "sim/trace.h"

namespace ammb::testutil {

/// Standard-model parameters with the given timing constants.
inline mac::MacParams stdParams(Time fprog = 4, Time fack = 32) {
  mac::MacParams p;
  p.fprog = fprog;
  p.fack = fack;
  p.variant = mac::ModelVariant::kStandard;
  return p;
}

/// Enhanced-model parameters with the given timing constants.
inline mac::MacParams enhParams(Time fprog = 4, Time fack = 32) {
  mac::MacParams p = stdParams(fprog, fack);
  p.variant = mac::ModelVariant::kEnhanced;
  return p;
}

/// Receivers of instance `id` in delivery order, read off the trace.
/// The engine keeps only a record of a settled instance, so this is
/// how a test reads the delivered set after a run.
inline std::vector<NodeId> receiversOf(const sim::Trace& trace,
                                       InstanceId id) {
  std::vector<NodeId> receivers;
  trace.forEach([&](const sim::TraceRecord& record) {
    if (record.kind == sim::TraceKind::kRcv && record.instance == id) {
      receivers.push_back(record.node);
    }
  });
  return receivers;
}

/// The ack gate of unsettled instance `id` right now, ascending: the
/// sender's current G-neighbors whose link has been live since the
/// bcast and that have not received the packet yet.  Under plan
/// validation the engine asserts it is empty at the ack.
inline std::vector<NodeId> ackGate(const mac::MacEngine& engine,
                                   InstanceId id) {
  const mac::Instance& inst = engine.instance(id);
  std::vector<NodeId> gate;
  for (NodeId j : engine.topology().g().neighbors(inst.sender)) {
    if (!inst.hasDeliveredTo(j) &&
        engine.view().gEdgeLiveSince(engine.currentEpoch(), inst.sender, j) <=
            inst.bcastAt) {
      gate.push_back(j);
    }
  }
  return gate;
}

}  // namespace ammb::testutil
