// Shared helpers for the ammb test suite.
#pragma once

#include <vector>

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

}  // namespace ammb::testutil
