// Trace analysis utilities.
//
// Post-processing helpers over recorded executions: per-message
// delivery latency profiles, per-hop frontier timelines, and breakdowns
// of reliable vs unreliable link usage.  The paper's tables do not use
// them: those come from sweep records (README, "Paper tables").
#pragma once

#include <vector>

#include "graph/dual_graph.h"
#include "sim/trace.h"

namespace ammb::mac {

/// Latency profile of one MMB message.
struct MessageLatency {
  MsgId msg = kNoMsg;
  Time arriveAt = kTimeNever;      ///< injection time (first arrive event)
  Time firstDeliver = kTimeNever;  ///< earliest deliver anywhere
  Time lastDeliver = kTimeNever;   ///< latest deliver anywhere (completion)
  std::size_t deliveries = 0;
};

/// Per-message latency profiles, indexed by message id (0..k-1).
std::vector<MessageLatency> messageLatencies(const sim::Trace& trace, int k);

/// Count of receive events that crossed unreliable (E' \ E) links.
/// `instanceSender(id)` resolves an instance to its broadcaster —
/// callers pass a lambda returning MacEngine::record(id).sender.
template <typename SenderFn>
std::size_t unreliableDeliveryCount(const graph::DualGraph& topology,
                                    const sim::Trace& trace,
                                    SenderFn&& instanceSender) {
  std::size_t count = 0;
  trace.forEach([&](const sim::TraceRecord& record) {
    if (record.kind != sim::TraceKind::kRcv) return;
    const NodeId sender = instanceSender(record.instance);
    if (topology.isUnreliableOnlyEdge(sender, record.node)) ++count;
  });
  return count;
}

/// First-delivery time of `msg` per node (kTimeNever where never
/// delivered).
std::vector<Time> deliveryTimeline(const sim::Trace& trace, MsgId msg,
                                   NodeId n);

}  // namespace ammb::mac
