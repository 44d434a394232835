// Broadcast instances.
//
// A message instance (Section 3.2.1) is one bcast event plus every rcv
// and the terminating ack/abort the cause function maps back to it.
// The engine keeps each instance in two parts.  An InstanceRecord (32
// bytes) holds the timing summary of every id ever assigned.  An
// Instance body holds what only an unsettled instance needs: the
// packet, the delivered set and the pending deliveries.  The ack gate
// is not kept: the engine derives it at the ack from the delivered set
// and the topology view.  At most one broadcast per node is
// unterminated at a time, so bodies come from a pool that stays near n
// in size however many instances a run creates; a body returns to the
// pool once its instance has settled (terminated, nothing pending).
// Schedulers receive a const view of the body when planning.
//
// All bookkeeping is flat vectors: per-broadcast hash containers
// (delivered-set, pending-index) used to dominate allocation in
// delivery-heavy runs (one rehashing table per bcast), and neighborhood
// fan-outs are small enough that a linear scan / binary search beats a
// hash probe anyway.  Capacities are reserved from the sender's degree
// at bcast time and kept when a body returns to the pool, so steady
// state performs no per-delivery allocation and reuses, rather than
// allocates, each bcast's vectors.
#pragma once

#include <algorithm>
#include <vector>

#include "common/error.h"

#include "common/types.h"
#include "graph/graph.h"
#include "mac/packet.h"
#include "sim/event_queue.h"

namespace ammb::mac {

/// The summary the engine keeps for every instance id, settled or not.
struct InstanceRecord {
  Time bcastAt = 0;

  /// Ack time chosen by the scheduler's plan (may be preempted by an
  /// abort).  The progress guard's need windows end Fprog before it.
  Time plannedAck = 0;

  /// Actual termination (ack or abort) once it happened.
  Time termAt = kTimeNever;
  NodeId sender = kNoNode;
  bool aborted = false;

  bool terminated() const { return termAt != kTimeNever; }
};
static_assert(sizeof(InstanceRecord) == 32,
              "kept for every instance of a run, so kept small");

/// The body of one unsettled acknowledged-local-broadcast instance.
struct Instance {
  InstanceId id = kNoInstance;
  NodeId sender = kNoNode;
  Packet packet;
  Time bcastAt = 0;

  /// Receivers in delivery order (the cause-function image).
  std::vector<NodeId> deliveredTo;

  /// Scheduled-but-not-yet-executed delivery events.  Kept as a flat
  /// array; removal is a swap-remove, so iteration order is the
  /// deterministic insertion/removal history.  Lookups are linear:
  /// the array holds at most the sender's E' degree and is usually
  /// near-empty by the time anything probes it.
  struct PendingDelivery {
    NodeId target = kNoNode;
    Time at = 0;
    sim::EventHandle handle = 0;
  };
  std::vector<PendingDelivery> pending;

  /// Appends a pending delivery (receiver must not already be pending).
  void addPending(NodeId target, Time at, sim::EventHandle handle) {
    AMMB_DCHECK(findPending(target) == nullptr);
    pending.push_back(PendingDelivery{target, at, handle});
  }

  /// The pending delivery for `target`, or nullptr.
  const PendingDelivery* findPending(NodeId target) const {
    for (const PendingDelivery& pd : pending) {
      if (pd.target == target) return &pd;
    }
    return nullptr;
  }

  /// Swap-removes `target`'s pending delivery; false if none existed.
  bool removePending(NodeId target) {
    for (std::size_t pos = 0; pos < pending.size(); ++pos) {
      if (pending[pos].target != target) continue;
      if (pos + 1 != pending.size()) pending[pos] = pending.back();
      pending.pop_back();
      return true;
    }
    return false;
  }

  /// Handle of the scheduled ack event (cancelled on abort).
  sim::EventHandle ackEvent = 0;

  /// Records a delivery to `j` (in both the ordered image and the
  /// sorted membership index).
  void markDelivered(NodeId j) {
    deliveredTo.push_back(j);
    deliveredSorted_.insert(
        std::upper_bound(deliveredSorted_.begin(), deliveredSorted_.end(), j),
        j);
  }

  /// True if this instance already delivered to `j`.
  bool hasDeliveredTo(NodeId j) const {
    return std::binary_search(deliveredSorted_.begin(), deliveredSorted_.end(),
                              j);
  }

  /// True if every receiver so far is in `nbrs` (a sorted adjacency
  /// span): one merge of the two sorted sets.
  bool deliveredWithin(graph::Graph::Span nbrs) const {
    return std::includes(nbrs.begin(), nbrs.end(), deliveredSorted_.begin(),
                         deliveredSorted_.end());
  }

  /// Pre-sizes the per-instance vectors for an expected fan-out.
  void reserveFanout(std::size_t planned) {
    pending.reserve(planned);
    deliveredTo.reserve(planned);
    deliveredSorted_.reserve(planned);
  }

  /// Empties the body for reuse, keeping every vector's capacity.  The
  /// cleared id and sender make a stale read of a pooled body visible.
  void reset() {
    id = kNoInstance;
    sender = kNoNode;
    packet = Packet{};
    bcastAt = 0;
    deliveredTo.clear();
    pending.clear();
    ackEvent = 0;
    deliveredSorted_.clear();
  }

 private:
  /// deliveredTo, kept sorted for O(log) membership.
  std::vector<NodeId> deliveredSorted_;
};

}  // namespace ammb::mac
