// Online enforcement of the progress bound.
//
// The progress bound (Section 3.2.1, property 5) obliges the *model* —
// not the protocol — to deliver something: whenever a node j has a
// G-neighbor broadcasting an unterminated instance for longer than
// Fprog, j must receive some contending message.  Benign schedulers
// satisfy it trivially by delivering fast; adversarial schedulers push
// deliveries as late as legal.  The guard is the engine component that
// makes *any* scheduler's execution compliant: it tracks, per receiver,
//
//   need  = union over live instances π with sender in N_G(j) of
//           [max(bcastAt(π), liveSince), plannedAck(π) - Fprog - 1]
//   cover = union over rcv events (d, π') at j of
//           [d - Fprog, term(π') - 1]   (term = +inf while π' is live)
//
// where liveSince is the start of the link's continuous E-span (an
// edge that came up after the bcast only obliges the model from then
// on).  Whenever some t in need \ cover exists, the guard arms a
// deadline at t + Fprog.  If the deadline arrives and t is still
// uncovered, it forces a delivery from a live contending instance
// chosen by the scheduler (Scheduler::pickProgressDelivery).  A
// candidate always exists: if every live contending instance had
// already delivered to j, t would be covered.
//
// Cached need windows.  A window depends only on its instance's
// bcastAt and plannedAck and on its link's live-since instant, and all
// three are fixed from the instance's bcast until it terminates or the
// epoch changes.  So each (receiver, live instance) window is computed
// once — at bcast, and again when an epoch boundary rebuilds the
// windows — and dropped when the instance terminates.  Every new window starts at now(), at or after
// every window already held, so appending keeps each receiver's list
// sorted by start; the rebuild inserts in order.
//
// Two numbers instead of a cover list.  Every uncovered need point
// lies at or after t0 = now - Fprog: an older one would have had its
// deadline, which is before now, fire and force a covering delivery.
// Every cover starts at its receive time - Fprog, at or before t0.  So
// from t0 upward the union of j's covers is [t0, +inf) while j holds a
// receive from a still-live instance, and [t0, E] otherwise, where E
// is the largest termAt - 1 over j's receives from terminated
// instances (an empty set when E < t0).  A receiver therefore keeps a
// count of its receives from live instances and the one end E, and an
// evaluation is a scan of its need windows that touches no per-receive
// state.  A termination moves each receiver the instance delivered to
// from the count to E; an epsAbort grace receive, from an instance
// already terminated, only raises E.
//
// Superseded deadlines.  A deadline event is never cancelled: when a
// recompute stands a deadline down or moves it, the old event stays
// queued and returns at once when it fires.  An event that fires at
// the armed deadline acts for it even if it was scheduled for an
// earlier arming, and the armed event then finds nothing armed.
// Cancelling would change traces: such an older event fires ahead of
// the same-tick events scheduled after it, and its replacement would
// not.
//
// The progress-bound check in trace_checker.h also judges traces the
// guard did not produce, so it cannot assume the invariant and keeps
// the full interval algebra.
#pragma once

#include <vector>

#include "common/types.h"

namespace ammb::mac {

class MacEngine;

/// Per-receiver progress-bound bookkeeping; owned by the engine.
class ProgressGuard {
 public:
  ProgressGuard(MacEngine& engine, NodeId n);

  /// Moves the covers of instance `id` (its record's termAt is set) at
  /// `receivers`, the nodes it delivered to, from live to terminated,
  /// and drops its need windows.  Runs before the neighborhood's
  /// deadlines are recomputed.
  void onTerminate(InstanceId id, const std::vector<NodeId>& receivers);

  /// Epoch boundary: drops every cached need window.  The engine then
  /// re-adds the windows of each live instance with addNeeds(), under
  /// the new epoch's adjacency and live-since instants.
  void clearNeeds();

  /// Adds instance `id`'s need windows at its sender's current
  /// G-neighbors: at bcast, and for each live instance after
  /// clearNeeds().
  void addNeeds(InstanceId id);

  /// Records a receive at `receiver`, now, caused by `instance`.
  void onReceive(NodeId receiver, InstanceId instance);

  /// Re-evaluates the deadline for `receiver` (called after instance
  /// birth, termination, or a receive affecting `receiver`): arms,
  /// re-arms or stands down its deadline.
  void recompute(NodeId receiver);

  /// Runs a deadline event that commit() posted for `receiver`; the
  /// engine's dispatch calls it when the event is reached.
  void onDeadline(NodeId receiver);

 private:
  /// One live instance's window of obligated starts, [lo, hi].
  struct Need {
    InstanceId instance;
    Time lo;
    Time hi;
  };
  struct State {
    std::vector<Need> needs;  ///< sorted by lo
    /// Receives at this node from instances that are still live.
    std::int32_t liveCovers = 0;
    /// E: the largest termAt - 1 over receives from terminated
    /// instances (-1 when there are none, below every need window).
    Time deadCoverEnd = -1;
    Time armedDeadline = kTimeNever;  ///< kTimeNever when none is armed
  };

  /// Earliest uncovered window start in the need set, or kTimeNever.
  Time earliestUncovered(NodeId receiver) const;

  /// Arms / re-arms / stands down `receiver`'s deadline for an
  /// earliestUncovered() result.  Scheduling a deadline consumes an
  /// event sequence number, so callers keep a fixed receiver order.
  void commit(NodeId receiver, Time earliestUncovered);

  MacEngine& engine_;
  std::vector<State> states_;
};

}  // namespace ammb::mac
