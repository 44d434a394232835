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
// three are fixed from the moment the instance joins j's live list
// until it leaves it or the epoch changes.  So each (receiver, live
// instance) window is computed once — at bcast, and again when an
// epoch boundary rebuilds the live lists — and dropped when the
// instance terminates.  Every new window starts at now(), at or after
// every window already held, so appending keeps each receiver's list
// sorted by start; the rebuild inserts in order.  Termination times
// live in one dense array indexed by instance id (kTimeNever while
// live), so reading a cover's end never touches an InstanceRecord.
// One evaluation is then a single merged pass over the sorted need
// windows and the receive-ordered covers: O(live windows + covers).
//
// Cover pruning.  A cover that ends before every window start the
// receiver can still be asked for is dead weight.  Every such start
// lies at or after
//
//   floor = min(now - Fack, bcastAt of the oldest live instance):
//
// a live instance's windows start at or after its bcastAt (even after
// an epoch rebuild re-clips them), and an instance born later starts
// its windows at its own bcast, which is at or after now.  Ids are
// issued in bcast order, so the oldest live instance is the first id
// whose termination time is still kTimeNever; a cursor over the dense
// array tracks it.  A cover ending before the floor can therefore
// never contain a need point, and dropping it cannot change any
// evaluation's result, whenever pruning runs.  With plan validation on
// every live instance acks within Fack of its bcast, so its bcastAt is
// at least now - Fack and the floor is just now - Fack; the second
// term matters when a mutation fixture keeps instances live longer.
// Pruning runs when a receiver's cover list reaches twice the length
// the previous prune left (at least kMinPrune), which keeps the list
// proportional to its live covers at amortized O(1) cost per receive.
//
// The same interval algebra, applied offline to a finished trace, is
// the progress-bound check in trace_checker.h.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace ammb::mac {

class MacEngine;

/// Per-receiver progress-bound bookkeeping; owned by the engine.
class ProgressGuard {
 public:
  ProgressGuard(MacEngine& engine, NodeId n);

  /// Registers freshly planned instance `id`: its (live) termination
  /// slot, and a need window at each current G-neighbor of its sender.
  void onBcast(InstanceId id);

  /// Records instance `id`'s termination (its record's termAt) and
  /// drops its need windows.  Runs before the neighborhood's deadlines
  /// are recomputed.
  void onTerminate(InstanceId id);

  /// Epoch boundary: drops every cached need window.  The engine then
  /// re-adds the windows of each live instance with addNeeds(), under
  /// the new epoch's adjacency and live-since instants.
  void clearNeeds();

  /// Adds instance `id`'s need windows at its sender's current
  /// G-neighbors.
  void addNeeds(InstanceId id);

  /// Records a receive event at `receiver` caused by `instance`.
  void onReceive(NodeId receiver, InstanceId instance, Time at);

  /// Re-evaluates the deadline for `receiver` (called after instance
  /// birth, termination, or a receive affecting `receiver`): prunes its
  /// dead covers, then arms, re-arms or stands down its deadline.
  void recompute(NodeId receiver);

 private:
  /// Smallest cover-list length that triggers a prune.
  static constexpr std::size_t kMinPrune = 16;

  struct Cover {
    Time rcvAt;
    InstanceId instance;
  };
  /// One live instance's window of obligated starts, [lo, hi].
  struct Need {
    InstanceId instance;
    Time lo;
    Time hi;
  };
  struct State {
    std::vector<Need> needs;    ///< sorted by lo
    std::vector<Cover> covers;  ///< in receive order, so sorted by start
    std::size_t pruneAt = kMinPrune;
    sim::EventHandle armedEvent = 0;
    Time armedDeadline = kTimeNever;
  };

  /// Earliest uncovered window start in the need set, or kTimeNever.
  Time earliestUncovered(NodeId receiver) const;

  /// Arms / re-arms / stands down `receiver`'s deadline for an
  /// earliestUncovered() result.  Scheduling a deadline consumes an
  /// event sequence number, so callers keep a fixed receiver order.
  void commit(NodeId receiver, Time earliestUncovered);

  /// Fires when an armed deadline is reached.
  void onDeadline(NodeId receiver);

  /// Drops covers that can no longer matter (see the header comment).
  void pruneCovers(NodeId receiver);

  MacEngine& engine_;
  std::vector<State> states_;
  /// Termination time per instance id; kTimeNever while live.
  std::vector<Time> termAt_;
  /// First id whose termAt_ is still kTimeNever (termAt_.size() if none).
  InstanceId oldestLive_ = 0;
};

}  // namespace ammb::mac
