#include "mac/progress_guard.h"

#include <algorithm>
#include <limits>

#include "mac/engine.h"

namespace ammb::mac {

ProgressGuard::ProgressGuard(MacEngine& engine, NodeId n)
    : engine_(engine), states_(static_cast<std::size_t>(n)) {}

void ProgressGuard::onBcast(InstanceId id) {
  AMMB_ASSERT(id == static_cast<InstanceId>(termAt_.size()));
  termAt_.push_back(kTimeNever);
  addNeeds(id);
}

void ProgressGuard::addNeeds(InstanceId id) {
  const InstanceRecord& rec = engine_.records_[static_cast<std::size_t>(id)];
  const graph::TopologyView& view = *engine_.view_;
  const Time hi = rec.plannedAck - engine_.params().fprog - 1;
  for (NodeId j : engine_.dual_->g().neighbors(rec.sender)) {
    // Windows are quantified over the link's continuous live span: an
    // E-edge that came up after the bcast obliges the model only from
    // then on (the offline checker applies the same rule per span).  A
    // single-epoch view's links are live since t = 0.
    const Time liveSince =
        view.dynamic() ? view.gEdgeLiveSince(engine_.epoch_, rec.sender, j)
                       : 0;
    if (liveSince == kTimeNever) continue;
    const Time lo = std::max(rec.bcastAt, liveSince);
    if (hi < lo) continue;
    std::vector<Need>& needs = states_[static_cast<std::size_t>(j)].needs;
    // At bcast lo == now(), so this appends; only the epoch rebuild
    // inserts mid-list.
    const auto at = std::upper_bound(
        needs.begin(), needs.end(), lo,
        [](Time x, const Need& nd) { return x < nd.lo; });
    needs.insert(at, Need{id, lo, hi});
  }
}

void ProgressGuard::onTerminate(InstanceId id) {
  const InstanceRecord& rec = engine_.records_[static_cast<std::size_t>(id)];
  termAt_[static_cast<std::size_t>(id)] = rec.termAt;
  while (oldestLive_ < static_cast<InstanceId>(termAt_.size()) &&
         termAt_[static_cast<std::size_t>(oldestLive_)] != kTimeNever) {
    ++oldestLive_;
  }
  // The windows were added at the sender's G-neighbors of the current
  // epoch (a boundary re-adds them), so that span holds all of them.
  for (NodeId j : engine_.dual_->g().neighbors(rec.sender)) {
    std::vector<Need>& needs = states_[static_cast<std::size_t>(j)].needs;
    const auto it =
        std::find_if(needs.begin(), needs.end(),
                     [id](const Need& nd) { return nd.instance == id; });
    if (it != needs.end()) needs.erase(it);
  }
}

void ProgressGuard::clearNeeds() {
  for (State& st : states_) st.needs.clear();
}

void ProgressGuard::onReceive(NodeId receiver, InstanceId instance, Time at) {
  states_[static_cast<std::size_t>(receiver)].covers.push_back(
      Cover{at, instance});
  if (termAt_[static_cast<std::size_t>(instance)] == kTimeNever) {
    // Fast path: the new cover is [at - fprog, +inf) while `instance`
    // is live, and the guard invariant keeps every uncovered window
    // start >= now - fprog (an older uncovered start would have had
    // its deadline fire — and force a covering delivery — already).
    // The whole need set is therefore covered: stand down without the
    // interval scan.  pruneCovers runs as recompute() would have, so
    // the covers vector evolves identically on both paths.
    pruneCovers(receiver);
    commit(receiver, kTimeNever);
    return;
  }
  // Terminated instance (epsAbort grace delivery): the cover is capped
  // at termAt - 1, no shortcut applies.
  recompute(receiver);
}

Time ProgressGuard::earliestUncovered(NodeId receiver) const {
  const Time fprog = engine_.params().fprog;
  const State& st = states_[static_cast<std::size_t>(receiver)];

  // One merged pass over the need windows (sorted by start) and the
  // covers (sorted by start, being in receive order).  Invariant: every
  // need point below t is covered, and every consumed cover ends below
  // t — so the next cover either contains t, ends below it, or starts
  // after it, in which case no cover contains t.
  Time t = std::numeric_limits<Time>::min();
  std::size_t next = 0;
  for (const Need& nd : st.needs) {
    t = std::max(t, nd.lo);
    while (t <= nd.hi) {
      if (next == st.covers.size()) return t;
      const Cover& c = st.covers[next];
      if (c.rcvAt - fprog > t) return t;
      ++next;
      const Time term = termAt_[static_cast<std::size_t>(c.instance)];
      if (term == kTimeNever) return kTimeNever;  // covers t onwards
      t = std::max(t, term);                      // covers up to term - 1
    }
  }
  return kTimeNever;
}

void ProgressGuard::recompute(NodeId receiver) {
  pruneCovers(receiver);
  commit(receiver, earliestUncovered(receiver));
}

void ProgressGuard::commit(NodeId receiver, Time t) {
  State& st = states_[static_cast<std::size_t>(receiver)];
  if (t == kTimeNever) {
    if (st.armedEvent != 0) {
      // No obligation left; stand down.  The queued deadline event is
      // not cancelled: when it fires, onDeadline re-validates against
      // the guard state of that moment.
      st.armedDeadline = kTimeNever;
      st.armedEvent = 0;
    }
    return;
  }
  const Time deadline = t + engine_.params().fprog;
  AMMB_ASSERT(deadline >= engine_.now());
  if (st.armedEvent != 0 && st.armedDeadline == deadline) return;
  st.armedDeadline = deadline;
  st.armedEvent = 0;
  // Note: superseded events are left to fire and re-validate; this
  // avoids handle-reuse bookkeeping and keeps the guard reentrant.
  sim::EventQueue& queue = engine_.queue_;
  st.armedEvent =
      queue.schedule(deadline, [this, receiver] { onDeadline(receiver); });
}

void ProgressGuard::onDeadline(NodeId receiver) {
  State& st = states_[static_cast<std::size_t>(receiver)];
  st.armedEvent = 0;
  st.armedDeadline = kTimeNever;
  const Time t = earliestUncovered(receiver);
  if (t == kTimeNever) return;  // obligation satisfied meanwhile
  const Time deadline = t + engine_.params().fprog;
  const Time now = engine_.now();
  if (deadline > now) {
    recompute(receiver);
    return;
  }
  AMMB_ASSERT(deadline == now);
  engine_.forceProgressDelivery(receiver);
  recompute(receiver);
}

void ProgressGuard::pruneCovers(NodeId receiver) {
  State& st = states_[static_cast<std::size_t>(receiver)];
  if (st.covers.size() < st.pruneAt) return;
  // No live or future need window starts before the floor (see the
  // header comment), so finite covers ending before it are dead.
  Time floor = engine_.now() - engine_.params().fack;
  if (oldestLive_ < static_cast<InstanceId>(termAt_.size())) {
    floor = std::min(
        floor,
        engine_.records_[static_cast<std::size_t>(oldestLive_)].bcastAt);
  }
  // In-place compaction (order-preserving, allocation-free); the
  // retained capacity is unobservable in results.
  std::size_t out = 0;
  for (const Cover& c : st.covers) {
    const Time term = termAt_[static_cast<std::size_t>(c.instance)];
    if (term != kTimeNever && term - 1 < floor) continue;
    st.covers[out++] = c;
  }
  st.covers.resize(out);
  st.pruneAt = std::max(kMinPrune, 2 * out);
}

}  // namespace ammb::mac
