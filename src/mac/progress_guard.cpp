#include "mac/progress_guard.h"

#include <algorithm>

#include "mac/engine.h"

namespace ammb::mac {

ProgressGuard::ProgressGuard(MacEngine& engine, NodeId n)
    : engine_(engine), states_(static_cast<std::size_t>(n)) {}

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

void ProgressGuard::onTerminate(InstanceId id,
                                const std::vector<NodeId>& receivers) {
  const InstanceRecord& rec = engine_.records_[static_cast<std::size_t>(id)];
  for (NodeId j : receivers) {
    State& st = states_[static_cast<std::size_t>(j)];
    --st.liveCovers;
    AMMB_DCHECK(st.liveCovers >= 0);
    st.deadCoverEnd = std::max(st.deadCoverEnd, rec.termAt - 1);
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

void ProgressGuard::onReceive(NodeId receiver, InstanceId instance) {
  State& st = states_[static_cast<std::size_t>(receiver)];
  const InstanceRecord& rec =
      engine_.records_[static_cast<std::size_t>(instance)];
  if (!rec.terminated()) {
    // The new cover reaches from now - fprog to +inf while `instance`
    // is live, so the whole need set is covered: stand down.
    ++st.liveCovers;
    commit(receiver, kTimeNever);
    return;
  }
  // epsAbort grace delivery: the cover ends at termAt - 1.
  st.deadCoverEnd = std::max(st.deadCoverEnd, rec.termAt - 1);
  recompute(receiver);
}

Time ProgressGuard::earliestUncovered(NodeId receiver) const {
  const State& st = states_[static_cast<std::size_t>(receiver)];
  if (st.liveCovers > 0) return kTimeNever;
  // Everything below `from` is covered (see the header comment), and
  // nothing from it on.  Windows are sorted by lo, so max(lo, from)
  // never decreases along the scan: the first window that reaches it
  // holds the earliest uncovered start.
  const Time from = std::max(engine_.now() - engine_.params().fprog,
                             st.deadCoverEnd + 1);
  for (const Need& nd : st.needs) {
    const Time t = std::max(nd.lo, from);
    if (t <= nd.hi) return t;
  }
  return kTimeNever;
}

void ProgressGuard::recompute(NodeId receiver) {
  commit(receiver, earliestUncovered(receiver));
}

void ProgressGuard::commit(NodeId receiver, Time t) {
  State& st = states_[static_cast<std::size_t>(receiver)];
  // Standing down or moving a deadline leaves its queued event to fire
  // as a no-op (see onDeadline).
  if (t == kTimeNever) {
    st.armedDeadline = kTimeNever;
    return;
  }
  const Time deadline = t + engine_.params().fprog;
  if (st.armedDeadline == deadline) return;
  st.armedDeadline = deadline;
  engine_.queue_.schedule(
      deadline, sim::Event{MacEngine::kDeadlineEvent, receiver, 0});
}

void ProgressGuard::onDeadline(NodeId receiver) {
  State& st = states_[static_cast<std::size_t>(receiver)];
  // Stood down, or moved to another tick.
  if (st.armedDeadline != engine_.now()) return;
  st.armedDeadline = kTimeNever;
  // Every change to the need or cover set recomputes the deadline, so
  // an armed deadline that is reached is still owed.
  const Time t = earliestUncovered(receiver);
  AMMB_ASSERT(t != kTimeNever && t + engine_.params().fprog == engine_.now());
  // The forced receive comes from a live instance, so its onReceive
  // leaves the receiver covered and stood down.
  engine_.forceProgressDelivery(receiver);
}

}  // namespace ammb::mac
