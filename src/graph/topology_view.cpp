#include "graph/topology_view.h"

#include <algorithm>
#include <utility>

namespace ammb::graph {

namespace {

using Edge = std::pair<NodeId, NodeId>;

Edge orient(NodeId u, NodeId v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

/// Materializes the epoch topology from the edge flags over the sorted
/// universe and the liveness mask: edges with a dead endpoint are
/// physically absent from the adjacency, so every downstream consumer
/// (scheduler plans, the guard, the offline checker) agrees on what
/// "live link" means.
DualGraph materialize(NodeId n, const std::vector<Edge>& universe,
                      const std::vector<std::uint8_t>& inE,
                      const std::vector<std::uint8_t>& inEPrime,
                      const std::vector<std::uint8_t>& alive,
                      const std::optional<Embedding>& embedding) {
  Graph g(n);
  Graph gp(n);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    // Flags before ids: a pair that only a later, ill-formed event
    // names may hold an out-of-range id, but it is never flagged.
    if (inE[i] == 0 && inEPrime[i] == 0) continue;
    const auto [u, v] = universe[i];
    if (alive[static_cast<std::size_t>(u)] == 0 ||
        alive[static_cast<std::size_t>(v)] == 0) {
      continue;
    }
    if (inE[i] != 0) g.addEdge(u, v);
    if (inEPrime[i] != 0) gp.addEdge(u, v);
  }
  g.finalize();
  gp.finalize();
  if (embedding.has_value()) {
    return DualGraph(std::move(g), std::move(gp), *embedding);
  }
  return DualGraph(std::move(g), std::move(gp));
}

}  // namespace

void TopologyDynamics::validate() const {
  Time last = 0;
  for (const TopologyEpoch& epoch : epochs) {
    AMMB_REQUIRE(epoch.start > last,
                 "dynamics epochs need strictly increasing positive "
                 "boundary times");
    last = epoch.start;
  }
}

TopologyView::TopologyView(const DualGraph& base) : base_(&base) {
  Epoch epoch;
  epoch.start = 0;
  epoch.dual = base_;
  epoch.alive.assign(static_cast<std::size_t>(base.n()), 1);
  epochs_.push_back(std::move(epoch));
}

TopologyView::TopologyView(const DualGraph& base,
                           const TopologyDynamics& dynamics)
    : TopologyView(base) {
  if (dynamics.empty()) return;
  dynamics.validate();

  const NodeId n = base.n();
  // Every pair E or E′ can ever hold: the base E′ plus the pair of each
  // edge event, sorted and deduplicated.  E and E′ are flags over it.
  const auto isEdgeEvent = [](const TopologyEvent& ev) {
    return ev.kind == TopologyEvent::Kind::kEdgeDown ||
           ev.kind == TopologyEvent::Kind::kEdgeUp;
  };
  std::size_t edgeEvents = 0;
  for (const TopologyEpoch& spec : dynamics.epochs) {
    edgeEvents += static_cast<std::size_t>(std::count_if(
        spec.events.begin(), spec.events.end(), isEdgeEvent));
  }
  std::vector<Edge> universe;
  universe.reserve(base.gPrime().edgeCount() + edgeEvents);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : base.gPrime().neighbors(u)) {
      if (u < v) universe.emplace_back(u, v);
    }
  }
  const auto baseEnd = static_cast<std::ptrdiff_t>(universe.size());
  for (const TopologyEpoch& spec : dynamics.epochs) {
    for (const TopologyEvent& ev : spec.events) {
      if (isEdgeEvent(ev)) universe.push_back(orient(ev.u, ev.v));
    }
  }
  std::sort(universe.begin() + baseEnd, universe.end());
  std::inplace_merge(universe.begin(), universe.begin() + baseEnd,
                     universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  const auto indexOf = [&universe](NodeId u, NodeId v) {
    return static_cast<std::size_t>(
        std::lower_bound(universe.begin(), universe.end(), orient(u, v)) -
        universe.begin());
  };
  // Both base graphs list their edges in universe order.
  const auto flagsOf = [&universe](const Graph& graph) {
    std::vector<std::uint8_t> flags(universe.size(), 0);
    std::size_t i = 0;
    for (NodeId u = 0; u < graph.n(); ++u) {
      for (NodeId v : graph.neighbors(u)) {
        if (u > v) continue;
        while (universe[i] != Edge{u, v}) ++i;
        flags[i] = 1;
      }
    }
    return flags;
  };
  std::vector<std::uint8_t> inE = flagsOf(base.g());
  std::vector<std::uint8_t> inEPrime = flagsOf(base.gPrime());
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(n), 1);

  const auto checkNode = [n](NodeId u) {
    AMMB_REQUIRE(u >= 0 && u < n, "dynamics event node id out of range");
  };

  for (const TopologyEpoch& spec : dynamics.epochs) {
    // Touched-node bookkeeping for touchedAt(): a crash voids the
    // *previous* epoch's adjacency (read it before the events apply),
    // a recovery creates the *new* epoch's adjacency (resolved after
    // the new epoch's graph below is built).
    std::vector<NodeId> touched;
    std::vector<NodeId> recovered;
    const Graph& prevPrime = epochs_.back().dual->gPrime();
    for (const TopologyEvent& ev : spec.events) {
      switch (ev.kind) {
        case TopologyEvent::Kind::kNodeCrash:
          checkNode(ev.u);
          AMMB_REQUIRE(alive[static_cast<std::size_t>(ev.u)] != 0,
                       "dynamics crash of an already-crashed node");
          alive[static_cast<std::size_t>(ev.u)] = 0;
          touched.push_back(ev.u);
          for (NodeId j : prevPrime.neighbors(ev.u)) touched.push_back(j);
          break;
        case TopologyEvent::Kind::kNodeRecover:
          checkNode(ev.u);
          AMMB_REQUIRE(alive[static_cast<std::size_t>(ev.u)] == 0,
                       "dynamics recovery of a node that is not down");
          alive[static_cast<std::size_t>(ev.u)] = 1;
          touched.push_back(ev.u);
          recovered.push_back(ev.u);
          break;
        case TopologyEvent::Kind::kEdgeDown: {
          checkNode(ev.u);
          checkNode(ev.v);
          const std::size_t i = indexOf(ev.u, ev.v);
          AMMB_REQUIRE(inEPrime[i] != 0,
                       "dynamics drop of an edge that is not in E'");
          inEPrime[i] = 0;
          inE[i] = 0;
          touched.push_back(ev.u);
          touched.push_back(ev.v);
          break;
        }
        case TopologyEvent::Kind::kEdgeUp: {
          checkNode(ev.u);
          checkNode(ev.v);
          AMMB_REQUIRE(ev.u != ev.v, "dynamics edge must not be a self-loop");
          const std::size_t i = indexOf(ev.u, ev.v);
          if (ev.reliable) {
            inE[i] = 1;
          } else {
            AMMB_REQUIRE(inE[i] == 0,
                         "dynamics unreliable edge-up of an edge already "
                         "in E");
          }
          inEPrime[i] = 1;
          touched.push_back(ev.u);
          touched.push_back(ev.v);
          break;
        }
      }
    }
    owned_.push_back(std::make_unique<DualGraph>(
        materialize(n, universe, inE, inEPrime, alive, base.embedding())));
    Epoch epoch;
    epoch.start = spec.start;
    epoch.dual = owned_.back().get();
    epoch.alive = alive;
    for (NodeId u : recovered) {
      for (NodeId j : epoch.dual->gPrime().neighbors(u)) touched.push_back(j);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    epoch.touched = std::move(touched);
    epochs_.push_back(std::move(epoch));
  }
}

int TopologyView::epochAt(Time t) const {
  AMMB_REQUIRE(t >= 0, "epoch lookup requires a non-negative time");
  // Epochs are few; the linear scan from the back beats a binary search
  // on realistic schedules and is trivially correct.
  for (int e = epochCount() - 1; e > 0; --e) {
    if (t >= epochs_[static_cast<std::size_t>(e)].start) return e;
  }
  return 0;
}

Time TopologyView::gEdgeLiveSince(int e, NodeId u, NodeId v) const {
  if (!dualAt(e).g().hasEdge(u, v)) return kTimeNever;
  Time since = epoch(e).start;
  for (int p = e - 1; p >= 0; --p) {
    if (!dualAt(p).g().hasEdge(u, v)) break;
    since = epoch(p).start;
  }
  return since;
}

bool TopologyView::gEdgeLiveThroughout(NodeId u, NodeId v, Time t1,
                                       Time t2) const {
  AMMB_REQUIRE(t1 <= t2, "gEdgeLiveThroughout needs an ordered interval");
  const int last = epochAt(t2);
  for (int e = epochAt(t1); e <= last; ++e) {
    if (!dualAt(e).g().hasEdge(u, v)) return false;
  }
  return true;
}

}  // namespace ammb::graph
