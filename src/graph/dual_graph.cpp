#include "graph/dual_graph.h"

#include <algorithm>

namespace ammb::graph {

DualGraph::DualGraph(Graph g, Graph gPrime)
    : g_(std::move(g)), gPrime_(std::move(gPrime)) {
  validate();
}

DualGraph::DualGraph(Graph g, Graph gPrime, Embedding embedding)
    : g_(std::move(g)),
      gPrime_(std::move(gPrime)),
      embedding_(std::move(embedding)) {
  AMMB_REQUIRE(static_cast<NodeId>(embedding_->size()) == g_.n(),
               "embedding size must match node count");
  validate();
}

void DualGraph::validate() const {
  AMMB_REQUIRE(g_.n() == gPrime_.n(),
               "G and G' must have the same node count");
  AMMB_REQUIRE(g_.finalized() && gPrime_.finalized(),
               "graphs must be finalized before forming a DualGraph");
  for (NodeId u = 0; u < g_.n(); ++u) {
    const Graph::Span e = g_.neighbors(u);
    const Graph::Span ePrime = gPrime_.neighbors(u);
    AMMB_REQUIRE(
        std::includes(ePrime.begin(), ePrime.end(), e.begin(), e.end()),
        "E must be a subset of E'");
  }
}

std::optional<int> DualGraph::restrictionRadius() const {
  int radius = 0;
  // One BFS in G per node that carries any E'-only edge.
  for (NodeId u = 0; u < n(); ++u) {
    bool needs = false;
    for (NodeId v : gPrime_.neighbors(u)) {
      if (u < v && !g_.hasEdge(u, v)) {
        needs = true;
        break;
      }
    }
    if (!needs) continue;
    const auto dist = g_.bfsDistances(u);
    for (NodeId v : gPrime_.neighbors(u)) {
      if (u >= v || g_.hasEdge(u, v)) continue;
      const int d = dist[static_cast<std::size_t>(v)];
      if (d < 0) return std::nullopt;  // different G components
      radius = std::max(radius, d);
    }
  }
  return std::max(radius, 1);
}

bool DualGraph::isRRestricted(int r) const {
  AMMB_REQUIRE(r >= 1, "r-restriction requires r >= 1");
  const auto radius = restrictionRadius();
  return radius.has_value() && *radius <= r;
}

bool DualGraph::satisfiesGreyZone(double c, double tolerance) const {
  if (!embedding_.has_value()) return false;
  AMMB_REQUIRE(c >= 1.0, "grey zone constant c must be >= 1");
  const Embedding& p = *embedding_;
  const NodeId nn = n();
  for (NodeId u = 0; u < nn; ++u) {
    for (NodeId v = u + 1; v < nn; ++v) {
      const double d = distance(p[static_cast<std::size_t>(u)],
                                p[static_cast<std::size_t>(v)]);
      const bool close = d <= 1.0 + tolerance;
      // Property (1): E edges iff distance <= 1.
      if (g_.hasEdge(u, v) != close) return false;
      // Property (2): E' edges never longer than c.
      if (gPrime_.hasEdge(u, v) && d > c + tolerance) return false;
    }
  }
  return true;
}

}  // namespace ammb::graph
