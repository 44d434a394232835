// Unit tests for the graph substrate: generators, metrics, dual graphs.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"

namespace ammb::graph {
namespace {

TEST(Graph, LineBasics) {
  const Graph g = gen::line(5);
  EXPECT_EQ(g.n(), 5);
  EXPECT_EQ(g.edgeCount(), 4u);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_FALSE(g.hasEdge(0, 2));
  EXPECT_EQ(g.diameter(), 4);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Graph, RingAndStar) {
  const Graph ring = gen::ring(8);
  EXPECT_EQ(ring.edgeCount(), 8u);
  EXPECT_EQ(ring.diameter(), 4);
  const Graph star = gen::star(10);
  EXPECT_EQ(star.edgeCount(), 9u);
  EXPECT_EQ(star.diameter(), 2);
  EXPECT_EQ(star.degree(0), 9u);
}

TEST(Graph, GridMetrics) {
  const Graph g = gen::grid(4, 3);
  EXPECT_EQ(g.n(), 12);
  EXPECT_EQ(g.edgeCount(), static_cast<std::size_t>(3 * 3 + 4 * 2));
  EXPECT_EQ(g.diameter(), 3 + 2);
  const auto dist = g.bfsDistances(0);
  EXPECT_EQ(dist[11], 5);  // opposite corner
}

TEST(Graph, RandomTreeIsConnectedAcyclic) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::randomTree(20, rng);
    EXPECT_EQ(g.edgeCount(), 19u);
    EXPECT_TRUE(g.connected());
  }
}

TEST(Graph, BfsUnreachableIsMinusOne) {
  Graph g(4);
  g.addEdge(0, 1);
  g.finalize();
  const auto dist = g.bfsDistances(0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(g.componentCount(), 3);
  EXPECT_FALSE(g.connected());
}

TEST(Graph, MultiSourceBfs) {
  const Graph g = gen::line(9);
  const auto dist = g.bfsDistancesMulti({0, 8});
  EXPECT_EQ(dist[4], 4);
  EXPECT_EQ(dist[7], 1);
}

// The dynamics engine materializes disconnected graphs routinely (a
// crashed node is an isolated vertex; a dropped bridge splits G), so
// the BFS and power primitives must be exact there, not just on the
// connected families the generators produce.
TEST(Graph, MultiSourceBfsOnDisconnectedGraph) {
  // Components {0,1,2}, {3,4}, {5}.
  Graph g(6);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(3, 4);
  g.finalize();
  const auto dist = g.bfsDistancesMulti({0, 3});
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[4], 1);
  EXPECT_EQ(dist[5], -1);  // no source in the singleton component
  // Sources covering no component leave it unreached; duplicate
  // sources are idempotent.
  const auto dup = g.bfsDistancesMulti({5, 5});
  EXPECT_EQ(dup[5], 0);
  EXPECT_EQ(dup[0], -1);
  EXPECT_EQ(dup[3], -1);
  // An empty source set reaches nothing.
  const auto none = g.bfsDistancesMulti({});
  for (int d : none) EXPECT_EQ(d, -1);
}

TEST(Graph, PowerOfDisconnectedGraphStaysWithinComponents) {
  // Two 3-node paths: 0-1-2 and 3-4-5.
  Graph g(6);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(3, 4);
  g.addEdge(4, 5);
  g.finalize();
  const Graph g2 = g.power(2);
  EXPECT_TRUE(g2.hasEdge(0, 2));
  EXPECT_TRUE(g2.hasEdge(3, 5));
  // No power ever bridges components, and labels are preserved.
  EXPECT_FALSE(g2.hasEdge(2, 3));
  EXPECT_EQ(g2.componentCount(), 2);
  const Graph g9 = g.power(9);  // r beyond any diameter: per-component clique
  EXPECT_EQ(g9.edgeCount(), 6u);
  EXPECT_EQ(g9.componentCount(), 2);
  EXPECT_EQ(g.componentLabels(), g9.componentLabels());
}

TEST(Graph, PowerGraph) {
  const Graph g = gen::line(6);
  const Graph g2 = g.power(2);
  EXPECT_TRUE(g2.hasEdge(0, 2));
  EXPECT_TRUE(g2.hasEdge(0, 1));
  EXPECT_FALSE(g2.hasEdge(0, 3));
  EXPECT_EQ(g2.edgeCount(), 5u + 4u);
  const Graph g5 = g.power(5);
  EXPECT_EQ(g5.edgeCount(), 15u);  // complete graph on 6 nodes
}

TEST(Graph, RejectsBadInput) {
  Graph g(3);
  EXPECT_THROW(g.addEdge(0, 0), Error);
  EXPECT_THROW(g.addEdge(0, 5), Error);
  g.addEdge(0, 1);
  EXPECT_EQ(g.edgeCount(), 0u);  // counted at finalize()
#ifndef NDEBUG
  // Query-path bounds/finalization checks are AMMB_DCHECK: they throw
  // in debug builds and compile out of release hot paths (the
  // generators finalize every graph they build).
  EXPECT_THROW(g.neighbors(0), Error);  // not finalized
  EXPECT_THROW(g.hasEdge(0, 1), Error);
#else
  // The constructor sizes the offsets, so a release build reads an
  // unfinalized graph as edgeless instead of out of bounds.
  EXPECT_TRUE(g.neighbors(0).empty());
  EXPECT_TRUE(g.neighbors(2).empty());
  EXPECT_FALSE(g.hasEdge(0, 1));
#endif
  g.finalize();
  EXPECT_THROW(g.addEdge(1, 2), Error);  // a finalized graph is frozen
  EXPECT_FALSE(g.hasEdge(1, 2));
  EXPECT_THROW(g.power(0), Error);
}

std::vector<NodeId> spanOf(const Graph& g, NodeId u) {
  const Graph::Span s = g.neighbors(u);
  return {s.begin(), s.end()};
}

TEST(Graph, AddEdgeIdempotent) {
  Graph g(5);
  g.addEdge(3, 0);
  g.addEdge(0, 1);
  g.addEdge(4, 0);
  g.addEdge(1, 0);
  g.addEdge(0, 3);
  g.addEdge(2, 1);
  g.finalize();
  EXPECT_EQ(g.edgeCount(), 4u);
  EXPECT_EQ(spanOf(g, 0), (std::vector<NodeId>{1, 3, 4}));
  EXPECT_EQ(spanOf(g, 1), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(spanOf(g, 2), (std::vector<NodeId>{1}));
  EXPECT_EQ(spanOf(g, 3), (std::vector<NodeId>{0}));
  EXPECT_EQ(spanOf(g, 4), (std::vector<NodeId>{0}));
  const std::vector<std::pair<NodeId, NodeId>> edges{
      {0, 1}, {0, 3}, {0, 4}, {1, 2}};
  EXPECT_EQ(g.edges(), edges);

  // A second finalize() changes nothing, not even the storage.
  const NodeId* storage = g.neighbors(0).begin();
  g.finalize();
  EXPECT_EQ(g.neighbors(0).begin(), storage);
  EXPECT_EQ(g.edgeCount(), 4u);
  EXPECT_EQ(g.edges(), edges);
}

TEST(DualGraph, RejectsNonSubsetReliableEdges) {
  Graph g = gen::line(4);
  Graph gp(4);
  gp.addEdge(0, 1);  // missing edges 1-2, 2-3
  gp.finalize();
  EXPECT_THROW(DualGraph(std::move(g), std::move(gp)), Error);
}

TEST(DualGraph, RestrictionRadius) {
  Rng rng(1);
  const auto identity = gen::identityDual(gen::line(8));
  EXPECT_EQ(identity.restrictionRadius().value(), 1);
  EXPECT_TRUE(identity.isRRestricted(1));

  const auto r3 = gen::withRRestrictedNoise(gen::line(20), 3, 1.0, rng);
  EXPECT_EQ(r3.restrictionRadius().value(), 3);
  EXPECT_TRUE(r3.isRRestricted(3));
  EXPECT_FALSE(r3.isRRestricted(2));
}

TEST(DualGraph, RestrictionRadiusAcrossComponentsIsUnbounded) {
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(2, 3);
  g.finalize();
  Graph gp(4);
  gp.addEdge(0, 1);
  gp.addEdge(2, 3);
  gp.addEdge(1, 2);  // unreliable bridge between G-components
  gp.finalize();
  const DualGraph dual(std::move(g), std::move(gp));
  EXPECT_FALSE(dual.restrictionRadius().has_value());
}

TEST(DualGraph, ArbitraryNoiseCounts) {
  Rng rng(5);
  const auto dual = gen::withArbitraryNoise(gen::line(30), 12, rng);
  EXPECT_EQ(dual.gPrime().edgeCount(), dual.g().edgeCount() + 12);
}

TEST(DualGraph, GreyZoneFromPointsRespectsUnitDiskAndC) {
  Rng rng(11);
  auto pts = gen::randomPoints(60, 7.0, 7.0, rng);
  const auto dual = gen::greyZoneFromPoints(std::move(pts), 2.0, 0.5, rng);
  EXPECT_TRUE(dual.satisfiesGreyZone(2.0));
  // Every unreliable edge spans distance in (1, 2].
  const auto& emb = dual.embedding().value();
  for (const auto& [u, v] : dual.gPrime().edges()) {
    const double d = distance(emb[static_cast<std::size_t>(u)],
                              emb[static_cast<std::size_t>(v)]);
    if (dual.g().hasEdge(u, v)) {
      EXPECT_LE(d, 1.0 + 1e-9);
    } else {
      EXPECT_GT(d, 1.0);
      EXPECT_LE(d, 2.0 + 1e-9);
    }
  }
}

TEST(DualGraph, GreyZoneUnitDiskIsConnected) {
  Rng rng(17);
  gen::GreyZoneParams params;
  params.n = 64;
  params.width = 6.0;
  params.height = 6.0;
  const auto dual = gen::greyZoneUnitDisk(params, rng);
  EXPECT_TRUE(dual.g().connected());
  EXPECT_TRUE(dual.satisfiesGreyZone(params.c));
}

TEST(DualGraph, LinePointsGridPointsEmbeddings) {
  Rng rng(2);
  const auto lineDual =
      gen::greyZoneFromPoints(gen::linePoints(10), 2.5, 0.8, rng);
  EXPECT_EQ(lineDual.g().diameter(), 9);
  EXPECT_TRUE(lineDual.satisfiesGreyZone(2.5));
  // r-restriction follows from geometry: an edge of length <= 2.5 joins
  // nodes at most 3 hops apart on the unit-spaced line.
  EXPECT_LE(lineDual.restrictionRadius().value(), 3);

  const auto gridDual =
      gen::greyZoneFromPoints(gen::gridPoints(5, 4), 2.0, 0.4, rng);
  EXPECT_TRUE(gridDual.satisfiesGreyZone(2.0));
}

TEST(LowerBoundNetworkC, StructureMatchesFigure2) {
  const int D = 8;
  const auto net = gen::lowerBoundNetworkC(D);
  EXPECT_EQ(net.n(), 2 * D);
  // G: two disjoint lines.
  EXPECT_EQ(net.g().componentCount(), 2);
  EXPECT_EQ(net.g().edgeCount(), static_cast<std::size_t>(2 * (D - 1)));
  // G' adds exactly the 2(D-1) diagonal cross edges.
  EXPECT_EQ(net.gPrime().edgeCount(), static_cast<std::size_t>(4 * (D - 1)));
  EXPECT_TRUE(net.isUnreliableOnlyEdge(0, D + 1));      // a_0 - b_1
  EXPECT_TRUE(net.isUnreliableOnlyEdge(D + 0, 1));      // b_0 - a_1
  EXPECT_FALSE(net.gPrime().hasEdge(0, D));             // a_0 - b_0 absent
  // The embedding realizes the grey zone for c >= 1.5.
  EXPECT_TRUE(net.satisfiesGreyZone(1.5));
  EXPECT_FALSE(net.satisfiesGreyZone(1.2));
  // No finite r-restriction: cross edges join different G-components.
  EXPECT_FALSE(net.restrictionRadius().has_value());
}

TEST(BridgeStar, StructureMatchesLemma318) {
  const int k = 6;
  const auto net = gen::bridgeStar(k);
  EXPECT_EQ(net.n(), k + 1);
  const NodeId center = k - 1;
  const NodeId receiver = k;
  EXPECT_EQ(net.g().degree(center), static_cast<std::size_t>(k));
  EXPECT_EQ(net.g().degree(receiver), 1u);
  EXPECT_EQ(net.restrictionRadius().value(), 1);  // G' = G
}

TEST(Generators, RejectBadParameters) {
  Rng rng(1);
  EXPECT_THROW(gen::line(0), Error);
  EXPECT_THROW(gen::ring(2), Error);
  EXPECT_THROW(gen::star(1), Error);
  EXPECT_THROW(gen::grid(0, 3), Error);
  EXPECT_THROW(gen::lowerBoundNetworkC(1), Error);
  EXPECT_THROW(gen::bridgeStar(1), Error);
  EXPECT_THROW(gen::withRRestrictedNoise(gen::line(4), 0, 0.5, rng), Error);
  EXPECT_THROW(gen::withArbitraryNoise(gen::line(3), 100, rng), Error);
  EXPECT_THROW(gen::greyZoneFromPoints(gen::linePoints(3), 0.5, 0.1, rng),
               Error);
}

TEST(Graph, EdgesListRoundTrip) {
  Rng rng(9);
  const Graph g = gen::randomTree(15, rng);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), g.edgeCount());
  for (const auto& [u, v] : edges) {
    EXPECT_LT(u, v);
    EXPECT_TRUE(g.hasEdge(u, v));
  }
}

}  // namespace
}  // namespace ammb::graph
