// Differential tests of topology construction against simple
// references kept here: the all-pairs grey-zone scan, a std::set
// adjacency builder and the std::set epoch builder.  The library's
// grid search, blocked CSR builder and flag-based epoch view must
// produce the same graphs, draw the same coins and throw the same
// messages at the same events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/dynamics.h"
#include "graph/generators.h"
#include "graph/topology_view.h"

namespace ammb::graph {
namespace {

using Edge = std::pair<NodeId, NodeId>;

/// The caller-facing part of an AMMB_REQUIRE message, without the
/// condition text and source location that follow it.
std::string reasonOf(const Error& error) {
  std::string what = error.what();
  const std::string prefix = "ammb precondition violated: ";
  if (what.rfind(prefix, 0) == 0) what.erase(0, prefix.size());
  return what.substr(0, what.find(" ["));
}

// --- grey-zone generator -----------------------------------------------------

/// The all-pairs construction: every pair in (u, v) order, with one
/// coin for each pair at distance in (1, c].
DualGraph allPairsGreyZone(Embedding points, double c, double pGrey,
                           Rng& rng) {
  const auto n = static_cast<NodeId>(points.size());
  Graph g(n);
  Graph gp(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double d = distance(points[static_cast<std::size_t>(u)],
                                points[static_cast<std::size_t>(v)]);
      if (d <= 1.0) {
        g.addEdge(u, v);
        gp.addEdge(u, v);
      } else if (d <= c && rng.bernoulli(pGrey)) {
        gp.addEdge(u, v);
      }
    }
  }
  g.finalize();
  gp.finalize();
  return DualGraph(std::move(g), std::move(gp), std::move(points));
}

/// Same G, same G′, same number of coins drawn, and the grey-zone
/// property holds.
void expectSameField(const Embedding& points, double c, double pGrey,
                     std::uint64_t seed) {
  SCOPED_TRACE("n=" + std::to_string(points.size()) +
               " c=" + std::to_string(c) + " pGrey=" + std::to_string(pGrey) +
               " seed=" + std::to_string(seed));
  Rng refRng(seed);
  Rng rng(seed);
  const DualGraph ref = allPairsGreyZone(points, c, pGrey, refRng);
  const DualGraph got = gen::greyZoneFromPoints(points, c, pGrey, rng);
  ASSERT_EQ(got.n(), ref.n());
  EXPECT_EQ(got.g().edges(), ref.g().edges());
  EXPECT_EQ(got.gPrime().edges(), ref.gPrime().edges());
  EXPECT_EQ(rng.randomBits(64), refRng.randomBits(64));
  EXPECT_TRUE(got.satisfiesGreyZone(c));
}

TEST(GreyZoneGrid, MatchesAllPairsOnRandomFields) {
  for (const NodeId n : {0, 1, 2, 24, 96, 500}) {
    for (const double c : {1.0, 1.5, 2.5}) {
      for (const double pGrey : {0.0, 0.3, 1.0}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          Rng pointRng(seed * 7919 + static_cast<std::uint64_t>(n));
          // About seven G-neighbors per node, as in greyZoneField.
          const double side = std::max(1.0, std::sqrt(n * 3.14159 / 7.0));
          const Embedding points =
              n == 0 ? Embedding{}
                     : gen::randomPoints(n, side, side, pointRng);
          expectSameField(points, c, pGrey, seed);
        }
      }
    }
  }
}

TEST(GreyZoneGrid, MatchesAllPairsOnLinesGridsAndLattices) {
  for (const double c : {1.0, 1.5, 2.0, 2.5}) {
    for (const NodeId n : {1, 2, 10, 33}) {
      expectSameField(gen::linePoints(n), c, 0.5, 11);
    }
    expectSameField(gen::gridPoints(1, 1), c, 0.5, 12);
    expectSameField(gen::gridPoints(5, 4), c, 0.5, 13);
    expectSameField(gen::gridPoints(9, 7), c, 0.5, 14);
    // A lattice of spacing c: neighbors sit exactly c apart, and the
    // cells, a hair wider than c, split them at every other border.
    Embedding lattice;
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 6; ++x) lattice.push_back({x * c, y * c});
    }
    expectSameField(lattice, c, 0.5, 15);
  }
}

TEST(GreyZoneGrid, MatchesAllPairsOnCoincidentAndBorderPoints) {
  Embedding coincident(6, Point2{0.5, 0.5});
  coincident.insert(coincident.end(), 3, Point2{1.5, 0.5});  // exactly 1
  coincident.insert(coincident.end(), 2, Point2{2.5, 0.5});
  coincident.insert(coincident.end(), 2, Point2{0.5, 2.0});  // exactly 1.5
  for (const double c : {1.0, 1.5, 2.5}) {
    expectSameField(coincident, c, 0.3, 21);
    expectSameField(coincident, c, 1.0, 22);
  }
  // Pairs exactly 1 and exactly c apart on either side of the first
  // cell border, horizontally, vertically and diagonally (all exact
  // binary fractions, so each distance is exact).
  for (const double c : {1.0, 1.5, 2.5}) {
    const Embedding border{{0.0, 0.0},
                           {c - 0.25, 0.0},
                           {2 * c - 0.25, 0.0},
                           {c - 0.25, 1.0},
                           {c + 0.75, 1.0},
                           {0.0, c - 0.5},
                           {0.0, 2 * c - 0.5},
                           {c - 0.25, c - 0.25},
                           {c + 1.25, c + 1.75}};
    expectSameField(border, c, 0.3, 23);
    expectSameField(border, c, 1.0, 24);
  }
}

TEST(GreyZoneGrid, MatchesAllPairsFarFromTheOrigin) {
  Rng pointRng(31);
  Embedding points;
  for (int i = 0; i < 120; ++i) {
    const double base = i % 2 == 0 ? 1e6 : -1e6;
    points.push_back({base + pointRng.uniform01() * 6.0,
                      -base + pointRng.uniform01() * 6.0});
  }
  expectSameField(points, 1.5, 0.3, 32);
  expectSameField(points, 2.5, 0.3, 33);
}

// A NaN or infinite coordinate fails every distance test, so such a
// point has no edge and draws no coin; spreads far beyond 64-bit cell
// indices still work.
TEST(GreyZoneGrid, NonFiniteAndHugeCoordinatesNeedNoCast) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  const Embedding nonFinite{{0.0, 0.0},   {kNaN, 0.0}, {0.5, 0.5},
                            {kInf, 0.0},  {kInf, 0.0}, {0.0, -kInf},
                            {kNaN, kNaN}, {1.5, 0.5},  {-kInf, kInf},
                            {2.0, 1.0},   {0.2, kNaN}};
  expectSameField(nonFinite, 1.5, 0.3, 41);
  expectSameField(nonFinite, 2.5, 1.0, 42);
  expectSameField({{kNaN, 0.0}, {kInf, kInf}}, 1.5, 0.3, 43);

  Rng pointRng(44);
  Embedding huge{{kMax, -kMax}, {-kMax, kMax}, {1e300, 1e300}};
  for (int i = 0; i < 40; ++i) {
    huge.push_back({i % 2 == 0 ? 1e300 : -1e300, pointRng.uniform01() * 4.0});
  }
  expectSameField(huge, 1.5, 0.3, 45);
  expectSameField(huge, 2.5, 0.3, 46);
}

// --- Graph builder and BFS ---------------------------------------------------

TEST(GraphBuilder, ManyBlocksWithDuplicatesMatchSortedSets) {
  Rng rng(51);
  const NodeId n = 300;
  Graph g(n);
  std::vector<std::set<NodeId>> ref(static_cast<std::size_t>(n));
  // Over three blocks of 4096 edges, with many repeats in both
  // orientations, so rows shrink and slide down when deduplicated.
  for (int i = 0; i < 14000; ++i) {
    const auto u = static_cast<NodeId>(rng.uniformInt(0, n - 1));
    const auto v = static_cast<NodeId>(rng.uniformInt(0, n / 10));
    if (u == v) continue;
    g.addEdge(u, v);
    ref[static_cast<std::size_t>(u)].insert(v);
    ref[static_cast<std::size_t>(v)].insert(u);
  }
  g.finalize();
  std::size_t entries = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto& want = ref[static_cast<std::size_t>(u)];
    const Graph::Span got = g.neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()),
              std::vector<NodeId>(want.begin(), want.end()));
    entries += want.size();
  }
  EXPECT_EQ(g.edgeCount(), entries / 2);
}

TEST(GraphBuilder, PowerAndDiameterMatchBfsDistances) {
  Rng rng(52);
  for (int trial = 0; trial < 6; ++trial) {
    // Sparse enough that G is often disconnected.
    const DualGraph field = gen::greyZoneFromPoints(
        gen::randomPoints(60, 7.0, 7.0, rng), 1.5, 0.3, rng);
    const Graph& g = field.g();
    int diameter = 0;
    for (const int r : {1, 2, 3}) {
      const Graph power = g.power(r);
      for (NodeId u = 0; u < g.n(); ++u) {
        const std::vector<int> dist = g.bfsDistances(u);
        for (NodeId v = 0; v < g.n(); ++v) {
          const int d = dist[static_cast<std::size_t>(v)];
          diameter = std::max(diameter, d);
          EXPECT_EQ(power.hasEdge(u, v), d >= 1 && d <= r);
        }
      }
    }
    EXPECT_EQ(g.diameter(), diameter);
  }
}

// --- epoch view --------------------------------------------------------------

struct RefEpoch {
  std::vector<Edge> g;
  std::vector<Edge> gPrime;
  std::vector<std::uint8_t> alive;
  std::vector<NodeId> touched;
};

/// The std::set epoch builder: the same checks in the same order, so a
/// bad schedule throws the same message at the same event.
std::vector<RefEpoch> referenceEpochs(const DualGraph& base,
                                      const TopologyDynamics& dynamics) {
  dynamics.validate();
  const NodeId n = base.n();
  const auto asSet = [](const Graph& g) {
    const auto edges = g.edges();
    return std::set<Edge>(edges.begin(), edges.end());
  };
  std::set<Edge> e = asSet(base.g());
  std::set<Edge> ePrime = asSet(base.gPrime());
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(n), 1);
  const auto live = [&alive](const std::set<Edge>& edges) {
    std::vector<Edge> out;
    for (const auto& [u, v] : edges) {
      if (alive[static_cast<std::size_t>(u)] != 0 &&
          alive[static_cast<std::size_t>(v)] != 0) {
        out.emplace_back(u, v);
      }
    }
    return out;
  };
  const auto neighbors = [](const std::vector<Edge>& edges, NodeId u) {
    std::vector<NodeId> out;
    for (const auto& [a, b] : edges) {
      if (a == u) out.push_back(b);
      if (b == u) out.push_back(a);
    }
    return out;
  };
  const auto checkNode = [n](NodeId u) {
    AMMB_REQUIRE(u >= 0 && u < n, "dynamics event node id out of range");
  };
  std::vector<RefEpoch> out{{live(e), live(ePrime), alive, {}}};
  for (const TopologyEpoch& spec : dynamics.epochs) {
    std::vector<NodeId> touched;
    std::vector<NodeId> recovered;
    const std::vector<Edge> prevPrime = out.back().gPrime;
    for (const TopologyEvent& ev : spec.events) {
      const Edge edge = std::minmax(ev.u, ev.v);
      switch (ev.kind) {
        case TopologyEvent::Kind::kNodeCrash:
          checkNode(ev.u);
          AMMB_REQUIRE(alive[static_cast<std::size_t>(ev.u)] != 0,
                       "dynamics crash of an already-crashed node");
          alive[static_cast<std::size_t>(ev.u)] = 0;
          touched.push_back(ev.u);
          for (NodeId j : neighbors(prevPrime, ev.u)) touched.push_back(j);
          break;
        case TopologyEvent::Kind::kNodeRecover:
          checkNode(ev.u);
          AMMB_REQUIRE(alive[static_cast<std::size_t>(ev.u)] == 0,
                       "dynamics recovery of a node that is not down");
          alive[static_cast<std::size_t>(ev.u)] = 1;
          touched.push_back(ev.u);
          recovered.push_back(ev.u);
          break;
        case TopologyEvent::Kind::kEdgeDown:
          checkNode(ev.u);
          checkNode(ev.v);
          AMMB_REQUIRE(ePrime.erase(edge) > 0,
                       "dynamics drop of an edge that is not in E'");
          e.erase(edge);
          touched.push_back(ev.u);
          touched.push_back(ev.v);
          break;
        case TopologyEvent::Kind::kEdgeUp:
          checkNode(ev.u);
          checkNode(ev.v);
          AMMB_REQUIRE(ev.u != ev.v, "dynamics edge must not be a self-loop");
          if (ev.reliable) {
            e.insert(edge);
          } else {
            AMMB_REQUIRE(e.count(edge) == 0,
                         "dynamics unreliable edge-up of an edge already "
                         "in E");
          }
          ePrime.insert(edge);
          touched.push_back(ev.u);
          touched.push_back(ev.v);
          break;
      }
    }
    RefEpoch epoch{live(e), live(ePrime), alive, {}};
    for (NodeId u : recovered) {
      for (NodeId j : neighbors(epoch.gPrime, u)) touched.push_back(j);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    epoch.touched = std::move(touched);
    out.push_back(std::move(epoch));
  }
  return out;
}

/// Builds the view and the reference; both throw the same message, or
/// every epoch has the same G, G′, liveness mask and touched set.
/// Returns the message ("" when the schedule is well formed).
std::string expectSameEpochs(const DualGraph& base,
                             const TopologyDynamics& dynamics) {
  std::string want;
  std::vector<RefEpoch> ref;
  try {
    ref = referenceEpochs(base, dynamics);
  } catch (const Error& error) {
    want = reasonOf(error);
  }
  try {
    const TopologyView view(base, dynamics);
    EXPECT_EQ(want, "");
    if (!want.empty()) return want;
    EXPECT_EQ(static_cast<std::size_t>(view.epochCount()), ref.size());
    for (int ep = 0; ep < view.epochCount(); ++ep) {
      const RefEpoch& r = ref[static_cast<std::size_t>(ep)];
      EXPECT_EQ(view.dualAt(ep).g().edges(), r.g) << "epoch " << ep;
      EXPECT_EQ(view.dualAt(ep).gPrime().edges(), r.gPrime) << "epoch " << ep;
      EXPECT_EQ(view.dualAt(ep).embedding().has_value(),
                base.embedding().has_value());
      for (NodeId u = 0; u < base.n(); ++u) {
        EXPECT_EQ(view.nodeAliveAt(ep, u),
                  r.alive[static_cast<std::size_t>(u)] != 0);
      }
      EXPECT_EQ(view.touchedAt(ep), r.touched) << "epoch " << ep;
    }
  } catch (const Error& error) {
    EXPECT_EQ(reasonOf(error), want);
  }
  return want;
}

TopologyEvent crash(NodeId u) {
  return {TopologyEvent::Kind::kNodeCrash, u, kNoNode, false};
}
TopologyEvent recover(NodeId u) {
  return {TopologyEvent::Kind::kNodeRecover, u, kNoNode, false};
}
TopologyEvent down(NodeId u, NodeId v) {
  return {TopologyEvent::Kind::kEdgeDown, u, v, false};
}
TopologyEvent up(NodeId u, NodeId v, bool reliable) {
  return {TopologyEvent::Kind::kEdgeUp, u, v, reliable};
}

TEST(EpochView, MatchesSetReferenceOnGeneratedSchedules) {
  Rng rng(61);
  const DualGraph field = gen::greyZoneField(80, 7.0, 1.5, 0.4, rng);
  EXPECT_EQ(expectSameEpochs(
                field, gen::greyZoneDriftSchedule(field, 5, 16, 0.3, rng)),
            "");
  EXPECT_EQ(expectSameEpochs(
                field, gen::crashRecoverySchedule(field, 4, 20, 7, rng)),
            "");
  EXPECT_EQ(expectSameEpochs(field, {}), "");
}

TEST(EpochView, MatchesSetReferenceOnEdgeUpsAndCrashes) {
  Rng rng(62);
  const DualGraph base = gen::withArbitraryNoise(gen::line(10), 5, rng);
  TopologyDynamics dynamics;
  // New pairs outside the base E′, reliable and unreliable; then an
  // unreliable pair promoted into E, drops of new and base pairs, and
  // edge-ups at a crashed node that surface on its recovery.
  dynamics.epochs.push_back({3, {up(0, 9, true), up(2, 7, false)}});
  dynamics.epochs.push_back({5, {up(7, 2, true), down(0, 1), crash(4)}});
  dynamics.epochs.push_back({8, {up(4, 8, false), down(9, 0), up(3, 4, true)}});
  dynamics.epochs.push_back({9, {recover(4), down(2, 7), up(0, 1, false)}});
  dynamics.epochs.push_back({12, {crash(0), crash(9), up(0, 1, true)}});
  dynamics.epochs.push_back({15, {recover(9), recover(0)}});
  EXPECT_EQ(expectSameEpochs(base, dynamics), "");
}

TEST(EpochView, EveryErrorPathThrowsTheSameMessageAtTheSameEvent) {
  const DualGraph base = gen::identityDual(gen::line(5));
  const auto at = [](std::vector<TopologyEvent> first,
                     std::vector<TopologyEvent> second) {
    TopologyDynamics dynamics;
    dynamics.epochs.push_back({4, std::move(first)});
    dynamics.epochs.push_back({8, std::move(second)});
    return dynamics;
  };
  EXPECT_EQ(expectSameEpochs(base, at({up(1, 3, false)}, {down(0, 2)})),
            "dynamics drop of an edge that is not in E'");
  EXPECT_EQ(expectSameEpochs(base, at({down(2, 2)}, {})),
            "dynamics drop of an edge that is not in E'");
  EXPECT_EQ(expectSameEpochs(base, at({up(1, 3, true)}, {up(3, 1, false)})),
            "dynamics unreliable edge-up of an edge already in E");
  EXPECT_EQ(expectSameEpochs(base, at({up(2, 2, true)}, {})),
            "dynamics edge must not be a self-loop");
  EXPECT_EQ(expectSameEpochs(base, at({}, {up(0, 5, false)})),
            "dynamics event node id out of range");
  EXPECT_EQ(expectSameEpochs(base, at({down(-1, 2)}, {})),
            "dynamics event node id out of range");
  EXPECT_EQ(expectSameEpochs(base, at({crash(3)}, {crash(3)})),
            "dynamics crash of an already-crashed node");
  EXPECT_EQ(expectSameEpochs(base, at({recover(3)}, {})),
            "dynamics recovery of a node that is not down");
  // The first bad event decides, even when a later one names pairs or
  // ids that would fail differently.
  EXPECT_EQ(expectSameEpochs(base, at({crash(1), down(0, 3)},
                                      {up(9, 9, true), crash(1)})),
            "dynamics drop of an edge that is not in E'");
  EXPECT_EQ(expectSameEpochs(base, at({crash(1)}, {crash(1), up(7, 1, true)})),
            "dynamics crash of an already-crashed node");
  EXPECT_EQ(expectSameEpochs(base, at({up(0, 2, false)}, {up(2, 2, false),
                                                          down(0, 4)})),
            "dynamics edge must not be a self-loop");
}

TEST(EpochView, MatchesSetReferenceOnRandomSchedules) {
  Rng rng(63);
  const DualGraph base = gen::greyZoneField(14, 4.0, 2.0, 0.5, rng);
  const auto baseEdges = base.gPrime().edges();
  int wellFormed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    TopologyDynamics dynamics;
    const auto epochs = rng.uniformInt(1, 5);
    for (std::int64_t e = 1; e <= epochs; ++e) {
      TopologyEpoch epoch;
      epoch.start = static_cast<Time>(e) * 10;
      const auto events = rng.uniformInt(0, 4);
      for (std::int64_t i = 0; i < events; ++i) {
        // Mostly in-range ids and base pairs, so schedules run deep.
        const auto node = [&rng, &base] {
          return static_cast<NodeId>(rng.bernoulli(0.97)
                                         ? rng.uniformInt(0, base.n() - 1)
                                         : rng.uniformInt(-1, base.n()));
        };
        Edge pair{node(), node()};
        if (rng.bernoulli(0.6)) {
          pair = baseEdges[static_cast<std::size_t>(rng.uniformInt(
              0, static_cast<std::int64_t>(baseEdges.size()) - 1))];
        }
        const auto kind =
            static_cast<TopologyEvent::Kind>(rng.uniformInt(0, 3));
        epoch.events.push_back({kind, pair.first, pair.second,
                                rng.bernoulli(0.5)});
      }
      dynamics.epochs.push_back(std::move(epoch));
    }
    if (expectSameEpochs(base, dynamics).empty()) ++wellFormed;
  }
  // Both outcomes are exercised.
  EXPECT_GT(wellFormed, 20);
  EXPECT_LT(wellFormed, 280);
}

}  // namespace
}  // namespace ammb::graph
