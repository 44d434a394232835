#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <set>
#include <utility>

namespace ammb::graph::gen {

namespace {

/// Calls visit(u, v, distance) once for every pair u < v of finite
/// points within distance c of each other, and for some farther pairs:
/// all pairs in the same or adjacent cells of a square grid whose side
/// is at least c.  The scan runs in cell order, so it reads coordinates
/// from one contiguous copy instead of jumping through `points`.
template <typename Visit>
void forEachNearPair(const Embedding& points, double c, Visit&& visit) {
  // A point with a NaN or infinite coordinate fails every distance
  // test, so it has no edge and stays out of the grid.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double minX = kInf, maxX = -kInf, minY = kInf, maxY = -kInf;
  std::vector<std::pair<std::uint64_t, NodeId>> order;  // (cell, point)
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point2& p = points[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) continue;
    minX = std::min(minX, p.x);
    maxX = std::max(maxX, p.x);
    minY = std::min(minY, p.y);
    maxY = std::max(maxY, p.y);
    order.emplace_back(0, static_cast<NodeId>(i));
  }
  if (order.empty()) return;
  // Halved coordinates keep the spread of any finite points finite.  A
  // side a hair above c keeps rounding from putting two points within c
  // of each other two cells apart; at most 2^20 cells per axis keep the
  // cell coordinates that exact and far from integer overflow.
  constexpr double kMaxCellsPerAxis = 1 << 20;
  const double halfSpread =
      std::max(0.5 * maxX - 0.5 * minX, 0.5 * maxY - 0.5 * minY);
  const double halfSide =
      std::max(0.5 * c * (1.0 + 1e-9), halfSpread / kMaxCellsPerAxis);
  const auto cellOf = [halfSide](double v, double lo) {
    return static_cast<std::uint64_t>((0.5 * v - 0.5 * lo) / halfSide);
  };
  const std::uint64_t width = cellOf(maxX, minX) + 1;
  for (auto& [cell, id] : order) {
    const Point2& p = points[static_cast<std::size_t>(id)];
    cell = cellOf(p.y, minY) * width + cellOf(p.x, minX);
  }
  std::sort(order.begin(), order.end());

  // The points in cell order; each occupied cell's key and first index.
  std::vector<Point2> sorted;
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> starts;
  sorted.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted.push_back(points[static_cast<std::size_t>(order[i].second)]);
    if (i == 0 || order[i].first != order[i - 1].first) {
      keys.push_back(order[i].first);
      starts.push_back(i);
    }
  }
  starts.push_back(order.size());
  const auto pairCells = [&](std::size_t a, std::size_t b) {
    for (std::size_t i = starts[a]; i < starts[a + 1]; ++i) {
      for (std::size_t j = a == b ? i + 1 : starts[b]; j < starts[b + 1];
           ++j) {
        const NodeId u = order[i].second;
        const NodeId v = order[j].second;
        visit(std::min(u, v), std::max(u, v), distance(sorted[i], sorted[j]));
      }
    }
  };
  // Each cell pairs with itself, its right neighbor and the three cells
  // below it, so every adjacent pair of cells meets once.
  for (std::size_t a = 0; a < keys.size(); ++a) {
    const std::uint64_t x = keys[a] % width;
    pairCells(a, a);
    if (x + 1 < width && a + 1 < keys.size() && keys[a + 1] == keys[a] + 1) {
      pairCells(a, a + 1);
    }
    const std::uint64_t below = keys[a] + width;
    const std::uint64_t lo = x > 0 ? below - 1 : below;
    const std::uint64_t hi = x + 1 < width ? below + 1 : below;
    for (auto it = std::lower_bound(keys.begin() + a + 1, keys.end(), lo);
         it != keys.end() && *it <= hi; ++it) {
      pairCells(a, static_cast<std::size_t>(it - keys.begin()));
    }
  }
}

}  // namespace

Graph line(NodeId n) {
  AMMB_REQUIRE(n >= 1, "line requires n >= 1");
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.addEdge(i, i + 1);
  g.finalize();
  return g;
}

Graph ring(NodeId n) {
  AMMB_REQUIRE(n >= 3, "ring requires n >= 3");
  Graph g(n);
  for (NodeId i = 0; i < n; ++i) g.addEdge(i, (i + 1) % n);
  g.finalize();
  return g;
}

Graph star(NodeId n) {
  AMMB_REQUIRE(n >= 2, "star requires n >= 2");
  Graph g(n);
  for (NodeId i = 1; i < n; ++i) g.addEdge(0, i);
  g.finalize();
  return g;
}

Graph grid(int w, int h) {
  AMMB_REQUIRE(w >= 1 && h >= 1, "grid requires positive dimensions");
  Graph g(static_cast<NodeId>(w * h));
  const auto id = [w](int x, int y) { return static_cast<NodeId>(y * w + x); };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) g.addEdge(id(x, y), id(x + 1, y));
      if (y + 1 < h) g.addEdge(id(x, y), id(x, y + 1));
    }
  }
  g.finalize();
  return g;
}

Graph randomTree(NodeId n, Rng& rng) {
  AMMB_REQUIRE(n >= 1, "randomTree requires n >= 1");
  Graph g(n);
  for (NodeId i = 1; i < n; ++i) {
    g.addEdge(i, static_cast<NodeId>(rng.uniformInt(0, i - 1)));
  }
  g.finalize();
  return g;
}

DualGraph identityDual(Graph g) {
  Graph gp = g;
  return DualGraph(std::move(g), std::move(gp));
}

DualGraph withRRestrictedNoise(Graph g, int r, double edgeProb, Rng& rng) {
  AMMB_REQUIRE(r >= 1, "r-restricted noise requires r >= 1");
  AMMB_REQUIRE(edgeProb >= 0.0 && edgeProb <= 1.0,
               "edgeProb must be a probability");
  const Graph gr = g.power(r);
  Graph gp(g.n());
  for (const auto& [u, v] : g.edges()) gp.addEdge(u, v);
  for (const auto& [u, v] : gr.edges()) {
    if (!g.hasEdge(u, v) && rng.bernoulli(edgeProb)) gp.addEdge(u, v);
  }
  gp.finalize();
  return DualGraph(std::move(g), std::move(gp));
}

DualGraph withArbitraryNoise(Graph g, std::size_t extraEdges, Rng& rng) {
  const NodeId n = g.n();
  AMMB_REQUIRE(n >= 2 || extraEdges == 0,
               "cannot add unreliable edges to a graph with < 2 nodes");
  Graph gp(n);
  for (const auto& [u, v] : g.edges()) gp.addEdge(u, v);
  std::set<std::pair<NodeId, NodeId>> chosen;
  const std::size_t maxExtra =
      static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) / 2 -
      g.edgeCount();
  AMMB_REQUIRE(extraEdges <= maxExtra,
               "requested more unreliable edges than non-edges available");
  while (chosen.size() < extraEdges) {
    NodeId u = static_cast<NodeId>(rng.uniformInt(0, n - 1));
    NodeId v = static_cast<NodeId>(rng.uniformInt(0, n - 1));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (g.hasEdge(u, v)) continue;
    if (!chosen.insert({u, v}).second) continue;
    gp.addEdge(u, v);
  }
  gp.finalize();
  return DualGraph(std::move(g), std::move(gp));
}

DualGraph greyZoneFromPoints(Embedding points, double c, double pGrey,
                             Rng& rng) {
  AMMB_REQUIRE(c >= 1.0, "grey zone constant c must be >= 1");
  AMMB_REQUIRE(pGrey >= 0.0 && pGrey <= 1.0, "pGrey must be a probability");
  const NodeId n = static_cast<NodeId>(points.size());
  Graph g(n);
  std::deque<std::pair<NodeId, NodeId>> grey;  // pairs at distance (1, c]
  forEachNearPair(points, c, [&](NodeId u, NodeId v, double d) {
    if (d <= 1.0) {
      g.addEdge(u, v);
    } else if (d <= c) {
      grey.emplace_back(u, v);
    }
  });
  g.finalize();
  // Counting sort of the grey pairs by u: afterwards u's partners are
  // partner[ends[u - 1], ends[u]).
  std::vector<std::size_t> ends(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : grey) ++ends[static_cast<std::size_t>(u) + 1];
  for (std::size_t i = 1; i < ends.size(); ++i) ends[i] += ends[i - 1];
  std::vector<NodeId> partner(grey.size());
  for (const auto& [u, v] : grey) {
    partner[ends[static_cast<std::size_t>(u)]++] = v;
  }
  std::deque<std::pair<NodeId, NodeId>>().swap(grey);
  // G′ is E plus each grey pair whose coin comes up, one coin per grey
  // pair in (u, v) order: the order in which a scan over all pairs
  // meets them.  Adding by ascending u also fills G′'s rows in order.
  Graph gp(n);
  std::size_t lo = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) gp.addEdge(u, v);
    }
    const std::size_t hi = ends[static_cast<std::size_t>(u)];
    std::sort(partner.begin() + static_cast<std::ptrdiff_t>(lo),
              partner.begin() + static_cast<std::ptrdiff_t>(hi));
    for (std::size_t i = lo; i < hi; ++i) {
      if (rng.bernoulli(pGrey)) gp.addEdge(u, partner[i]);
    }
    lo = hi;
  }
  gp.finalize();
  return DualGraph(std::move(g), std::move(gp), std::move(points));
}

Embedding linePoints(NodeId n) {
  AMMB_REQUIRE(n >= 1, "linePoints requires n >= 1");
  Embedding pts(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    pts[static_cast<std::size_t>(i)] = {static_cast<double>(i), 0.0};
  }
  return pts;
}

Embedding gridPoints(int w, int h) {
  AMMB_REQUIRE(w >= 1 && h >= 1, "gridPoints requires positive dimensions");
  Embedding pts;
  pts.reserve(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  return pts;
}

Embedding randomPoints(NodeId n, double width, double height, Rng& rng) {
  AMMB_REQUIRE(n >= 1, "randomPoints requires n >= 1");
  AMMB_REQUIRE(width > 0.0 && height > 0.0, "area must be positive");
  Embedding pts(static_cast<std::size_t>(n));
  for (auto& p : pts) {
    p.x = rng.uniform01() * width;
    p.y = rng.uniform01() * height;
  }
  return pts;
}

DualGraph greyZoneUnitDisk(const GreyZoneParams& params, Rng& rng) {
  AMMB_REQUIRE(params.maxTries >= 1, "maxTries must be >= 1");
  for (int attempt = 0; attempt < params.maxTries; ++attempt) {
    Embedding pts = randomPoints(params.n, params.width, params.height, rng);
    DualGraph dual =
        greyZoneFromPoints(std::move(pts), params.c, params.pGrey, rng);
    if (dual.g().connected()) return dual;
  }
  throw Error(
      "greyZoneUnitDisk: could not sample a connected unit-disk graph; "
      "increase density (smaller area or larger n) or maxTries");
}

DualGraph greyZoneField(NodeId n, double avgDegree, double c, double pGrey,
                        Rng& rng) {
  AMMB_REQUIRE(avgDegree > 0.0, "target degree must be positive");
  GreyZoneParams params;
  params.n = n;
  // Expected G-degree of a unit-disk graph with density d is ~ d * pi;
  // a square of side sqrt(n pi / avgDegree) yields that density.
  const double side =
      std::sqrt(static_cast<double>(n) * 3.14159265358979 / avgDegree);
  params.width = std::max(side, 1.0);
  params.height = params.width;
  params.c = c;
  params.pGrey = pGrey;
  params.maxTries = 256;
  return greyZoneUnitDisk(params, rng);
}

DualGraph lowerBoundNetworkC(int D) {
  AMMB_REQUIRE(D >= 2, "network C requires line length D >= 2");
  const NodeId n = static_cast<NodeId>(2 * D);
  Graph g(n);
  Graph gp(n);
  const auto a = [](int i) { return static_cast<NodeId>(i); };
  const auto b = [D](int i) { return static_cast<NodeId>(D + i); };
  for (int i = 0; i + 1 < D; ++i) {
    g.addEdge(a(i), a(i + 1));
    g.addEdge(b(i), b(i + 1));
    gp.addEdge(a(i), a(i + 1));
    gp.addEdge(b(i), b(i + 1));
    // Unreliable cross edges of Figure 2.
    gp.addEdge(a(i), b(i + 1));
    gp.addEdge(b(i), a(i + 1));
  }
  g.finalize();
  gp.finalize();
  // Embedding: the two lines at vertical offset 1.1, so intra-line
  // neighbors are at distance 1 (E edges), opposite nodes at 1.1 (no
  // edge), diagonals at sqrt(1 + 1.21) ~ 1.49 <= c for c >= 1.5.
  Embedding pts(static_cast<std::size_t>(n));
  for (int i = 0; i < D; ++i) {
    pts[static_cast<std::size_t>(a(i))] = {static_cast<double>(i), 0.0};
    pts[static_cast<std::size_t>(b(i))] = {static_cast<double>(i), 1.1};
  }
  return DualGraph(std::move(g), std::move(gp), std::move(pts));
}

DualGraph bridgeStar(int k) {
  AMMB_REQUIRE(k >= 2, "bridgeStar requires k >= 2");
  const NodeId n = static_cast<NodeId>(k + 1);
  const NodeId center = static_cast<NodeId>(k - 1);
  const NodeId receiver = static_cast<NodeId>(k);
  Graph g(n);
  for (NodeId leaf = 0; leaf < center; ++leaf) g.addEdge(leaf, center);
  g.addEdge(center, receiver);
  g.finalize();
  return identityDual(std::move(g));
}

}  // namespace ammb::graph::gen
