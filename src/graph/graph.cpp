#include "graph/graph.h"

#include <algorithm>
#include <deque>
#include <limits>

namespace ammb::graph {

Graph::Graph(NodeId n) {
  AMMB_REQUIRE(n >= 0, "graph size must be non-negative");
  lists_.resize(static_cast<std::size_t>(n));
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
}

void Graph::addEdge(NodeId u, NodeId v) {
  AMMB_REQUIRE(!finalized_, "cannot add an edge to a finalized graph");
  AMMB_REQUIRE(u >= 0 && u < n(), "node id out of range");
  AMMB_REQUIRE(v >= 0 && v < n(), "node id out of range");
  AMMB_REQUIRE(u != v, "self-loops are not allowed");
  lists_[static_cast<std::size_t>(u)].push_back(v);
  lists_[static_cast<std::size_t>(v)].push_back(u);
}

void Graph::finalize() {
  if (finalized_) return;
  std::size_t total = 0;
  for (auto& nbrs : lists_) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    total += nbrs.size();
  }
  AMMB_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
               "graph has more than 2^32 - 1 adjacency entries");
  adj_.reserve(total);
  // Each list is freed as soon as it is packed, so the peak stays near
  // one copy of the adjacency.
  for (std::size_t u = 0; u < lists_.size(); ++u) {
    adj_.insert(adj_.end(), lists_[u].begin(), lists_[u].end());
    offsets_[u + 1] = static_cast<std::uint32_t>(adj_.size());
    std::vector<NodeId>().swap(lists_[u]);
  }
  std::vector<std::vector<NodeId>>().swap(lists_);
  finalized_ = true;
}

bool Graph::hasEdge(NodeId u, NodeId v) const {
  const Span nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<int> Graph::bfsDistances(NodeId src) const {
  return bfsDistancesMulti({src});
}

std::vector<int> Graph::bfsDistancesMulti(
    const std::vector<NodeId>& srcs) const {
  AMMB_REQUIRE(finalized_, "Graph::finalize() must be called first");
  std::vector<int> dist(static_cast<std::size_t>(n()), -1);
  std::deque<NodeId> frontier;
  for (NodeId s : srcs) {
    AMMB_REQUIRE(s >= 0 && s < n(), "BFS source id out of range");
    if (dist[static_cast<std::size_t>(s)] == -1) {
      dist[static_cast<std::size_t>(s)] = 0;
      frontier.push_back(s);
    }
  }
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    const int du = dist[static_cast<std::size_t>(u)];
    for (NodeId v : neighbors(u)) {
      if (dist[static_cast<std::size_t>(v)] == -1) {
        dist[static_cast<std::size_t>(v)] = du + 1;
        frontier.push_back(v);
      }
    }
  }
  return dist;
}

int Graph::diameter() const {
  AMMB_REQUIRE(finalized_, "Graph::finalize() must be called first");
  int best = 0;
  for (NodeId u = 0; u < n(); ++u) {
    const auto dist = bfsDistances(u);
    for (int d : dist) best = std::max(best, d);
  }
  return best;
}

std::vector<int> Graph::componentLabels() const {
  AMMB_REQUIRE(finalized_, "Graph::finalize() must be called first");
  std::vector<int> label(static_cast<std::size_t>(n()), -1);
  int next = 0;
  std::deque<NodeId> frontier;
  for (NodeId s = 0; s < n(); ++s) {
    if (label[static_cast<std::size_t>(s)] != -1) continue;
    label[static_cast<std::size_t>(s)] = next;
    frontier.push_back(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (NodeId v : neighbors(u)) {
        if (label[static_cast<std::size_t>(v)] == -1) {
          label[static_cast<std::size_t>(v)] = next;
          frontier.push_back(v);
        }
      }
    }
    ++next;
  }
  return label;
}

int Graph::componentCount() const {
  const auto labels = componentLabels();
  int maxLabel = -1;
  for (int l : labels) maxLabel = std::max(maxLabel, l);
  return maxLabel + 1;
}

Graph Graph::power(int r) const {
  AMMB_REQUIRE(r >= 1, "graph power requires r >= 1");
  AMMB_REQUIRE(finalized_, "Graph::finalize() must be called first");
  Graph out(n());
  // Truncated BFS from each node; emit each pair once (u < v).
  std::vector<int> dist(static_cast<std::size_t>(n()));
  for (NodeId u = 0; u < n(); ++u) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[static_cast<std::size_t>(u)] = 0;
    std::deque<NodeId> frontier{u};
    while (!frontier.empty()) {
      const NodeId x = frontier.front();
      frontier.pop_front();
      const int dx = dist[static_cast<std::size_t>(x)];
      if (dx == r) continue;
      for (NodeId y : neighbors(x)) {
        if (dist[static_cast<std::size_t>(y)] == -1) {
          dist[static_cast<std::size_t>(y)] = dx + 1;
          frontier.push_back(y);
          if (u < y) out.addEdge(u, y);
        }
      }
    }
  }
  out.finalize();
  return out;
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  AMMB_REQUIRE(finalized_, "Graph::finalize() must be called first");
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edgeCount());
  for (NodeId u = 0; u < n(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

}  // namespace ammb::graph
