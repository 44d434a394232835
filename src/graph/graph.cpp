#include "graph/graph.h"

#include <algorithm>
#include <limits>

namespace ammb::graph {

namespace {

/// Breadth-first search over `g` from the nodes already in `queue`
/// (their `dist` set, every other entry -1).  Appends each node it
/// reaches to `queue`, which doubles as the FIFO and as the list of
/// visited nodes, and expands no node at depth `maxDepth`.
void bfs(const Graph& g, std::vector<NodeId>& queue, std::vector<int>& dist,
         int maxDepth) {
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const int du = dist[static_cast<std::size_t>(u)];
    if (du == maxDepth) continue;
    for (NodeId v : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(v)] == -1) {
        dist[static_cast<std::size_t>(v)] = du + 1;
        queue.push_back(v);
      }
    }
  }
}

}  // namespace

Graph::Graph(NodeId n) {
  AMMB_REQUIRE(n >= 0, "graph size must be non-negative");
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
}

void Graph::addEdge(NodeId u, NodeId v) {
  AMMB_REQUIRE(!finalized_, "cannot add an edge to a finalized graph");
  AMMB_REQUIRE(u >= 0 && u < n(), "node id out of range");
  AMMB_REQUIRE(v >= 0 && v < n(), "node id out of range");
  AMMB_REQUIRE(u != v, "self-loops are not allowed");
  if (blocks_.empty() || blocks_.back().size() == kBlockEdges) {
    blocks_.emplace_back();
    blocks_.back().reserve(kBlockEdges);
  }
  blocks_.back().emplace_back(u, v);
}

void Graph::finalize() {
  if (finalized_) return;
  std::size_t added = 0;
  for (const auto& block : blocks_) added += block.size();
  AMMB_REQUIRE(added <= std::numeric_limits<std::uint32_t>::max() / 2,
               "graph has more than 2^32 - 1 adjacency entries");
  // Counting sort by row.  After the prefix sum offsets_[u] is where
  // row u starts; placing an entry advances it, so afterwards it is
  // where row u ends, and one shift restores the starts.
  for (const auto& block : blocks_) {
    for (const auto& [u, v] : block) {
      ++offsets_[static_cast<std::size_t>(u) + 1];
      ++offsets_[static_cast<std::size_t>(v) + 1];
    }
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  adj_.resize(2 * added);
  // Each block is freed once placed, so the peak stays near one copy
  // of the edges next to the adjacency.
  for (auto& block : blocks_) {
    for (const auto& [u, v] : block) {
      adj_[offsets_[static_cast<std::size_t>(u)]++] = v;
      adj_[offsets_[static_cast<std::size_t>(v)]++] = u;
    }
    std::vector<std::pair<NodeId, NodeId>>().swap(block);
  }
  std::vector<std::vector<std::pair<NodeId, NodeId>>>().swap(blocks_);
  for (std::size_t i = offsets_.size() - 1; i > 0; --i) {
    offsets_[i] = offsets_[i - 1];
  }
  offsets_[0] = 0;
  // Sort and deduplicate each row, sliding it down over the entries
  // that earlier rows' duplicates freed.
  std::uint32_t write = 0;
  for (std::size_t u = 0; u + 1 < offsets_.size(); ++u) {
    NodeId* const first = adj_.data() + offsets_[u];
    NodeId* const last = adj_.data() + offsets_[u + 1];
    std::sort(first, last);
    NodeId* const unique = std::unique(first, last);
    if (write != offsets_[u]) std::move(first, unique, adj_.data() + write);
    offsets_[u] = write;
    write += static_cast<std::uint32_t>(unique - first);
  }
  offsets_.back() = write;
  if (write != adj_.size()) {
    adj_.resize(write);
    adj_.shrink_to_fit();
  }
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
  std::vector<NodeId> queue;
  for (NodeId s : srcs) {
    AMMB_REQUIRE(s >= 0 && s < n(), "BFS source id out of range");
    if (dist[static_cast<std::size_t>(s)] == -1) {
      dist[static_cast<std::size_t>(s)] = 0;
      queue.push_back(s);
    }
  }
  bfs(*this, queue, dist, std::numeric_limits<int>::max());
  return dist;
}

int Graph::diameter() const {
  AMMB_REQUIRE(finalized_, "Graph::finalize() must be called first");
  int best = 0;
  std::vector<int> dist(static_cast<std::size_t>(n()), -1);
  std::vector<NodeId> queue;
  for (NodeId u = 0; u < n(); ++u) {
    queue.assign(1, u);
    dist[static_cast<std::size_t>(u)] = 0;
    bfs(*this, queue, dist, std::numeric_limits<int>::max());
    // BFS visits in order of distance, so the last node is the farthest.
    best = std::max(best, dist[static_cast<std::size_t>(queue.back())]);
    for (NodeId x : queue) dist[static_cast<std::size_t>(x)] = -1;
  }
  return best;
}

std::vector<int> Graph::componentLabels() const {
  AMMB_REQUIRE(finalized_, "Graph::finalize() must be called first");
  std::vector<int> label(static_cast<std::size_t>(n()), -1);
  std::vector<int> dist(static_cast<std::size_t>(n()), -1);
  std::vector<NodeId> queue;
  int next = 0;
  for (NodeId s = 0; s < n(); ++s) {
    if (label[static_cast<std::size_t>(s)] != -1) continue;
    queue.assign(1, s);
    dist[static_cast<std::size_t>(s)] = 0;
    bfs(*this, queue, dist, std::numeric_limits<int>::max());
    for (NodeId x : queue) label[static_cast<std::size_t>(x)] = next;
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
  // Truncated BFS from each node; emit each pair once (u < v).  Only
  // the nodes a search visited are reset for the next source.
  std::vector<int> dist(static_cast<std::size_t>(n()), -1);
  std::vector<NodeId> queue;
  for (NodeId u = 0; u < n(); ++u) {
    queue.assign(1, u);
    dist[static_cast<std::size_t>(u)] = 0;
    bfs(*this, queue, dist, r);
    for (NodeId y : queue) {
      if (u < y) out.addEdge(u, y);
      dist[static_cast<std::size_t>(y)] = -1;
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
