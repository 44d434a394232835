// Undirected simple graphs over dense node ids.
//
// The communication topology of an abstract MAC layer network is a pair
// of graphs (G, G′) with E ⊆ E′ (see dual_graph.h).  This header is the
// single-graph building block: adjacency queries, BFS metrics (shortest
// hop distances, diameter, eccentricity), connected components, and the
// r-th power graph Gʳ used by the r-restricted analysis (Section 3.2).
//
// A finalized Graph is the one adjacency store of the library: every
// consumer (schedulers, protocols, the engine and its progress guard,
// the trace checker, the net backend) reads neighbors() spans over the
// same flat compressed-sparse-row array, and nothing keeps a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace ammb::graph {

/// An undirected simple graph with nodes 0..n-1.
///
/// Built in two phases.  `addEdge` appends the pair to fixed-size
/// blocks; `finalize()` counts degrees, places every pair into one CSR
/// array (n + 1 `uint32` offsets plus the neighbor ids), sorts and
/// deduplicates each row in place and frees the blocks.  Adjacency
/// queries need a finalized graph (the generators finalize for you);
/// the graph cannot gain edges afterwards.  Self-loops are rejected;
/// parallel edges collapse into one.
class Graph {
 public:
  /// Contiguous sorted neighbor range (C++17 stand-in for std::span).
  /// Valid while the graph lives; moving the graph keeps it valid.
  struct Span {
    const NodeId* ptr = nullptr;
    std::size_t len = 0;
    const NodeId* begin() const { return ptr; }
    const NodeId* end() const { return ptr + len; }
    std::size_t size() const { return len; }
    bool empty() const { return len == 0; }
  };

  /// Creates a graph with `n` isolated nodes.
  explicit Graph(NodeId n);

  /// Number of nodes.
  NodeId n() const { return static_cast<NodeId>(offsets_.size() - 1); }

  /// Number of undirected edges (0 until finalize()).
  std::size_t edgeCount() const { return adj_.size() / 2; }

  /// Adds the undirected edge {u, v}.  Duplicate insertions are
  /// idempotent.  Throws once the graph is finalized.
  void addEdge(NodeId u, NodeId v);

  /// Packs, sorts and deduplicates the adjacency; call once after
  /// building.  A second call is a no-op.  Throws if the added edges
  /// make more than 2^32 - 1 adjacency entries, counted before
  /// duplicates collapse (the offsets are 32-bit).
  void finalize();

  /// True after finalize().
  bool finalized() const { return finalized_; }

  /// Sorted neighbors of `u`.  Bounds and finalization are debug-only
  /// checks (AMMB_DCHECK): every Graph that reaches the delivery hot
  /// path is finalized at construction, so release builds pay no
  /// per-call branch here.  An unfinalized graph reads as edgeless in
  /// release builds, since its offsets are all zero.
  Span neighbors(NodeId u) const {
    AMMB_DCHECK(u >= 0 && u < n());
    AMMB_DCHECK(finalized_);
    const auto lo = offsets_[static_cast<std::size_t>(u)];
    const auto hi = offsets_[static_cast<std::size_t>(u) + 1];
    return {adj_.data() + lo, hi - lo};
  }

  /// True iff {u, v} is an edge.  O(log deg).
  bool hasEdge(NodeId u, NodeId v) const;

  /// Degree of `u`.
  std::size_t degree(NodeId u) const { return neighbors(u).size(); }

  /// Hop distances from `src`; unreachable nodes get -1.
  std::vector<int> bfsDistances(NodeId src) const;

  /// Hop distances from the nearest node of `srcs`; unreachable: -1.
  std::vector<int> bfsDistancesMulti(const std::vector<NodeId>& srcs) const;

  /// Diameter of the graph restricted to its largest connected
  /// component (max over BFS eccentricities).  Returns 0 for n <= 1.
  int diameter() const;

  /// Component label per node (labels are 0-based, in discovery order).
  std::vector<int> componentLabels() const;

  /// Number of connected components.
  int componentCount() const;

  /// True iff the graph is connected (n == 0 counts as connected).
  bool connected() const { return componentCount() <= 1; }

  /// The r-th power graph: an edge {u, v} for every pair at hop
  /// distance in [1, r].  Requires r >= 1.
  Graph power(int r) const;

  /// All edges as (u, v) pairs with u < v.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

 private:
  /// Edges collected by addEdge, kBlockEdges to a block (32 KiB, so
  /// each is an ordinary heap allocation); freed by finalize().
  static constexpr std::size_t kBlockEdges = 4096;
  std::vector<std::vector<std::pair<NodeId, NodeId>>> blocks_;
  /// CSR offsets (n + 1 entries): u's neighbors are
  /// adj_[offsets_[u], offsets_[u + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> adj_;
  bool finalized_ = false;
};

}  // namespace ammb::graph
