// Epoch-based topology views.
//
// The paper fixes one (G, G′) pair for the whole execution; related
// abstract-MAC work (Newport 2018, Zhang & Tseng 2024) studies the
// model's interesting regimes under crashes and topology change.  A
// TopologyView generalizes the static DualGraph coupling to a sequence
// of *epochs*: half-open time intervals [start_e, start_{e+1}) during
// which the topology is fixed.  Epoch 0 is the base DualGraph; each
// later epoch applies a batch of TopologyEvents (node crashes and
// recoveries, edge drops and additions) on top of the running state.
//
// A crashed node is modeled as total link loss — its radio is down, so
// the MAC layer sees every incident E/E′ edge vanish until recovery —
// which keeps the model purely link-level, exactly like the paper's
// unreliability story.  E ⊆ E′ is re-validated for every epoch.
//
// An epoch keeps no adjacency besides its DualGraph.  Every consumer,
// the engine's delivery hot path included, reads it through
// dualAt(e).g() / .gPrime(), whose Graph is already a flat CSR array.
// The static view borrows the base DualGraph, so a single-epoch run
// stores its topology exactly once.
#pragma once

#include <memory>
#include <vector>

#include "graph/dual_graph.h"

namespace ammb::graph {

/// One topology change, applied at an epoch boundary.
struct TopologyEvent {
  enum class Kind : std::uint8_t {
    kNodeCrash,    ///< all of u's links go down until recovery
    kNodeRecover,  ///< u's surviving underlying links come back up
    kEdgeDown,     ///< removes {u, v} from E and E′
    kEdgeUp,       ///< (re)adds {u, v}: to E and E′ if reliable, else E′ only
  };
  Kind kind = Kind::kEdgeDown;
  NodeId u = kNoNode;
  NodeId v = kNoNode;     ///< unused for node events
  bool reliable = false;  ///< kEdgeUp: into E (and E′) vs E′ \ E only
};

/// A batch of events taking effect at time `start` (epoch boundary).
struct TopologyEpoch {
  Time start = 0;
  std::vector<TopologyEvent> events;
};

/// The full dynamics schedule: boundaries in strictly increasing order,
/// all later than t = 0 (epoch 0 is always the base topology).
struct TopologyDynamics {
  std::vector<TopologyEpoch> epochs;

  bool empty() const { return epochs.empty(); }

  /// Throws ammb::Error on unordered or non-positive boundary times.
  void validate() const;
};

/// An epoch-indexed view over a (possibly changing) dual-graph
/// topology.  The base DualGraph is borrowed and must outlive the
/// view; later epochs are owned materializations.  For the static case
/// (no dynamics) the view is a single epoch whose DualGraph *is* the
/// base — `dualAt(0)` returns the exact object passed in, and no
/// adjacency is copied.
class TopologyView {
 public:
  /// Static single-epoch view over `base` (borrowed).
  explicit TopologyView(const DualGraph& base);

  /// Dynamic view: applies `dynamics` to the running edge/liveness
  /// state, materializing one DualGraph + liveness mask per epoch.
  TopologyView(const DualGraph& base, const TopologyDynamics& dynamics);

  TopologyView(const TopologyView&) = delete;
  TopologyView& operator=(const TopologyView&) = delete;
  TopologyView(TopologyView&&) = default;
  TopologyView& operator=(TopologyView&&) = default;

  NodeId n() const { return base_->n(); }

  /// The epoch-0 topology (the object this view was built over).
  const DualGraph& base() const { return *base_; }

  /// True when the view has more than one epoch.
  bool dynamic() const { return epochs_.size() > 1; }

  int epochCount() const { return static_cast<int>(epochs_.size()); }

  /// Start time of epoch `e` (0 for epoch 0).
  Time epochStart(int e) const { return epoch(e).start; }

  /// The epoch covering time `t` (epochs are half-open [start, next)).
  int epochAt(Time t) const;

  /// The materialized topology of epoch `e`.  Adjacency excludes
  /// crashed endpoints entirely, so "has an edge" and "may communicate
  /// right now" coincide.
  const DualGraph& dualAt(int e) const { return *epoch(e).dual; }

  /// True iff node `v` is up (not crashed) in epoch `e`.
  bool nodeAliveAt(int e, NodeId v) const {
    AMMB_DCHECK(v >= 0 && v < n());
    return epoch(e).alive[static_cast<std::size_t>(v)] != 0;
  }

  /// Start time of the maximal run of consecutive epochs ending at
  /// `e` throughout which {u, v} ∈ E (with both endpoints alive).
  /// Returns kTimeNever when the edge is not live in epoch `e`.  This
  /// is the "live since" instant the progress guard and the offline
  /// checker quantify window guarantees over: an edge that appeared or
  /// reappeared mid-execution only obliges the model from that moment.
  Time gEdgeLiveSince(int e, NodeId u, NodeId v) const;

  /// True iff {u, v} ∈ E (endpoints alive) in every epoch overlapping
  /// the closed interval [t1, t2].  The acknowledgment guarantee of an
  /// instance is quantified over exactly these links.
  bool gEdgeLiveThroughout(NodeId u, NodeId v, Time t1, Time t2) const;

  /// Sorted, duplicate-free ids of every node whose adjacency (in
  /// either graph) may differ between epoch e-1 and epoch e: endpoints
  /// of edge events, plus crashed/recovered nodes and their E'
  /// neighbors in the adjacent epoch.  A conservative superset — a
  /// listed node may end up unchanged — but completeness is exact:
  /// any node absent from the set has identical neighborhoods, edge
  /// live-since instants and liveness in both epochs.  The engine's
  /// epoch-boundary guard pass re-examines exactly these receivers
  /// instead of all n.  Empty for e == 0.
  const std::vector<NodeId>& touchedAt(int e) const {
    return epoch(e).touched;
  }

 private:
  struct Epoch {
    Time start = 0;
    const DualGraph* dual = nullptr;  ///< base_ or an owned_ entry
    std::vector<std::uint8_t> alive;  ///< per-node liveness mask
    std::vector<NodeId> touched;  ///< see touchedAt()
  };

  const Epoch& epoch(int e) const {
    AMMB_DCHECK(e >= 0 && e < epochCount());
    return epochs_[static_cast<std::size_t>(e)];
  }

  const DualGraph* base_ = nullptr;
  std::vector<std::unique_ptr<DualGraph>> owned_;
  std::vector<Epoch> epochs_;
};

}  // namespace ammb::graph
