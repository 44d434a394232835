// The user-automaton interface (what the paper calls a "process") and
// the Context through which a process interacts with its MAC layer.
//
// Standard-model processes are purely event-driven: they react to
// wake/arrive/rcv/ack events and may call Context::bcast and
// Context::deliver.  Enhanced-model processes (Section 4) additionally
// get the current time, the Fack/Fprog constants, timers, and abort.
// Calling an enhanced-only API under the standard model throws — this
// keeps protocol implementations honest about which model they need.
#pragma once

#include "common/rng.h"
#include "common/types.h"
#include "graph/graph.h"
#include "mac/layer.h"
#include "mac/packet.h"
#include "mac/params.h"

namespace ammb::mac {

/// Facade through which a process talks to the MAC layer.  A Context is
/// only valid for the duration of the callback it is passed to.  The
/// layer behind it may be the simulator engine or a real network
/// backend — processes cannot tell the difference (mac/layer.h).
class Context {
 public:
  Context(MacLayer& layer, NodeId node) : layer_(layer), node_(node) {}

  // --- identity & topology knowledge (both models) -------------------
  /// This node's id.
  NodeId id() const { return node_; }
  /// Network size (node ids are 0..n-1).
  NodeId n() const;
  /// Ids of reliable (G) neighbors, sorted.
  graph::Graph::Span gNeighbors() const;
  /// Ids of all G' neighbors (superset of gNeighbors()), sorted.
  graph::Graph::Span gPrimeNeighbors() const;
  /// True iff `v` is a reliable neighbor — nodes can assess link
  /// quality (Section 2).
  bool isGNeighbor(NodeId v) const;

  // --- randomness (both models) ---------------------------------------
  /// This node's private random bits (pre-seeded per the model).
  Rng& rng();

  // --- communication (both models) ------------------------------------
  /// Initiates an acknowledged local broadcast.  Throws if a previous
  /// broadcast of this node is still unterminated (user
  /// well-formedness, Section 3.2.1).
  void bcast(Packet packet);
  /// True while a broadcast of this node awaits its ack/abort.
  bool busy() const;
  /// Emits the MMB deliver(m) output for this node.
  void deliver(MsgId msg);

  // --- enhanced-model-only APIs ---------------------------------------
  /// Current time.  Enhanced model only.
  Time now() const;
  /// The acknowledgment bound.  Enhanced model only.
  Time fack() const;
  /// The progress bound.  Enhanced model only.
  Time fprog() const;
  /// Schedules an onTimer callback at absolute time `at` (>= now).
  /// Enhanced model only.
  TimerId setTimerAt(Time at);
  /// Schedules an onTimer callback after `delay` ticks (>= 0).
  TimerId setTimerAfter(Time delay);
  /// Aborts the broadcast in progress.  Throws if not busy.
  /// Enhanced model only.
  void abortBcast();

 private:
  MacLayer& layer_;
  NodeId node_;
};

/// Topology-shift notification handed to every process when the engine
/// crosses an epoch boundary, after the engine has reconciled its own
/// state (voided deliveries cancelled, ack guarantees re-scoped, guard
/// deadlines re-armed) with the new graph.  Every node is notified at
/// every boundary — reactive protocols that rebase lock-step structure
/// (epoch-aware FMMB) need a consistent signal — and the per-node
/// G-adjacency flags let point reactions (retransmit-on-recovery) fire
/// only where capacity actually changed.
struct EpochChange {
  int epoch = 0;         ///< the epoch now in effect
  bool touched = false;  ///< node is in the boundary's touched superset
  bool gainedG = false;  ///< a reliable neighbor appeared (recovery)
  bool lostG = false;    ///< a reliable neighbor vanished (ack voided)
};

/// Base class for protocol automata.  Override the callbacks your
/// protocol needs; defaults ignore the event.
class Process {
 public:
  virtual ~Process() = default;

  /// Fired once per node at time 0, before any arrive events.
  virtual void onWake(Context& ctx) { (void)ctx; }

  /// Environment handed this node MMB message `msg`.
  virtual void onArrive(Context& ctx, MsgId msg) {
    (void)ctx;
    (void)msg;
  }

  /// The MAC layer delivered `packet` (sent by packet.sender).
  virtual void onReceive(Context& ctx, const Packet& packet) {
    (void)ctx;
    (void)packet;
  }

  /// The MAC layer acknowledged this node's broadcast of `packet`.
  virtual void onAck(Context& ctx, const Packet& packet) {
    (void)ctx;
    (void)packet;
  }

  /// A timer set through Context fired (enhanced model only).
  virtual void onTimer(Context& ctx, TimerId id) {
    (void)ctx;
    (void)id;
  }

  /// The engine crossed an epoch boundary (dynamic topologies only).
  /// Fired for every node, serially in ascending node id, so reactions
  /// that broadcast re-arm deterministically.
  virtual void onEpochChange(Context& ctx, const EpochChange& change) {
    (void)ctx;
    (void)change;
  }
};

}  // namespace ammb::mac
