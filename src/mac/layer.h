// The execution seam between protocol automata and whatever realizes
// the abstract MAC layer beneath them.
//
// Context routes every call a Process makes through this interface, so
// the same automaton code runs unchanged over the discrete-event
// simulator (mac::MacEngine) or the real UDP message-passing backend
// (net::NetEngine).  The split mirrors the paper's thesis: algorithms
// are written against the Fprog/Fack abstraction, not against any one
// realization of it.
//
// The api* services are deliberately private-with-friend: only Context
// may invoke them, exactly as with the pre-existing MacEngine friend
// arrangement, so protocol code cannot bypass the facade.
#pragma once

#include "common/rng.h"
#include "common/types.h"
#include "mac/packet.h"
#include "mac/params.h"

namespace ammb::graph {
class DualGraph;
}

namespace ammb::mac {

class Context;

/// Abstract MAC layer as seen from a Process through its Context.
class MacLayer {
 public:
  virtual ~MacLayer() = default;

  /// Network size (node ids are 0..n-1).
  virtual NodeId n() const = 0;
  /// The topology in effect right now (epoch-aware on dynamic views).
  virtual const graph::DualGraph& topology() const = 0;
  /// Current time in ticks.
  virtual Time now() const = 0;
  /// The Fack/Fprog/variant parameters this layer executes under.
  virtual const MacParams& params() const = 0;

 private:
  friend class Context;

  virtual void apiBcast(NodeId node, Packet packet) = 0;
  virtual bool apiBusy(NodeId node) const = 0;
  virtual void apiDeliver(NodeId node, MsgId msg) = 0;
  virtual TimerId apiSetTimer(NodeId node, Time at) = 0;
  virtual void apiAbort(NodeId node) = 0;
  virtual void requireEnhanced(const char* api) const = 0;
  virtual Rng& nodeRng(NodeId node) = 0;
};

}  // namespace ammb::mac
