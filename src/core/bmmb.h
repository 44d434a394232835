// Basic Multi-Message Broadcast (BMMB) — Section 3 of the paper.
//
// Every process keeps a FIFO queue `bcastq` and a set `rcvd`.  On first
// learning a message (arrive or rcv) it delivers it, appends it to the
// queue, and — whenever it is not waiting for an ack — broadcasts the
// queue head.  Duplicates are discarded.  The protocol runs unchanged
// in the standard model (no clocks, no aborts).
//
// Proven bounds reproduced by the benches/tests:
//   * arbitrary G′:    O((D + k) Fack)                    (Theorem 3.1)
//   * r-restricted G′: O(D Fprog + r k Fack)              (Theorem 3.2)
//     — explicitly, all messages are received everywhere by
//       t1 = (D + (r+1)k - 2) Fprog + r (k-1) Fack        (Theorem 3.16)
//   * G′ = G:          special case r = 1 of the above    ([30])
//
// QueueDiscipline::kFifo is the paper's algorithm; kLifo and kRandom
// are ablation variants used to probe how much the FIFO choice matters
// under adversarial scheduling.
// Under topology dynamics (PR 5) the verbatim protocol strands: a
// message broadcast while a neighbor's radio was down is never offered
// to it again.  With ReactionSpec::kRetransmit the process re-enqueues
// its `sent` set — ascending MsgId, budget-capped, dedup'd against the
// queue — whenever an epoch boundary hands it new G capacity, so the
// flood resumes exactly where the outage cut it (see core/reaction.h).
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "core/reaction.h"
#include "mac/engine.h"
#include "mac/oracle.h"
#include "mac/process.h"

namespace ammb::core {

/// Order in which queued messages are broadcast.
enum class QueueDiscipline : std::uint8_t {
  kFifo,    ///< the paper's BMMB
  kLifo,    ///< newest-first ablation
  kRandom,  ///< uniformly random next message (node RNG)
};

/// One BMMB automaton.
class BmmbProcess : public mac::Process {
 public:
  explicit BmmbProcess(QueueDiscipline discipline = QueueDiscipline::kFifo,
                       ReactionSpec reaction = {})
      : discipline_(discipline), reaction_(reaction) {}

  void onArrive(mac::Context& ctx, MsgId msg) override;
  void onReceive(mac::Context& ctx, const mac::Packet& packet) override;
  void onAck(mac::Context& ctx, const mac::Packet& packet) override;
  void onEpochChange(mac::Context& ctx,
                     const mac::EpochChange& change) override;

  /// Messages this node has received (the paper's `rcvd` set).
  const std::unordered_set<MsgId>& received() const { return rcvd_; }

  /// Messages queued but not yet acknowledged (the paper's `bcastq`).
  const std::vector<MsgId>& queue() const { return queue_; }

  /// Messages this node has broadcast and received an ack for (the
  /// `sent` set of Theorem 3.1's analysis).
  const std::unordered_set<MsgId>& sent() const { return sent_; }

  /// Recovery re-enqueues this node performed (0 under kNone).
  std::uint64_t retransmits() const { return retransmits_; }

 private:
  void get(mac::Context& ctx, MsgId msg);
  void maybeSend(mac::Context& ctx);

  QueueDiscipline discipline_;
  ReactionSpec reaction_;
  /// A vector, not a deque: it holds at most k messages, and a deque
  /// allocates a node and a map per process before anything is queued.
  std::vector<MsgId> queue_;
  std::unordered_set<MsgId> rcvd_;
  std::unordered_set<MsgId> sent_;
  /// Remaining recovery re-enqueues per message (lazily seeded from
  /// reaction_.retryBudget on first re-arm).
  std::unordered_map<MsgId, int> retriesLeft_;
  std::uint64_t retransmits_ = 0;
};

/// Creates the per-node processes, remembers them for inspection, and
/// implements the adversary oracle (a packet is useless for a node iff
/// every message it carries is already in that node's rcvd set).
class BmmbSuite : public mac::ProtocolOracle {
 public:
  explicit BmmbSuite(QueueDiscipline discipline = QueueDiscipline::kFifo,
                     ReactionSpec reaction = {})
      : discipline_(discipline), reaction_(reaction) {}

  /// Factory to hand to MacEngine; registers each created process.
  mac::MacEngine::ProcessFactory factory();

  /// The process of `node`; valid once the engine was constructed.
  const BmmbProcess& process(NodeId node) const;

  /// Sum of every node's recovery re-enqueues.
  std::uint64_t totalRetransmits() const;

  // ProtocolOracle:
  bool uselessFor(NodeId node, const mac::Packet& packet) const override;

 private:
  QueueDiscipline discipline_;
  ReactionSpec reaction_;
  std::unordered_map<NodeId, const BmmbProcess*> byNode_;
};

}  // namespace ammb::core
