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
//
// Per node that is two 16-byte MsgSets (`rcvd`, `sent`) plus the queue:
// ids below 64 are bits of one inline word, so a run whose ids are all
// below 64 allocates no set at all, and only ids of 64 and above go to
// a hash set, allocated on first use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.h"
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

/// A set of message ids.  Ids below 64 are the bits of one inline word;
/// any larger id goes to a hash set allocated on first use, so memory
/// stays O(ids held) even for a stray huge id.  Ids are never negative
/// (the engine rejects negative arrivals).
class MsgSet {
 public:
  bool contains(MsgId m) const {
    AMMB_DCHECK(m >= 0);
    if (m < kWordBits) return (word_ >> m) & 1u;
    return large_ != nullptr && large_->count(m) > 0;
  }

  /// Adds `m`; true iff it was not in the set yet.
  bool insert(MsgId m) {
    AMMB_DCHECK(m >= 0);
    if (m < kWordBits) {
      const std::uint64_t bit = std::uint64_t{1} << m;
      if ((word_ & bit) != 0) return false;
      word_ |= bit;
      return true;
    }
    if (large_ == nullptr) {
      large_ = std::make_unique<std::unordered_set<MsgId>>();
    }
    return large_->insert(m).second;
  }

  std::size_t size() const {
    return static_cast<std::size_t>(__builtin_popcountll(word_)) +
           (large_ != nullptr ? large_->size() : 0);
  }

  /// The ids, ascending.
  std::vector<MsgId> sorted() const;

 private:
  static constexpr int kWordBits = 64;
  std::uint64_t word_ = 0;
  std::unique_ptr<std::unordered_set<MsgId>> large_;
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
  const MsgSet& received() const { return rcvd_; }

  /// Messages queued but not yet acknowledged (the paper's `bcastq`).
  const std::vector<MsgId>& queue() const { return queue_; }

  /// Messages this node has broadcast and received an ack for (the
  /// `sent` set of Theorem 3.1's analysis).
  const MsgSet& sent() const { return sent_; }

  /// Recovery re-enqueues this node performed (0 under kNone).
  std::uint64_t retransmits() const { return retransmits_; }

 private:
  void get(mac::Context& ctx, MsgId msg);
  void maybeSend(mac::Context& ctx);

  /// First, so the duplicate test in onReceive reads the cache line the
  /// virtual call has already loaded.
  MsgSet rcvd_;
  QueueDiscipline discipline_;
  ReactionSpec reaction_;
  /// A vector, not a deque: it holds at most k messages, and a deque
  /// allocates a node and a map per process before anything is queued.
  std::vector<MsgId> queue_;
  MsgSet sent_;
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
  /// Throws for a node the factory never created.
  const BmmbProcess& process(NodeId node) const;

  /// Sum of every node's recovery re-enqueues.
  std::uint64_t totalRetransmits() const;

  // ProtocolOracle (false for a node the factory never created):
  bool uselessFor(NodeId node, const mac::Packet& packet) const override;

 private:
  /// The registered process of `node`, or null.
  const BmmbProcess* find(NodeId node) const;

  QueueDiscipline discipline_;
  ReactionSpec reaction_;
  /// Indexed by node; null where the factory has not run.
  std::vector<const BmmbProcess*> byNode_;
};

}  // namespace ammb::core
