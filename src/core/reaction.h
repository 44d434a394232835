// Churn-reaction policy for the protocol layer.
//
// PR 5 gave the engine epoch-based topology dynamics, but the paper's
// protocols assume a static (G, G') pair: a message broadcast while a
// neighbor's radio is down is simply never re-offered, so a single
// crash episode can strand the MMB problem forever.  A ReactionSpec
// names what the protocol does about it:
//
//   kNone            — the paper's protocols verbatim (the default;
//                      every pre-existing campaign runs this way).
//   kRetransmit      — retransmit-on-recovery: when an epoch boundary
//                      hands a node new G capacity (a crashed neighbor
//                      recovered, a dropped reliable link returned),
//                      the node re-enqueues every message it already
//                      broadcast, in ascending MsgId order, consuming
//                      one unit of that message's retry budget.
//                      Receivers dedup, so the re-flood terminates.
//   kRetransmitRemis — kRetransmit, plus the epoch-aware FMMB variant:
//                      on any topology shift the lock-step rounds
//                      rebase and the MIS / gather / spread phases
//                      re-run over the current epoch's graph instead
//                      of the stale base.
//
// The reaction is part of the protocol (it changes results), so it
// rides on ProtocolSpec / the sweep "reactions" axis and is applied
// before spec fingerprinting — mirroring the MAC realization, not the
// trace mode.
#pragma once

#include <cstdint>
#include <string>

namespace ammb::core {

struct ReactionSpec {
  enum class Kind : std::uint8_t {
    kNone,
    kRetransmit,
    kRetransmitRemis,
  };

  Kind kind = Kind::kNone;
  /// Per-message cap on recovery re-enqueues.  Each message spends one
  /// unit per re-arm; at zero the message is never re-offered again,
  /// bounding the extra traffic at retryBudget extra floods per
  /// message no matter how often the topology churns.
  int retryBudget = 3;

  bool none() const { return kind == Kind::kNone; }
  /// True when the FMMB variant should re-run MIS on topology shifts.
  bool remis() const { return kind == Kind::kRetransmitRemis; }

  /// "none" | "retransmit" | "retransmit+remis".
  std::string label() const;
  /// Inverse of label(); throws ammb::Error on anything else.
  static ReactionSpec fromLabel(const std::string& label);
};

std::string toString(ReactionSpec::Kind kind);
ReactionSpec::Kind reactionKindFromString(const std::string& name);

}  // namespace ammb::core
