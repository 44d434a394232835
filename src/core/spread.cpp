#include "core/spread.h"

#include <algorithm>

namespace ammb::core {

void SpreadSubroutine::onVirtualRound(mac::Context& ctx, std::int64_t vr) {
  const int inPhase = static_cast<int>(vr % phaseLen());
  const int sub = inPhase % 3;

  if (inPhase == 0) {
    // Phase boundary: commit the previous phase's message to the
    // sent-set and pick the next one (smallest unsent owned message).
    if (vr > 0) {
      if (current_ != kNoMsg) shared_.sent.insert(current_);
      ++completedPhases_;
    }
    current_ = kNoMsg;
    if (shared_.isMis) {
      for (MsgId m : shared_.owned) {
        if (shared_.sent.count(m) == 0) {
          current_ = m;
          break;
        }
      }
    }
  }

  // The relay buffer filled during the previous round drains now.
  const MsgId relay = relayNext_;
  relayNext_ = kNoMsg;

  if (sub == 0) {
    // Period start: origin broadcasts roll the activation coin.
    if (shared_.isMis && current_ != kNoMsg &&
        ctx.rng().bernoulli(params_.pSpread)) {
      mac::Packet p;
      p.kind = mac::PacketKind::kSpreadData;
      p.tag = static_cast<std::int32_t>(vr);
      p.msgs = {current_};
      ctx.bcast(std::move(p));
    }
    return;
  }

  // Rounds 2 and 3 of a period: relay what was heard last round.
  if (relay != kNoMsg) {
    mac::Packet p;
    p.kind = mac::PacketKind::kSpreadData;
    p.tag = static_cast<std::int32_t>(vr);
    p.msgs = {relay};
    ctx.bcast(std::move(p));
  }
}

void SpreadSubroutine::onReceive(mac::Context& /*ctx*/,
                                 const mac::Packet& packet, std::int64_t vr) {
  if (packet.kind != mac::PacketKind::kSpreadData || packet.msgs.empty()) {
    return;
  }
  const MsgId m = packet.msgs.front();
  if (shared_.isMis) shared_.owned.insert(m);
  // Relay rule: payloads heard in the period's first or second round
  // are rebroadcast in the next round.  The paper relays only on
  // receipt from a G-neighbor; we relay on any receipt because a
  // maximally adversarial scheduler may satisfy a receiver's progress
  // obligation over a G'-only edge, which would strand the chain at
  // distance >= 2 — and Lemma 4.7's 7c-ball argument already absorbs
  // c-length relay hops (README, "Deviations from the paper").
  const int sub = static_cast<int>(vr % 3);
  if (sub <= 1 && relayNext_ == kNoMsg) {
    relayNext_ = m;
  }
}

}  // namespace ammb::core
