#include "core/bmmb.h"

#include <algorithm>

namespace ammb::core {

std::vector<MsgId> MsgSet::sorted() const {
  std::vector<MsgId> out;
  out.reserve(size());
  for (std::uint64_t w = word_; w != 0; w &= w - 1) {
    out.push_back(static_cast<MsgId>(__builtin_ctzll(w)));
  }
  if (large_ != nullptr) {
    out.insert(out.end(), large_->begin(), large_->end());
    std::sort(out.begin(), out.end());
  }
  return out;
}

void BmmbProcess::onArrive(mac::Context& ctx, MsgId msg) { get(ctx, msg); }

void BmmbProcess::onReceive(mac::Context& ctx, const mac::Packet& packet) {
  for (MsgId m : packet.msgs) get(ctx, m);
}

void BmmbProcess::onAck(mac::Context& ctx, const mac::Packet& packet) {
  AMMB_ASSERT(!queue_.empty());
  AMMB_ASSERT(packet.msgs.size() == 1 && packet.msgs.front() == queue_.front());
  sent_.insert(queue_.front());
  queue_.erase(queue_.begin());
  maybeSend(ctx);
}

void BmmbProcess::onEpochChange(mac::Context& ctx,
                                const mac::EpochChange& change) {
  // Retransmit-on-recovery: new G capacity means some neighbor may
  // have missed part of the flood — a message acknowledged while that
  // neighbor's link was down was covered by an ack gate that never
  // contained it, so nothing in the base protocol will ever re-offer
  // it.  Re-enqueue the whole `sent` set (receivers dedup, so already-
  // covered messages cost one useless packet each at worst), ascending
  // MsgId for a deterministic re-arm order, one budget unit apiece.
  if (reaction_.none() || !change.gainedG) return;
  std::vector<MsgId> rearm = sent_.sorted();
  // The in-flight queue head is as stale as the sent set: its delivery
  // plan predates the boundary, so its ack gate never contained the
  // recovered neighbor, and its ack will move it into `sent` without
  // that neighbor ever being offered it.  Re-arm it too (the back copy
  // is re-broadcast under the new epoch after the current ack lands).
  const bool inFlight = ctx.busy() && !queue_.empty();
  if (inFlight) rearm.push_back(queue_.front());
  std::sort(rearm.begin(), rearm.end());
  bool armed = false;
  for (MsgId m : rearm) {
    // Dedup against pending queue entries; the in-flight head does not
    // count as pending (it is the stale transmission being re-armed).
    const auto pendingBegin = queue_.begin() + (inFlight ? 1 : 0);
    if (std::find(pendingBegin, queue_.end(), m) != queue_.end()) continue;
    int& budget =
        retriesLeft_.try_emplace(m, reaction_.retryBudget).first->second;
    if (budget <= 0) continue;
    --budget;
    queue_.push_back(m);
    ++retransmits_;
    armed = true;
  }
  if (armed) maybeSend(ctx);
}

void BmmbProcess::get(mac::Context& ctx, MsgId msg) {
  if (!rcvd_.insert(msg)) return;  // duplicate: discard
  ctx.deliver(msg);
  queue_.push_back(msg);
  maybeSend(ctx);
}

void BmmbProcess::maybeSend(mac::Context& ctx) {
  if (ctx.busy() || queue_.empty()) return;
  // The head of the queue is the in-flight message; non-FIFO
  // disciplines promote their pick to the head before sending.
  switch (discipline_) {
    case QueueDiscipline::kFifo:
      break;
    case QueueDiscipline::kLifo:
      std::rotate(queue_.begin(), queue_.end() - 1, queue_.end());
      break;
    case QueueDiscipline::kRandom: {
      const auto i = static_cast<std::size_t>(
          ctx.rng().uniformInt(0, static_cast<std::int64_t>(queue_.size()) - 1));
      std::swap(queue_[0], queue_[i]);
      break;
    }
  }
  mac::Packet packet;
  packet.kind = mac::PacketKind::kData;
  packet.msgs = {queue_.front()};
  ctx.bcast(std::move(packet));
}

mac::MacEngine::ProcessFactory BmmbSuite::factory() {
  return [this](NodeId node) {
    auto p = std::make_unique<BmmbProcess>(discipline_, reaction_);
    const auto i = static_cast<std::size_t>(node);
    if (i >= byNode_.size()) byNode_.resize(i + 1, nullptr);
    byNode_[i] = p.get();
    return p;
  };
}

const BmmbProcess* BmmbSuite::find(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= byNode_.size()) {
    return nullptr;
  }
  return byNode_[static_cast<std::size_t>(node)];
}

std::uint64_t BmmbSuite::totalRetransmits() const {
  std::uint64_t total = 0;
  for (const BmmbProcess* process : byNode_) {
    if (process != nullptr) total += process->retransmits();
  }
  return total;
}

const BmmbProcess& BmmbSuite::process(NodeId node) const {
  const BmmbProcess* p = find(node);
  AMMB_REQUIRE(p != nullptr, "unknown node (engine not built yet?)");
  return *p;
}

bool BmmbSuite::uselessFor(NodeId node, const mac::Packet& packet) const {
  const BmmbProcess* p = find(node);
  if (p == nullptr) return false;
  const MsgSet& rcvd = p->received();
  return std::all_of(packet.msgs.begin(), packet.msgs.end(),
                     [&rcvd](MsgId m) { return rcvd.contains(m); });
}

}  // namespace ammb::core
