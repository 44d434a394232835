#include "sim/event_queue.h"

namespace ammb::sim {

const char* toString(RunStatus status) {
  switch (status) {
    case RunStatus::kDrained: return "drained";
    case RunStatus::kStopped: return "stopped";
    case RunStatus::kTimeLimit: return "time-limit";
    case RunStatus::kEventLimit: return "event-limit";
  }
  return "?";
}

std::uint32_t EventQueue::acquireSlot() {
  if (!freeSlots_.empty()) {
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    return slot;
  }
  // Heap indices live below kInWheel in SlotMeta::pos.
  AMMB_REQUIRE(meta_.size() < kInWheel, "event slot pool exhausted");
  meta_.emplace_back();
  events_.emplace_back();
  return static_cast<std::uint32_t>(meta_.size() - 1);
}

void EventQueue::releaseSlot(std::uint32_t slot) {
  SlotMeta& m = meta_[slot];
  m.pos = kFree;
  // The generation bump invalidates every outstanding handle to this
  // slot, so a reused slot cannot be cancelled through a stale handle.
  ++m.generation;
  freeSlots_.push_back(slot);
}

// --- wheel ------------------------------------------------------------------

void EventQueue::wheelAppend(std::uint32_t slot, std::uint32_t bucket) {
  Bucket& b = buckets_[bucket];
  SlotMeta& m = meta_[slot];
  m.pos = kInWheel | bucket;
  m.prev = b.tail;
  m.next = kNil;
  if (b.tail == kNil) {
    b.head = slot;
    occupied_[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
  } else {
    meta_[b.tail].next = slot;
  }
  b.tail = slot;
  ++wheelCount_;
}

void EventQueue::wheelUnlink(std::uint32_t slot) {
  const SlotMeta& m = meta_[slot];
  const std::uint32_t bucket = m.pos & ~kInWheel;
  Bucket& b = buckets_[bucket];
  (m.prev == kNil ? b.head : meta_[m.prev].next) = m.next;
  (m.next == kNil ? b.tail : meta_[m.next].prev) = m.prev;
  if (b.head == kNil) {
    occupied_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
  }
  --wheelCount_;
}

Time EventQueue::wheelDistance() const {
  const std::uint32_t from = bucketOf(now_);
  std::uint32_t w = from / 64;
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (from % 64));
  // now()'s word from its bit on, the other words in ring order, then
  // the first word again for the bits below now()'s.
  for (std::uint32_t i = 0; i <= kWords; ++i) {
    if (word != 0) {
      const std::uint32_t bucket =
          w * 64 + static_cast<std::uint32_t>(__builtin_ctzll(word));
      return static_cast<Time>((bucket - from) & (kWheelTicks - 1));
    }
    w = (w + 1) % kWords;
    word = occupied_[w];
  }
  AMMB_ASSERT(false);  // wheelCount_ > 0, so some bit is set
  return 0;
}

void EventQueue::advanceTo(Time at) {
  now_ = at;
  // In heap order, so each bucket receives its tick's events in the
  // order they were scheduled, ahead of any direct ones still to come.
  while (!heap_.empty() && heap_[0].at - now_ < kWheelTicks) {
    const HeapEntry top = heap_[0];
    popRoot();
    wheelAppend(top.slot, bucketOf(top.at));
  }
}

// --- heap -------------------------------------------------------------------

void EventQueue::heapPush(Time at, std::uint32_t slot) {
  heap_.push_back(HeapEntry{at, nextSeq_++, slot});
  const auto pos = static_cast<std::uint32_t>(heap_.size() - 1);
  meta_[slot].pos = pos;
  siftUp(pos);
}

void EventQueue::siftUp(std::uint32_t pos) {
  HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void EventQueue::siftDown(std::uint32_t pos) {
  HeapEntry entry = heap_[pos];
  const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t best = 2 * pos + 1;
    if (best >= size) break;
    if (best + 1 < size && before(heap_[best + 1], heap_[best])) ++best;
    if (!before(heap_[best], entry)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, entry);
}

void EventQueue::heapRemoveAt(std::uint32_t pos) {
  const std::uint32_t last = static_cast<std::uint32_t>(heap_.size() - 1);
  if (pos != last) {
    const HeapEntry moved = heap_[last];
    heap_.pop_back();
    place(pos, moved);
    // The filler may need to move either way relative to its new
    // neighborhood; only one of the two sifts will do anything.
    siftDown(pos);
    siftUp(meta_[moved.slot].pos);
  } else {
    heap_.pop_back();
  }
}

void EventQueue::popRoot() {
  // The filler can only move down, so skip heapRemoveAt's sift-up leg.
  const std::uint32_t last = static_cast<std::uint32_t>(heap_.size() - 1);
  if (last != 0) {
    const HeapEntry moved = heap_[last];
    heap_.pop_back();
    place(0, moved);
    siftDown(0);
  } else {
    heap_.pop_back();
  }
}

// --- public -----------------------------------------------------------------

EventHandle EventQueue::schedule(Time at, Event event) {
  AMMB_REQUIRE(at >= now_, "cannot schedule an event in the past");
  const std::uint32_t slot = acquireSlot();
  events_[slot] = event;
  // at - now_ cannot overflow: both are non-negative.
  if (at - now_ < kWheelTicks) {
    wheelAppend(slot, bucketOf(at));
  } else {
    heapPush(at, slot);
  }
  return makeHandle(meta_[slot].generation, slot);
}

bool EventQueue::cancel(EventHandle handle) {
  const std::uint64_t slotPlusOne = handle & 0xffffffffu;
  if (slotPlusOne == 0 || slotPlusOne > meta_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(slotPlusOne - 1);
  const auto generation = static_cast<std::uint32_t>(handle >> 32);
  const SlotMeta& m = meta_[slot];
  if (m.generation != generation || m.pos == kFree) return false;
  if (m.pos & kInWheel) {
    wheelUnlink(slot);
  } else {
    heapRemoveAt(m.pos);
  }
  releaseSlot(slot);
  return true;
}

Time EventQueue::nextTime() const {
  return wheelCount_ != 0 ? now_ + wheelDistance() : heap_[0].at;
}

Event EventQueue::popAt(Time at) {
  if (at != now_) advanceTo(at);
  const std::uint32_t slot = buckets_[bucketOf(at)].head;
  AMMB_DCHECK(slot != kNil);
  const Event event = events_[slot];
  wheelUnlink(slot);
  releaseSlot(slot);
  ++processed_;
  return event;
}

}  // namespace ammb::sim
