// Deterministic discrete-event kernel.
//
// An event is plain data: a 16-byte Event of a kind byte, a node and a
// 64-bit payload.  The queue stores it and hands it back unchanged, in
// (time, insertion sequence) order, to the dispatch function given to
// run(); only that function gives the fields a meaning.  So executions
// are bit-reproducible: two events at the same tick run in the order
// they were scheduled.  Zero-delay event chains (the "no time passes"
// extensions used throughout the paper's lower-bound constructions) are
// expressed by scheduling at `now()`.
//
// Storage is a slot pool plus a time wheel with a heap behind it:
//
//   * each pending event lives in a pooled slot; freed slots are reused,
//     so steady-state scheduling performs no allocation;
//   * handles are generation-tagged slot references, so cancel() is a
//     true removal — no tombstones, no lazy reaping — and a stale handle
//     (event already ran or was cancelled) is rejected in O(1);
//   * an event less than kWheelTicks ahead of now() goes into a ring of
//     one-tick buckets, bucket (time mod kWheelTicks).  Each bucket is a
//     FIFO list threaded through the slots' prev/next links, and an
//     occupancy bitmap finds the next non-empty tick, so schedule, pop
//     and cancel are O(1).  The abstract MAC layer bounds every event an
//     instance causes by its bcast + Fack, so with Fack < kWheelTicks
//     the engine's deliveries, acks and guard deadlines all stay here;
//   * an event kWheelTicks or more ahead goes to a (time, seq) binary
//     heap that tracks each slot's position, so cancel removes it in
//     place in O(log n).
//
// Why the order is exact.  Invariant: every heap event lies at or
// beyond now() + kWheelTicks.  Whenever run() advances now() — after its
// limit checks, before the new tick's first event — it moves the heap's
// events below now() + kWheelTicks into their buckets, in heap order.
// So the wheel only ever holds times in [now(), now() + kWheelTicks), one
// tick per bucket.  Within a tick t, an event reached the heap while
// now() <= t - kWheelTicks, and one went straight into the wheel while
// now() > t - kWheelTicks; time only moves forward, so every heap event
// for t was scheduled before every direct one.  It also reaches the
// bucket first: the move happens at the very advance that lets direct
// events for t in.  Appending at the tail then keeps each bucket in
// insertion order.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace ammb::sim {

/// A pending event.  The queue gives no field a meaning; the dispatch
/// function passed to EventQueue::run interprets all three.
struct Event {
  std::uint8_t kind = 0;
  NodeId node = kNoNode;
  std::int64_t payload = 0;
};
static_assert(sizeof(Event) == 16, "four events to a cache line");
static_assert(std::is_trivially_copyable_v<Event>,
              "storing or dropping an event is a plain copy or nothing");

/// Handle used to cancel a scheduled event.  Encodes (generation, slot);
/// 0 is never a valid handle.
using EventHandle = std::uint64_t;

/// Outcome of EventQueue::run.
enum class RunStatus {
  kDrained,      ///< no more events
  kStopped,      ///< requestStop() was called
  kTimeLimit,    ///< next event lies beyond the time limit
  kEventLimit,   ///< safety cap on processed events reached
};

/// The one canonical RunStatus spelling ("drained", "stopped",
/// "time-limit", "event-limit") shared by golden traces, the sweep
/// CSV emitters, and the run-record codec that parses it back.
const char* toString(RunStatus status);

/// A monotone discrete-event executor.
class EventQueue {
 public:
  /// Width of the time wheel in ticks: events closer than this to now()
  /// are bucketed, later ones wait in the heap.
  static constexpr std::uint32_t kWheelTicks = 256;

  EventQueue() = default;

  /// Current simulated time.  Starts at 0.
  Time now() const { return now_; }

  /// Schedules `event` at absolute time `at` (>= now()).  Returns a
  /// handle usable with cancel().
  EventHandle schedule(Time at, Event event);

  /// Cancels a pending event.  Returns false if the event already ran
  /// or was cancelled.
  bool cancel(EventHandle handle);

  /// Hands each pending event to `dispatch(const Event&)`, in order,
  /// until drained, stopped, past `timeLimit`, or after `maxEvents`
  /// events.  Time advances to each event's timestamp before its
  /// dispatch, which may freely schedule or cancel; when a limit
  /// interrupts the run, now() stays at the last dispatched event's
  /// time.
  template <typename Dispatch>
  RunStatus run(Dispatch&& dispatch, Time timeLimit = kTimeNever,
                std::uint64_t maxEvents = 250'000'000) {
    stopRequested_ = false;
    for (std::uint64_t executed = 0;; ++executed) {
      if (stopRequested_) return RunStatus::kStopped;
      if (pendingCount() == 0) return RunStatus::kDrained;
      const Time at = nextTime();
      if (at > timeLimit) return RunStatus::kTimeLimit;
      if (executed >= maxEvents) return RunStatus::kEventLimit;
      dispatch(popAt(at));
    }
  }

  /// Asks a run in progress to stop after the current event.
  void requestStop() { stopRequested_ = true; }

  /// Number of events executed so far.
  std::uint64_t processedCount() const { return processed_; }

  /// Number of events currently pending.  Cancelled events are removed
  /// eagerly and never counted.
  std::size_t pendingCount() const { return wheelCount_ + heap_.size(); }

  /// Pooled slots currently allocated (pending + free-listed).
  std::size_t slotCapacity() const { return meta_.size(); }

 private:
  static_assert((kWheelTicks & (kWheelTicks - 1)) == 0 && kWheelTicks >= 64,
                "the wheel is a whole number of 64-bit bitmap words");
  static constexpr std::uint32_t kWords = kWheelTicks / 64;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// SlotMeta::pos of a free slot.
  static constexpr std::uint32_t kFree = 0xffffffffu;
  /// SlotMeta::pos of a bucketed slot is kInWheel | bucket; below it,
  /// pos is a heap index.
  static constexpr std::uint32_t kInWheel = 0x80000000u;

  // Slot storage is split hot/cold: linking, unlinking and sifting
  // touch only this dense 16-byte-per-slot array, while the event
  // itself is touched once per schedule/execute.
  struct SlotMeta {
    std::uint32_t generation = 0;
    std::uint32_t pos = kFree;
    std::uint32_t prev = kNil;  ///< bucket neighbors (kNil at the ends)
    std::uint32_t next = kNil;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  static EventHandle makeHandle(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<EventHandle>(generation) << 32) |
           (static_cast<EventHandle>(slot) + 1);
  }

  static std::uint32_t bucketOf(Time at) {
    return static_cast<std::uint32_t>(at) & (kWheelTicks - 1);
  }

  std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t slot);

  void wheelAppend(std::uint32_t slot, std::uint32_t bucket);
  void wheelUnlink(std::uint32_t slot);
  /// Ticks from now() to the earliest bucketed event (0 when now()'s own
  /// bucket is non-empty).  Requires wheelCount_ > 0.
  Time wheelDistance() const;
  /// Sets now() to `at` and moves every heap event below the new
  /// horizon into its bucket.
  void advanceTo(Time at);
  /// Time of the earliest pending event.  Requires pendingCount() > 0.
  Time nextTime() const;
  /// Advances to `at`, the nextTime() result, and retires the first
  /// event there, so its dispatch may reuse the slot.
  Event popAt(Time at);

  void heapPush(Time at, std::uint32_t slot);
  void heapRemoveAt(std::uint32_t pos);
  void popRoot();
  void siftUp(std::uint32_t pos);
  void siftDown(std::uint32_t pos);
  void place(std::uint32_t pos, HeapEntry entry) {
    heap_[pos] = entry;
    meta_[entry.slot].pos = pos;
  }

  std::array<Bucket, kWheelTicks> buckets_{};
  std::array<std::uint64_t, kWords> occupied_{};
  std::size_t wheelCount_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<SlotMeta> meta_;
  std::vector<Event> events_;
  std::vector<std::uint32_t> freeSlots_;
  Time now_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::uint64_t processed_ = 0;
  bool stopRequested_ = false;
};

}  // namespace ammb::sim
