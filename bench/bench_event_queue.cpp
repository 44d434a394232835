// Event-kernel microbench: the pooled sim::EventQueue on the three
// hot-path shapes the MAC engine exercises:
//
//   schedule+run — bulk insertion then full drain (bcast planning);
//   churn        — a bounded window of self-rescheduling events
//                  (steady-state simulation; slot reuse vs. realloc);
//   cancel-heavy — schedule/cancel pairs plus a drain (abort paths and
//                  guard re-arming; removal in place).
//
// Churn's delays of 1-7 ticks stay inside the queue's time wheel, as
// the engine's deliveries, acks and guard deadlines do whenever Fack
// is below EventQueue::kWheelTicks.  Schedule+run and cancel-heavy
// spread their events over 4096 ticks, so most take the far path: the
// heap first, then the wheel once now() comes within kWheelTicks.
//
// Self-timed with std::chrono over fixed sizes; takes no arguments.
// Each case repeats until it has handled about 2^19 queue operations
// and prints operations per second (best of three passes, to damp
// host noise).  Compare against a parent build of the same bench.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "sim/event_queue.h"

namespace {

using ammb::Time;
using ammb::sim::EventQueue;

// Cheap deterministic pseudo-times, so every run sees identical
// schedules without paying RNG costs inside the measured region.
inline Time mixTime(std::uint64_t i) {
  std::uint64_t x = i * 0x9e3779b97f4a7c15ull;
  x ^= x >> 29;
  return static_cast<Time>(x % 4096);
}

// Engine-sized closure state: MacEngine's hot-path events capture
// (this, InstanceId, NodeId) — 24 bytes, which overflows std::function's
// 16-byte SSO; EventFn keeps it inline.
struct EnginePayload {
  std::uint64_t* sink;
  std::uint64_t instance;
  std::uint64_t target;
  void operator()() const { *sink += instance ^ target; }
};
static_assert(sizeof(EnginePayload) == 24, "payload should model the engine");

/// One pass: `n` schedules, then a full drain.  Returns operations.
std::uint64_t scheduleRun(std::uint64_t n, std::uint64_t& sink) {
  EventQueue q;
  for (std::uint64_t i = 0; i < n; ++i) {
    q.schedule(mixTime(i), EnginePayload{&sink, i, i + 1});
  }
  q.run();
  return n;
}

// Self-rescheduling engine-sized closure (the steady-state shape: every
// handled event schedules its successor with a fresh closure).
struct ChurnStep {
  EventQueue* q;
  std::uint64_t* sink;
  std::uint64_t salt;
  void operator()() const {
    ++*sink;
    q->scheduleAfter(1 + static_cast<Time>((*sink + salt) % 7),
                     ChurnStep{q, sink, salt});
  }
};

/// One pass: a `window`-event population handling 2^16 events.
std::uint64_t churn(std::uint64_t window, std::uint64_t& sink) {
  constexpr std::uint64_t kEvents = 1 << 16;
  EventQueue q;
  for (std::uint64_t i = 0; i < window; ++i) {
    q.schedule(mixTime(i), ChurnStep{&q, &sink, i});
  }
  q.run(ammb::kTimeNever, kEvents);
  return kEvents;
}

/// One pass: `n` schedules, three quarters cancelled, then a drain.
std::uint64_t cancelHeavy(std::uint64_t n, std::uint64_t& sink) {
  EventQueue q;
  std::vector<std::uint64_t> handles;
  handles.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    handles.push_back(q.schedule(mixTime(i), EnginePayload{&sink, i, i}));
  }
  // Cancel three quarters; the kernel removes them in place.
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 4 != 0) q.cancel(handles[static_cast<std::size_t>(i)]);
  }
  q.run();
  return 2 * n;
}

struct Case {
  const char* shape;
  std::uint64_t size;
  std::uint64_t (*pass)(std::uint64_t size, std::uint64_t& sink);
};

}  // namespace

int main(int argc, char**) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: bench_event_queue (takes no arguments)\n");
    return 2;
  }
  constexpr std::uint64_t kOpsPerCase = 1 << 19;
  const Case cases[] = {
      {"schedule+run", 1024, scheduleRun},
      {"schedule+run", 65536, scheduleRun},
      {"churn", 64, churn},
      {"churn", 1024, churn},
      {"cancel-heavy", 1024, cancelHeavy},
      {"cancel-heavy", 65536, cancelHeavy},
  };
  std::uint64_t sink = 0;
  std::printf("%-14s %8s %14s\n", "shape", "size", "Mops/s");
  for (const Case& c : cases) {
    double best = 0.0;
    for (int attempt = 0; attempt < 3; ++attempt) {
      std::uint64_t ops = 0;
      const auto t0 = std::chrono::steady_clock::now();
      while (ops < kOpsPerCase) ops += c.pass(c.size, sink);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      best = std::max(best, static_cast<double>(ops) / seconds / 1e6);
    }
    std::printf("%-14s %8llu %14.1f\n", c.shape,
                static_cast<unsigned long long>(c.size), best);
  }
  // Keeps the handlers' side effects observable to the optimizer.
  std::printf("checksum %llu\n", static_cast<unsigned long long>(sink));
  return 0;
}
