// Event-kernel microbench: the pooled sim::EventQueue on the three
// hot-path shapes the MAC engine exercises, with plain 16-byte events
// like the engine's and a dispatch that reads every field:
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
using ammb::sim::Event;
using ammb::sim::EventQueue;

// Cheap deterministic pseudo-times, so every run sees identical
// schedules without paying RNG costs inside the measured region.
inline Time mixTime(std::uint64_t i) {
  std::uint64_t x = i * 0x9e3779b97f4a7c15ull;
  x ^= x >> 29;
  return static_cast<Time>(x % 4096);
}

// An engine-shaped event: a delivery of instance `i` to a node.
inline Event delivery(std::uint64_t i, std::uint64_t target) {
  return Event{3, static_cast<ammb::NodeId>(target & 0x7fffffff),
               static_cast<std::int64_t>(i)};
}

// Folds an event into the checksum.
inline void consume(std::uint64_t& sink, const Event& e) {
  sink += e.kind ^ static_cast<std::uint64_t>(e.node) ^
          static_cast<std::uint64_t>(e.payload);
}

/// One pass: `n` schedules, then a full drain.  Returns operations.
std::uint64_t scheduleRun(std::uint64_t n, std::uint64_t& sink) {
  EventQueue q;
  for (std::uint64_t i = 0; i < n; ++i) {
    q.schedule(mixTime(i), delivery(i, i + 1));
  }
  q.run([&sink](const Event& e) { consume(sink, e); });
  return n;
}

/// One pass: a `window`-event population handling 2^16 events.  Every
/// handled event schedules its successor (the steady-state shape), its
/// payload a salt for the successor's delay.
std::uint64_t churn(std::uint64_t window, std::uint64_t& sink) {
  constexpr std::uint64_t kEvents = 1 << 16;
  EventQueue q;
  for (std::uint64_t i = 0; i < window; ++i) {
    q.schedule(mixTime(i), delivery(i, i));
  }
  q.run(
      [&q, &sink](const Event& e) {
        ++sink;
        const auto salt = static_cast<std::uint64_t>(e.payload);
        q.schedule(q.now() + 1 + static_cast<Time>((sink + salt) % 7), e);
      },
      ammb::kTimeNever, kEvents);
  return kEvents;
}

/// One pass: `n` schedules, three quarters cancelled, then a drain.
std::uint64_t cancelHeavy(std::uint64_t n, std::uint64_t& sink) {
  EventQueue q;
  std::vector<std::uint64_t> handles;
  handles.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    handles.push_back(q.schedule(mixTime(i), delivery(i, i)));
  }
  // Cancel three quarters; the kernel removes them in place.
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 4 != 0) q.cancel(handles[static_cast<std::size_t>(i)]);
  }
  q.run([&sink](const Event& e) { consume(sink, e); });
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
