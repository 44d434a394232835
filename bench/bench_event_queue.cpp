// Event-kernel microbench: the pooled sim::EventQueue on the three
// hot-path shapes the MAC engine exercises:
//
//   schedule+run — bulk insertion then full drain (bcast planning);
//   churn        — a bounded window of self-rescheduling events
//                  (steady-state simulation; slot reuse vs. realloc);
//   cancel-heavy — schedule/cancel pairs plus a drain (abort paths and
//                  guard re-arming; O(log n) removal in place).
//
// Counters report events per second.
#include <benchmark/benchmark.h>

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

void BM_ScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    EventQueue q;
    for (std::uint64_t i = 0; i < n; ++i) {
      q.schedule(mixTime(i), EnginePayload{&sink, i, i + 1});
    }
    q.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
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

void BM_Churn(benchmark::State& state) {
  const auto window = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kEvents = 1 << 16;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    EventQueue q;
    for (std::uint64_t i = 0; i < window; ++i) {
      q.schedule(mixTime(i), ChurnStep{&q, &sink, i});
    }
    q.run(ammb::kTimeNever, kEvents);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                          state.iterations());
}

void BM_CancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
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
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          state.iterations());
}

BENCHMARK(BM_ScheduleRun)->Arg(1024)->Arg(65536);
BENCHMARK(BM_Churn)->Arg(64)->Arg(1024);
BENCHMARK(BM_CancelHeavy)->Arg(1024)->Arg(65536);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
