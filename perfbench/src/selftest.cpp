// Self-tests of the harness arithmetic the per-layer numbers rest on:
// span self time and closure, and the tail-percentile rule.  run.py
// runs them (`ammb_perf selftest`) before every measurement.
#include <cstdio>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "self-test failed: %s\n", what);
  ++g_failures;
}

void spanArithmetic() {
  // Root [0, 100]: a protocol callback [10, 50] that plans a broadcast
  // [20, 30] and fires a tracker hook [35, 40], then an engine-level
  // progress pick [60, 70].
  Ledger ledger;
  ledger.open(Layer::kEngine, 0);
  ledger.open(Layer::kProtocol, 10);
  ledger.open(Layer::kSchedulerPlan, 20);
  expect(ledger.close(30) == 10, "a leaf span's duration");
  ledger.open(Layer::kTracker, 35);
  ledger.close(40);
  expect(ledger.close(50) == 40, "a span's duration includes its children");
  ledger.open(Layer::kSchedulerPick, 60);
  ledger.close(70);
  expect(ledger.close(100) == 100, "the root span's duration");
  expect(ledger.idle(), "every span closed");
  expect(ledger.selfNs(Layer::kSchedulerPlan) == 10,
         "a scheduler span nested in a callback keeps its whole duration");
  expect(ledger.selfNs(Layer::kTracker) == 5,
         "a tracker span nested in a callback keeps its whole duration");
  expect(ledger.selfNs(Layer::kProtocol) == 25,
         "callback self time excludes its nested scheduler and tracker");
  expect(ledger.selfNs(Layer::kSchedulerPick) == 10, "an engine-level span");
  expect(ledger.selfNs(Layer::kEngine) == 50,
         "the root keeps only the time no span claimed");
  expect(ledger.totalSelfNs() == 100, "self times sum to the root duration");
  expect(ledger.spans(Layer::kProtocol) == 1 && ledger.spans(Layer::kEngine) == 1,
         "span counts");

  // A second root [200, 260] accumulates into the same layers.  A
  // callback [215, 230] nested in a callback [210, 250] (an epoch change
  // that re-broadcasts) is charged once, and a zero-length span counts
  // as a call without time.
  ledger.open(Layer::kEngine, 200);
  ledger.open(Layer::kProtocol, 210);
  ledger.open(Layer::kProtocol, 215);
  ledger.open(Layer::kSchedulerPlan, 220);
  ledger.close(222);
  ledger.close(230);
  ledger.open(Layer::kCheck, 240);
  ledger.close(240);
  ledger.close(250);
  ledger.close(260);
  expect(ledger.selfNs(Layer::kProtocol) == 25 + 25 + 13,
         "nested callbacks are each charged their own self time");
  expect(ledger.selfNs(Layer::kSchedulerPlan) == 12, "plan time accumulates");
  expect(ledger.selfNs(Layer::kCheck) == 0 && ledger.spans(Layer::kCheck) == 1,
         "a zero-length span");
  expect(ledger.selfNs(Layer::kEngine) == 50 + 20,
         "root residuals accumulate");
  expect(ledger.totalSelfNs() == 160,
         "self times sum to the roots' durations");
}

std::vector<double> ramp(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

void tailRule() {
  TailPercentile tail = tailPercentile(ramp(648));
  expect(tail.percent == 95.0 && tail.value == 616.0,
         "648 runs: p95 (32 beyond), not p99 (6 beyond)");
  tail = tailPercentile(ramp(100));
  expect(tail.percent == 90.0 && tail.value == 90.0,
         "100 samples: p90 has exactly ten beyond");
  tail = tailPercentile(ramp(20));
  expect(tail.percent == 50.0 && tail.value == 10.0,
         "20 samples: only p50 has ten beyond");
  tail = tailPercentile(ramp(19));
  expect(tail.percent == 0.0, "19 samples: no percentile has ten beyond");
  tail = tailPercentile(ramp(10000));
  expect(tail.percent == 99.9 && tail.value == 9990.0, "10^4 samples: p99.9");
  expect(median(ramp(3)) == 2.0 && median(ramp(4)) == 2.0,
         "nearest-rank median");
}

}  // namespace

int runSelfTest() {
  g_failures = 0;
  spanArithmetic();
  tailRule();
  std::printf("harness self-test: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures;
}

}  // namespace perfbench
