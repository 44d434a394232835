// Unit tests for the streaming model checker, driven through
// checkTrace(): every axiom's violation is detected on hand-built
// traces, real engine traces pass, and the checker's live state stays
// flat however long the stream runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb::mac {
namespace {

namespace gen = graph::gen;
using sim::Trace;
using sim::TraceKind;
using testutil::stdParams;

// Convention for hand-built traces: a line 0-1-2 with G' = G, fprog 4,
// fack 32 unless stated otherwise.

Trace validSingleHop() {
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({4, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({32, TraceKind::kAck, 0, 0, kNoMsg});
  return t;
}

TEST(TraceChecker, AcceptsValidExecution) {
  const auto topo = gen::identityDual(gen::line(2));
  const auto res = checkTrace(topo, stdParams(), validSingleHop());
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(TraceChecker, DetectsDoubleBcast) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kBcast, 0, 1, kNoMsg});  // no intervening ack
  const auto res = checkTrace(topo, stdParams(), t);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("well-formedness"), std::string::npos);
}

TEST(TraceChecker, DetectsDeliveryOutsideGPrime) {
  const auto topo = gen::identityDual(gen::line(3));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 2, 0, kNoMsg});  // node 2 is 2 hops away
  t.add({2, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({3, TraceKind::kAck, 0, 0, kNoMsg});
  EXPECT_FALSE(checkTrace(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsDuplicateDelivery) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({2, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({3, TraceKind::kAck, 0, 0, kNoMsg});
  EXPECT_FALSE(checkTrace(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsRcvAfterAck) {
  Rng rng(1);
  const auto topo = gen::withArbitraryNoise(gen::line(3), 1, rng);
  // Find the unreliable pair so the extra delivery is inside G'.
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({2, TraceKind::kAck, 0, 0, kNoMsg});
  t.add({3, TraceKind::kRcv, 1, 0, kNoMsg});  // after ack AND duplicate
  EXPECT_FALSE(checkTrace(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsAckBeforeGNeighborReceives) {
  const auto topo = gen::identityDual(gen::star(3));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({2, TraceKind::kAck, 0, 0, kNoMsg});  // node 2 never received
  EXPECT_FALSE(checkTrace(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsAckBoundViolation) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({4, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({33, TraceKind::kAck, 0, 0, kNoMsg});  // fack = 32
  EXPECT_FALSE(checkTrace(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsMissingTermination) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({4, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({100, TraceKind::kWake, 1, kNoInstance, kNoMsg});  // horizon marker
  EXPECT_FALSE(checkTrace(topo, stdParams(), t).ok);
  // Within the Fack budget the open instance is fine.
  Trace young;
  young.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  young.add({4, TraceKind::kRcv, 1, 0, kNoMsg});
  EXPECT_TRUE(checkTrace(topo, stdParams(), young, /*horizon=*/10).ok);
}

TEST(TraceChecker, DetectsDoubleTermination) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t = validSingleHop();
  t.add({32, TraceKind::kAck, 0, 0, kNoMsg});
  EXPECT_FALSE(checkTrace(topo, stdParams(), t).ok);
}

TEST(TraceChecker, DetectsProgressViolation) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({32, TraceKind::kRcv, 1, 0, kNoMsg});  // first rcv at fack
  t.add({32, TraceKind::kAck, 0, 0, kNoMsg});
  // Window [0, 5] has a broadcasting G-neighbor and no rcv: violation.
  const auto res = checkTrace(topo, stdParams(), t);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("progress"), std::string::npos);
}

TEST(TraceChecker, ProgressSatisfiedByEarlyRcvFromLiveInstance) {
  const auto topo = gen::identityDual(gen::line(2));
  // One rcv at fprog covers the rest of the instance's lifetime: the
  // delivering instance stays unterminated, so every later window still
  // contains a contending rcv "by its end".
  const auto res = checkTrace(topo, stdParams(), validSingleHop());
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(TraceChecker, ProgressCoverageEndsWhenCoveringInstanceTerminates) {
  Rng rng(1);
  // Line 0-1 plus a G'-only edge between 2 and 1: instance from node 2
  // covers node 1's obligations only while it lives.
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(3);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.finalize();
  const graph::DualGraph topo(std::move(g), std::move(gp));

  auto params = stdParams(4, 64);
  Trace t;
  t.add({0, TraceKind::kBcast, 2, 1, kNoMsg});   // junk instance from 2
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});   // real instance from 0
  t.add({2, TraceKind::kRcv, 1, 1, kNoMsg});     // junk delivered early
  t.add({10, TraceKind::kAck, 2, 1, kNoMsg});    // junk terminates at 10
  t.add({64, TraceKind::kRcv, 1, 0, kNoMsg});    // real delivery at fack
  t.add({64, TraceKind::kAck, 0, 0, kNoMsg});
  // Coverage from the junk rcv ends at t=9; windows starting in
  // [10, 64-4-1] are uncovered: violation.
  const auto res = checkTrace(topo, params, t);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("progress"), std::string::npos);

  // A second junk instance covering the tail fixes it.
  Trace t2;
  t2.add({0, TraceKind::kBcast, 2, 1, kNoMsg});
  t2.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t2.add({2, TraceKind::kRcv, 1, 1, kNoMsg});
  t2.add({10, TraceKind::kAck, 2, 1, kNoMsg});
  t2.add({10, TraceKind::kBcast, 2, 2, kNoMsg});
  t2.add({12, TraceKind::kRcv, 1, 2, kNoMsg});
  t2.add({64, TraceKind::kRcv, 1, 0, kNoMsg});
  t2.add({64, TraceKind::kAck, 0, 0, kNoMsg});
  t2.add({74, TraceKind::kAck, 2, 2, kNoMsg});
  const auto res2 = checkTrace(topo, params, t2);
  EXPECT_TRUE(res2.ok) << res2.summary();
}

TEST(TraceChecker, AbortAllowsGracePeriodDeliveries) {
  const auto topo = gen::identityDual(gen::line(2));
  auto params = stdParams();
  params.epsAbort = 2;
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kAbort, 0, 0, kNoMsg});
  t.add({3, TraceKind::kRcv, 1, 0, kNoMsg});  // within epsAbort
  EXPECT_TRUE(checkTrace(topo, params, t).ok);
  Trace late;
  late.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  late.add({1, TraceKind::kAbort, 0, 0, kNoMsg});
  late.add({4, TraceKind::kRcv, 1, 0, kNoMsg});  // beyond epsAbort
  EXPECT_FALSE(checkTrace(topo, params, late).ok);
}

TEST(TraceChecker, AbortedInstanceNeedsNoAck) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kAbort, 0, 0, kNoMsg});
  EXPECT_TRUE(checkTrace(topo, stdParams(), t, /*horizon=*/100).ok);
}

TEST(TraceChecker, RcvForUnknownInstance) {
  const auto topo = gen::identityDual(gen::line(2));
  Trace t;
  t.add({1, TraceKind::kRcv, 1, 42, kNoMsg});
  EXPECT_FALSE(checkTrace(topo, stdParams(), t).ok);
}

TEST(TraceChecker, RcvExactlyAtTheEpsAbortBoundary) {
  // The grace period is inclusive: a receive at termAt + epsAbort is
  // the last legal instant, one tick later is the first illegal one.
  const auto topo = gen::identityDual(gen::line(2));
  auto params = stdParams();
  params.epsAbort = 3;
  Trace boundary;
  boundary.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  boundary.add({2, TraceKind::kAbort, 0, 0, kNoMsg});
  boundary.add({5, TraceKind::kRcv, 1, 0, kNoMsg});  // t = termAt + epsAbort
  const auto ok = checkTrace(topo, params, boundary);
  EXPECT_TRUE(ok.ok) << ok.summary();

  Trace past;
  past.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  past.add({2, TraceKind::kAbort, 0, 0, kNoMsg});
  past.add({6, TraceKind::kRcv, 1, 0, kNoMsg});  // one tick beyond
  const auto bad = checkTrace(topo, params, past);
  ASSERT_FALSE(bad.ok);
  ASSERT_EQ(bad.records.size(), 1u);
  EXPECT_EQ(bad.records[0].axiom, "rcv-after-abort");
  EXPECT_EQ(bad.records[0].instance, 0);
  EXPECT_EQ(bad.records[0].node, 1);
  EXPECT_EQ(bad.records[0].time, 6);
}

TEST(TraceChecker, InFlightInstanceWithExpiredFackBudgetAtHorizon) {
  const auto topo = gen::identityDual(gen::line(2));
  const auto params = stdParams(4, 32);
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({4, TraceKind::kRcv, 1, 0, kNoMsg});  // progress satisfied

  // Budget expires exactly at the horizon: still legal (the ack may
  // land on the closing tick of the observation window).
  EXPECT_TRUE(checkTrace(topo, params, t, /*horizon=*/32).ok);

  // One tick past the budget: the instance can no longer terminate in
  // time — a termination violation with the expiry timestamp.
  const auto res = checkTrace(topo, params, t, /*horizon=*/33);
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].axiom, "termination");
  EXPECT_EQ(res.records[0].instance, 0);
  EXPECT_EQ(res.records[0].node, 0);
  EXPECT_EQ(res.records[0].time, 32);  // bcastAt + Fack
  EXPECT_NE(res.summary().find("never terminated"), std::string::npos);
}

TEST(TraceChecker, NeverHorizonOnAnEmptyTrace) {
  // kTimeNever horizon + no records: the window collapses to t = 0 and
  // the verdict is a clean pass, not an out-of-range access.
  const auto topo = gen::identityDual(gen::line(3));
  const Trace empty;
  const auto res = checkTrace(topo, stdParams(), empty, kTimeNever);
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.violations.empty());
  EXPECT_TRUE(res.records.empty());
  EXPECT_EQ(res.summary(), "ok");
}

TEST(TraceChecker, SummaryIsDefensiveWithoutRecordedViolations) {
  // A result marked failed with no recorded violations (e.g. built by
  // an aggregator) must not touch violations.front().
  CheckResult result;
  result.ok = false;
  EXPECT_EQ(result.summary(), "no violations recorded");
  result.violations.push_back("boom");
  EXPECT_EQ(result.summary(), "boom");
  result.ok = true;
  EXPECT_EQ(result.summary(), "ok");
}

TEST(TraceChecker, StructuredRecordsParallelTheMessages) {
  const auto topo = gen::identityDual(gen::line(3));
  Trace t;
  t.add({0, TraceKind::kBcast, 0, 0, kNoMsg});
  t.add({1, TraceKind::kRcv, 2, 0, kNoMsg});  // outside G'
  t.add({2, TraceKind::kRcv, 1, 0, kNoMsg});
  t.add({40, TraceKind::kAck, 0, 0, kNoMsg});  // past Fack = 32
  const auto res = checkTrace(topo, stdParams(), t);
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.records.size(), res.violations.size());
  bool sawOffGPrime = false;
  bool sawAckBound = false;
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    EXPECT_EQ(res.records[i].detail, res.violations[i]);
    if (res.records[i].axiom == "rcv-off-gprime") {
      sawOffGPrime = true;
      EXPECT_EQ(res.records[i].node, 2);
      EXPECT_EQ(res.records[i].time, 1);
    }
    if (res.records[i].axiom == "ack-bound") {
      sawAckBound = true;
      EXPECT_EQ(res.records[i].node, 0);
      EXPECT_EQ(res.records[i].time, 40);
    }
  }
  EXPECT_TRUE(sawOffGPrime);
  EXPECT_TRUE(sawAckBound);
}

// Separated bursts on the line 0-1-2: every 100 ticks node 0 bcasts,
// node 1 receives `rcvAt` ticks later and the ack lands at +32.  Each
// burst owes receiver 1 one need span and one cover, which a checker
// holding every interval until finish() would keep.
std::vector<sim::TraceRecord> burstStream(int bursts, Time rcvAt) {
  std::vector<sim::TraceRecord> records;
  for (int b = 0; b < bursts; ++b) {
    const Time t = 100 * static_cast<Time>(b);
    records.push_back({t, TraceKind::kBcast, 0, b, kNoMsg});
    records.push_back({t + rcvAt, TraceKind::kRcv, 1, b, kNoMsg});
    records.push_back({t + 32, TraceKind::kAck, 0, b, kNoMsg});
  }
  return records;
}

/// Feeds `records` and returns the checker's peak live state (each
/// field's own maximum over the stream) and its verdict.
std::pair<TraceChecker::LiveState, CheckResult> peakLiveState(
    const graph::TopologyView& view,
    const std::vector<sim::TraceRecord>& records) {
  TraceChecker checker(view, stdParams());
  TraceChecker::LiveState peak;
  for (const sim::TraceRecord& r : records) {
    checker.feed(r);
    const TraceChecker::LiveState now = checker.liveState();
    peak.instances = std::max(peak.instances, now.instances);
    peak.decidedReceivers =
        std::max(peak.decidedReceivers, now.decidedReceivers);
    peak.intervals = std::max(peak.intervals, now.intervals);
  }
  return {peak, checker.finish()};
}

TEST(TraceChecker, LiveStateDoesNotGrowWithTheStream) {
  const auto topo = gen::identityDual(gen::line(3));
  const graph::TopologyView view(topo);
  constexpr int kBursts = 40;

  // Clean bursts: the receive at +4 covers every window.
  const auto [shortPeak, shortResult] =
      peakLiveState(view, burstStream(kBursts, 4));
  const auto [longPeak, longResult] =
      peakLiveState(view, burstStream(10 * kBursts, 4));
  EXPECT_TRUE(shortResult.ok) << shortResult.summary();
  EXPECT_TRUE(longResult.ok) << longResult.summary();
  EXPECT_EQ(longPeak.instances, shortPeak.instances);
  EXPECT_EQ(longPeak.intervals, shortPeak.intervals);
  EXPECT_LE(longPeak.instances, 2u);
  EXPECT_LT(longPeak.intervals, static_cast<std::size_t>(kBursts));
  EXPECT_EQ(longPeak.decidedReceivers, 0u);

  // Late receives at +32 leave [t, t + 27] uncovered in every burst.
  // Receiver 1's verdict is final once the stream passes the first
  // burst; it is decided mid-stream, its intervals dropped, and the
  // result still equals the offline reference's.
  const std::vector<sim::TraceRecord> late = burstStream(10 * kBursts, 32);
  const auto [latePeak, lateResult] = peakLiveState(view, late);
  EXPECT_EQ(latePeak.decidedReceivers, 1u);
  EXPECT_LE(latePeak.intervals, longPeak.intervals);
  Trace lateTrace;
  for (const sim::TraceRecord& r : late) lateTrace.add(r);
  const CheckResult offline = checkTraceOffline(view, stdParams(), lateTrace);
  ASSERT_FALSE(lateResult.ok);
  EXPECT_EQ(lateResult.violations, offline.violations);
  ASSERT_EQ(lateResult.records.size(), 1u);
  EXPECT_EQ(lateResult.records[0].axiom, "progress-bound");
  EXPECT_EQ(lateResult.records[0].node, 1);
  EXPECT_EQ(lateResult.records[0].time, 0);
}

// Records out of time order are outside the checker's contract: its
// verdict may differ from the offline reference's, but it must stay in
// bounds (the sanitizer build checks that) and return a well-formed
// result.
TEST(TraceChecker, OutOfOrderRecordsStayInBounds) {
  const auto topo = gen::identityDual(gen::line(3));
  const graph::TopologyView view(topo);
  std::vector<sim::TraceRecord> records = burstStream(40, 32);
  Rng rng(3);
  std::shuffle(records.begin(), records.end(), rng.engine());
  Trace shuffled;
  for (const sim::TraceRecord& r : records) shuffled.add(r);
  const CheckResult res = checkTrace(view, stdParams(), shuffled);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.records.size(), res.violations.size());
}

}  // namespace
}  // namespace ammb::mac
