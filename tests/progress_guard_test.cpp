// Focused tests for the progress guard: the engine component that
// keeps adversarial schedulers honest.  Each scenario is driven by a
// purpose-built scheduler and verified both through engine state and
// the offline checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "check/golden.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/engine.h"
#include "mac/schedulers.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb::mac {
namespace {

namespace gen = graph::gen;
using testutil::stdParams;

class SendN : public Process {
 public:
  explicit SendN(int count, NodeId who = 0) : remaining_(count), who_(who) {}
  void onWake(Context& ctx) override {
    if (ctx.id() == who_) next(ctx);
  }
  void onAck(Context& ctx, const Packet&) override { next(ctx); }

 private:
  void next(Context& ctx) {
    if (remaining_-- <= 0) return;
    Packet p;
    p.tag = remaining_;
    ctx.bcast(std::move(p));
  }
  int remaining_;
  NodeId who_;
};

TEST(ProgressGuard, ForcesExactlyOneDeliveryPerInstanceLifetime) {
  // A 2-node line under the adversary: the guard must force the
  // delivery at fprog, and the single rcv covers the rest of the
  // instance's lifetime (no further forcing).
  const auto topo = gen::identityDual(gen::line(2));
  MacEngine engine(topo, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId) -> std::unique_ptr<Process> {
                     return std::make_unique<SendN>(3);
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().bcasts, 3u);
  // One forced delivery per broadcast: 3 total, each at bcast + fprog.
  EXPECT_EQ(engine.stats().forcedRcvs, 3u);
  std::vector<Time> rcvTimes;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv) rcvTimes.push_back(rec.t);
  }
  EXPECT_EQ(rcvTimes, (std::vector<Time>{4, 36, 68}));
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, JunkCoverageSuppressesForcedRealDeliveries) {
  // Node 1 sits between broadcaster 0 (G-neighbor) and junk source 2
  // (G'-only neighbor).  When both broadcast, the adversary covers
  // node 1's obligations with junk from 2 and withholds the real
  // message until the ack.
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(3);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.finalize();
  const graph::DualGraph topo(std::move(g), std::move(gp));

  MacEngine engine(topo, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<SendN>(1, 0);
                     if (node == 2) return std::make_unique<SendN>(1, 2);
                     return std::make_unique<SendN>(0, 1);
                   },
                   1);
  engine.run();
  // Find when node 1 received the real message (instance from 0).
  Time realAt = -1;
  Time junkAt = -1;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind != sim::TraceKind::kRcv || rec.node != 1) continue;
    const NodeId sender = engine.record(rec.instance).sender;
    if (sender == 0) realAt = rec.t;
    if (sender == 2) junkAt = rec.t;
  }
  // The junk was forced at the progress deadline; the real message
  // only arrived with the ack at fack.
  EXPECT_EQ(junkAt, 4);
  EXPECT_EQ(realAt, 32);
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, CoverageExpiresWhenJunkInstanceTerminates) {
  // Same topology, but the junk source finishes fast (FastScheduler
  // semantics simulated by a custom plan is overkill — instead make
  // node 2 broadcast under the adversary too; its instance lives the
  // full fack, then terminates; node 0 keeps broadcasting, so after
  // the junk dies the guard must force again).
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(3);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.finalize();
  const graph::DualGraph topo(std::move(g), std::move(gp));

  MacEngine engine(topo, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<SendN>(4, 0);
                     if (node == 2) return std::make_unique<SendN>(1, 2);
                     return std::make_unique<SendN>(0, 1);
                   },
                   1);
  engine.run();
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
  // Node 1 must have received >= 4 messages in total: the junk one,
  // plus coverage for the later broadcasts of node 0 after the junk
  // instance terminated.
  std::size_t rcvsAt1 = 0;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv && rec.node == 1) ++rcvsAt1;
  }
  EXPECT_GE(rcvsAt1, 4u);
}

TEST(ProgressGuard, NoObligationWithoutGNeighborBroadcast) {
  // Only a G'-only neighbor broadcasts: the model owes the receiver
  // nothing, and the adversary delivers nothing before the ack.
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(3);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.finalize();
  const graph::DualGraph topo(std::move(g), std::move(gp));

  MacEngine engine(topo, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 2) return std::make_unique<SendN>(1, 2);
                     return std::make_unique<SendN>(0, node);
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().forcedRcvs, 0u);
  // Node 2 has no G-neighbors at all, so its instance acks with no
  // deliveries — and that execution is still model-compliant.
  EXPECT_TRUE(testutil::receiversOf(engine.trace(), 0).empty());
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, ZeroDurationInstancesCreateNoObligation) {
  // Instant broadcasts (plan ack at the bcast tick) never open a
  // window longer than fprog.
  class InstantScheduler : public Scheduler {
   public:
    DeliveryPlan planBcast(const Instance& inst) override {
      DeliveryPlan plan;
      plan.ackAt = inst.bcastAt;
      for (NodeId j : engine_->topology().g().neighbors(inst.sender)) {
        plan.deliveries.push_back({j, inst.bcastAt});
      }
      return plan;
    }
  };
  const auto topo = gen::identityDual(gen::line(3));
  MacEngine engine(topo, stdParams(4, 32),
                   std::make_unique<InstantScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     return std::make_unique<SendN>(node == 0 ? 5 : 0, node);
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().forcedRcvs, 0u);
  EXPECT_EQ(engine.now(), 0);  // everything happened at t = 0
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, AbortCancelsTheObligation) {
  // Enhanced model: a broadcast aborted before fprog elapses leaves
  // nothing to force.
  class AbortQuick : public Process {
   public:
    void onWake(Context& ctx) override {
      if (ctx.id() != 0) return;
      Packet p;
      ctx.bcast(std::move(p));
      ctx.setTimerAfter(2);  // abort before the fprog=4 deadline
    }
    void onTimer(Context& ctx, TimerId) override {
      if (ctx.busy()) ctx.abortBcast();
    }
  };
  auto params = stdParams(4, 32);
  params.variant = ModelVariant::kEnhanced;
  const auto topo = gen::identityDual(gen::line(2));
  MacEngine engine(topo, params, std::make_unique<AdversarialScheduler>(),
                   [](NodeId) { return std::make_unique<AbortQuick>(); }, 1);
  engine.run();
  EXPECT_EQ(engine.stats().forcedRcvs, 0u);
  EXPECT_EQ(engine.stats().rcvs, 0u);
  const auto check = checkTrace(topo, params, engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

// Covers of instances that stay live beyond Fack must keep covering.
// With plan validation off, a scheduler may keep an instance live past
// Fack: here even senders ack at bcast + 2 Fack, odd senders almost at
// once, every G delivery waits for the ack, and the guard's forced
// deliveries come from the instance that terminates first.  A guard
// that let a receive's cover lapse Fack after it — or lost track of
// which covering instances are still live — would surface an
// uncovered window start whose deadline has already passed.  The run
// must drain cleanly, with the over-long acks as the only axiom the
// checker flags.
TEST(ProgressGuard, PruningKeepsCoversOfInstancesLiveBeyondFack) {
  class SkewedAcks : public Scheduler {
   public:
    DeliveryPlan planBcast(const Instance& inst) override {
      const MacParams& p = engine_->params();
      DeliveryPlan plan;
      plan.ackAt = inst.bcastAt +
                   (inst.sender % 2 == 0 ? 2 * p.fack : p.fprog + 1);
      for (NodeId j : engine_->topology().g().neighbors(inst.sender)) {
        plan.deliveries.push_back({j, plan.ackAt});
      }
      return plan;
    }
    InstanceId pickProgressDelivery(
        NodeId, const std::vector<InstanceId>& candidates) override {
      // Candidates are sorted by id, so min_element keeps the oldest
      // among equal planned acks.
      return *std::min_element(
          candidates.begin(), candidates.end(),
          [this](InstanceId a, InstanceId b) {
            return engine_->record(a).plannedAck <
                   engine_->record(b).plannedAck;
          });
    }
  };

  constexpr NodeId kN = 40;
  graph::Graph clique(kN);
  for (NodeId u = 0; u < kN; ++u) {
    for (NodeId v = u + 1; v < kN; ++v) clique.addEdge(u, v);
  }
  clique.finalize();
  const auto topo = gen::identityDual(std::move(clique));

  core::RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler.factory = [] { return std::make_unique<SkewedAcks>(); };
  config.scheduler.validatePlans = false;
  config.limits.stopOnSolve = false;
  core::Experiment experiment(topo, core::bmmbProtocol(),
                              core::workloadRoundRobin(20, kN), config);
  core::RunResult result;
  ASSERT_NO_THROW(result = experiment.run());
  EXPECT_EQ(result.status, sim::RunStatus::kDrained);
  EXPECT_TRUE(result.solved);

  const auto check = checkTrace(topo, config.mac, experiment.trace());
  EXPECT_FALSE(check.ok);
  for (const Violation& v : check.records) {
    EXPECT_EQ(v.axiom, "ack-bound") << v.detail;
  }
}

// --- epoch boundaries --------------------------------------------------------
//
// A boundary re-evaluates exactly the receivers whose neighborhood it
// touched.  Node 0 broadcasts once at t = 0 under the adversary
// (deliveries held back to the ack at 32), so every receive below is
// one the guard forced.

/// Receive times at `node`, in trace order.
std::vector<Time> rcvTimesAt(const MacEngine& engine, NodeId node) {
  std::vector<Time> times;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv && rec.node == node) {
      times.push_back(rec.t);
    }
  }
  return times;
}

MacEngine::ProcessFactory node0SendsOnce() {
  return [](NodeId) -> std::unique_ptr<Process> {
    return std::make_unique<SendN>(1);
  };
}

TEST(ProgressGuard, LinkDroppedBeforeTheDeadlineStandsTheGuardDown) {
  const auto base = gen::identityDual(gen::star(3));
  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {2, {{graph::TopologyEvent::Kind::kEdgeDown, 0, 2, false}}});
  const graph::TopologyView view(base, dynamics);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(), node0SendsOnce(),
                   1);
  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(rcvTimesAt(engine, 1), (std::vector<Time>{4}));
  EXPECT_TRUE(rcvTimesAt(engine, 2).empty());
  EXPECT_EQ(engine.stats().forcedRcvs, 1u);
  EXPECT_EQ(engine.stats().acks, 1u);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, LinkThatComesUpObligesOnlyFromItsLiveSince) {
  // Node 2 starts isolated; its E link to the broadcaster appears at
  // t = 10, so its deadline is 10 + Fprog, not bcast + Fprog.
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  const auto base = gen::identityDual(std::move(g));
  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {10, {{graph::TopologyEvent::Kind::kEdgeUp, 0, 2, true}}});
  const graph::TopologyView view(base, dynamics);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(), node0SendsOnce(),
                   1);
  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(rcvTimesAt(engine, 1), (std::vector<Time>{4}));
  EXPECT_EQ(rcvTimesAt(engine, 2), (std::vector<Time>{14}));
  EXPECT_EQ(engine.stats().forcedRcvs, 2u);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(ProgressGuard, RecoveredReceiverIsReObligedFromItsRecovery) {
  // Node 2 crashes before its deadline (t = 4) and recovers at t = 6:
  // the crash stands its deadline down, the recovery re-arms it at
  // 6 + Fprog.
  const auto base = gen::identityDual(gen::star(3));
  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {2, {{graph::TopologyEvent::Kind::kNodeCrash, 2, kNoNode, false}}});
  dynamics.epochs.push_back(
      {6, {{graph::TopologyEvent::Kind::kNodeRecover, 2, kNoNode, false}}});
  const graph::TopologyView view(base, dynamics);
  MacEngine engine(view, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(), node0SendsOnce(),
                   1);
  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(rcvTimesAt(engine, 1), (std::vector<Time>{4}));
  EXPECT_EQ(rcvTimesAt(engine, 2), (std::vector<Time>{10}));
  EXPECT_EQ(engine.stats().forcedRcvs, 2u);
  const auto check = checkTrace(view, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

// Honest runs whose receivers hear more than 128 receives on average,
// each receive a cover the guard must account for, pinned to trace
// hashes and forced-delivery counts recorded with a guard that rebuilt
// its need set on every evaluation and kept a list of covers.
TEST(ProgressGuard, DenseReceiversKeepTheirTracesAcrossPruning) {
  struct Pin {
    core::SchedulerKind scheduler;
    bool drift;
    std::uint64_t traceHash;
    std::uint64_t forcedRcvs;
  };
  const Pin pins[] = {
      {core::SchedulerKind::kAdversarial, false, 0x728cab58e443b750ull, 768},
      {core::SchedulerKind::kAdversarial, true, 0x80f2a0bb5a958bebull, 768},
      {core::SchedulerKind::kRandom, false, 0x02181c0aa197b37eull, 0},
      {core::SchedulerKind::kRandom, true, 0xbc7bf381178ef42full, 0},
  };
  for (const Pin& pin : pins) {
    check::FuzzCase c;
    c.topology = check::TopologyFamily::kGreyZoneField;
    c.n = 96;
    c.greyAvgDegree = 40.0;
    c.greyP = 0.6;
    c.k = 8;
    c.workload = check::WorkloadShape::kRoundRobin;
    c.scheduler = pin.scheduler;
    c.mac = stdParams(4, 32);
    if (pin.drift) {
      c.dynamics.kind = core::DynamicsSpec::Kind::kGreyDrift;
      c.dynamics.epochs = 4;
      c.dynamics.period = 48;
      c.dynamics.churn = 0.3;
    }
    c.maxTime = check::bmmbFuzzTimeBudget(c.n, c.k, c.mac.fack);
    c.seed = 7;
    const std::string what = check::toString(c);
    const check::ExecutionOutcome out = check::runCase(c);
    ASSERT_TRUE(out.error.empty()) << what << ": " << out.error;
    EXPECT_TRUE(out.report.ok) << what << ": " << out.report.summary();
    EXPECT_TRUE(out.result.solved) << what;
    EXPECT_GT(out.result.stats.rcvs, 128u * static_cast<std::uint64_t>(c.n))
        << what;
    EXPECT_EQ(out.traceHash, pin.traceHash) << what;
    EXPECT_EQ(out.result.stats.forcedRcvs, pin.forcedRcvs) << what;
  }
}

TEST(ProgressGuard, AbortGraceReceiveCoversUpToTheAbort) {
  // Node 2 (a G'-only neighbor of receiver 1) broadcasts A at t = 0 and
  // aborts it at 4; A's delivery to node 1, planned for 6, lands in the
  // epsAbort grace window and covers [6 - Fprog, 4 - 1] = [2, 3].  Node
  // 0 (a G-neighbor) broadcasts B at 2 with its delivery held back to
  // the ack, so node 1 is owed progress from 2.  Without the grace
  // cover the guard would force at 2 + Fprog = 6; with it, the first
  // uncovered start is 4 and B is forced at 8.
  class GraceScheduler : public Scheduler {
   public:
    DeliveryPlan planBcast(const Instance& inst) override {
      DeliveryPlan plan;
      plan.ackAt = inst.bcastAt + 32;
      plan.deliveries.push_back(
          {1, inst.sender == 2 ? inst.bcastAt + 6 : plan.ackAt});
      return plan;
    }
  };
  class Script : public Process {
   public:
    void onWake(Context& ctx) override {
      if (ctx.id() == 2) ctx.bcast(Packet{});
      if (ctx.id() != 1) ctx.setTimerAt(ctx.id() == 2 ? 4 : 2);
    }
    void onTimer(Context& ctx, TimerId) override {
      if (ctx.id() == 2) ctx.abortBcast();
      if (ctx.id() == 0) ctx.bcast(Packet{});
    }
  };
  graph::Graph g(3);
  g.addEdge(0, 1);
  g.finalize();
  graph::Graph gp(3);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.finalize();
  const graph::DualGraph topo(std::move(g), std::move(gp));
  auto params = stdParams(4, 32);
  params.variant = ModelVariant::kEnhanced;
  params.epsAbort = 3;
  MacEngine engine(topo, params, std::make_unique<GraceScheduler>(),
                   [](NodeId) { return std::make_unique<Script>(); }, 1);
  engine.run();
  EXPECT_EQ(rcvTimesAt(engine, 1), (std::vector<Time>{6, 8}));
  EXPECT_EQ(engine.stats().forcedRcvs, 1u);
  EXPECT_EQ(engine.stats().aborts, 1u);
  const auto check = checkTrace(topo, params, engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

// Receives whose instance had already aborted (epsAbort grace receives).
std::size_t graceReceives(const sim::Trace& trace) {
  std::vector<bool> aborted;
  std::size_t count = 0;
  for (const sim::TraceRecord& rec : trace.records()) {
    const auto id = static_cast<std::size_t>(rec.instance);
    if (rec.kind == sim::TraceKind::kAbort) {
      if (aborted.size() <= id) aborted.resize(id + 1, false);
      aborted[id] = true;
    }
    if (rec.kind == sim::TraceKind::kRcv && id < aborted.size() &&
        aborted[id]) {
      ++count;
    }
  }
  return count;
}

// Enhanced-model FMMB receives from instances after their abort: the
// one path on which a receive ends a cover at the instance's
// termination rather than covering from now on.  The random-scheduler
// runs (epsAbort 3) are pinned to trace hashes and forced-delivery
// counts recorded with a guard that kept every receive's cover in a
// per-receiver list.  They force nothing, so a grace cover there only
// moves deadlines that never fire.  The adversarial runs also force:
// the adversary plans every G delivery at bcast + Fack = bcast + 8,
// after FMMB's abort at the round end (bcast + Fprog + 1), so with
// epsAbort = Fack - Fprog - 1 those deliveries land in the grace
// window, while the guard forces deliveries inside the round.  Each
// such grace cover is the single tick termAt - 1, so a guard that
// ended it at termAt would cover the next round's first need point.
// Their pins were recorded with the guard that keeps a live-cover
// count and one dead-cover end.
TEST(ProgressGuard, AbortGraceReceivesKeepTheirTraces) {
  struct Pin {
    core::SchedulerKind scheduler;
    Time fack;
    Time epsAbort;
    bool drift;
    std::uint64_t traceHash;
    std::uint64_t forcedRcvs;
  };
  constexpr core::SchedulerKind kRandom = core::SchedulerKind::kRandom;
  constexpr core::SchedulerKind kAdversarial =
      core::SchedulerKind::kAdversarial;
  const Pin pins[] = {
      {kRandom, 64, 3, false, 0x36e402332603239full, 0},
      {kRandom, 64, 3, true, 0x454aab29271cead5ull, 0},
      {kAdversarial, 8, 3, false, 0xfbec9479d3a3ea62ull, 4064},
      {kAdversarial, 8, 3, true, 0x13c1772f2de12d7dull, 4064},
  };
  for (const Pin& pin : pins) {
    const std::string what = core::toString(pin.scheduler) +
                             (pin.drift ? " drift" : " static");
    Rng rng(9);
    const graph::DualGraph base = gen::greyZoneField(24, 6.0, 1.5, 0.4, rng);
    core::RunConfig config;
    config.scheduler = pin.scheduler;
    config.seed = 21;
    config.limits.maxTime = 100'000;
    if (pin.drift) {
      config.dynamics.kind = core::DynamicsSpec::Kind::kGreyDrift;
      config.dynamics.epochs = 4;
      config.dynamics.period = 24;
      config.dynamics.churn = 0.5;
    }
    config.mac = testutil::enhParams(4, pin.fack);
    config.mac.epsAbort = pin.epsAbort;
    core::Experiment experiment(
        base, core::fmmbProtocol(core::FmmbParams::make(base.n())),
        core::workloadRoundRobin(4, base.n()), config);
    const core::RunResult result = experiment.run();
    ASSERT_TRUE(result.solved) << what;

    EXPECT_GT(graceReceives(experiment.trace()), 0u) << what;
    const auto check = checkTrace(experiment.view(), config.mac,
                                  experiment.trace(), result.endTime);
    EXPECT_TRUE(check.ok) << what << ": " << check.summary();
    EXPECT_EQ(check::traceHash(experiment.trace()), pin.traceHash) << what;
    EXPECT_EQ(result.stats.forcedRcvs, pin.forcedRcvs) << what;
    if (pin.scheduler == kAdversarial) {
      EXPECT_GT(result.stats.forcedRcvs, 0u) << what;
    }
  }
}

// FMMB's grace receives cannot show what their covers reach: its
// rounds are lock-step, so a round's instances all abort at the tick
// the next round's bcasts start, and a grace cover, which ends at
// termAt - 1, lies before every need window still held.  Here each
// node instead aborts its broadcast after a seeded 1..2 Fprog ticks,
// so aborts fall between other nodes' bcasts.  The adversary plans
// every G delivery at bcast + Fack = bcast + 8; with Fprog 4 and
// epsAbort = Fack - Fprog - 1 = 3 that lands in the grace window of a
// broadcast aborted 5 to 7 ticks in, where its cover [bcast + 4,
// termAt - 1] is not empty, and the guard forces deliveries too.  The
// pins were recorded with a build of the guard that keeps a live-cover
// count and one dead-cover end.
TEST(ProgressGuard, StaggeredAbortGraceCoversKeepTheirTraces) {
  class StaggeredAborter : public Process {
   public:
    void onWake(Context& ctx) override { next(ctx); }
    void onTimer(Context& ctx, TimerId) override {
      if (ctx.busy()) ctx.abortBcast();
      next(ctx);
    }

   private:
    static void next(Context& ctx) {
      if (ctx.now() >= 2000) return;
      ctx.bcast(Packet{});
      ctx.setTimerAfter(ctx.rng().uniformInt(1, 2 * ctx.fprog()));
    }
  };
  struct Pin {
    bool drift;
    std::uint64_t traceHash;
    std::uint64_t forcedRcvs;
  };
  const Pin pins[] = {
      {false, 0x431464e3e230ad62ull, 4785},
      {true, 0x5b3a3d760250a63cull, 4979},
  };
  for (const Pin& pin : pins) {
    const std::string what = pin.drift ? "drift" : "static";
    Rng rng(9);
    const graph::DualGraph base = gen::greyZoneField(24, 6.0, 1.5, 0.4, rng);
    core::DynamicsSpec dynamics;
    if (pin.drift) {
      dynamics.kind = core::DynamicsSpec::Kind::kGreyDrift;
      dynamics.epochs = 4;
      dynamics.period = 24;
      dynamics.churn = 0.5;
    }
    const graph::TopologyView view(base, dynamics.build(base, 21));
    MacParams params = testutil::enhParams(4, 8);
    params.epsAbort = 3;
    MacEngine engine(
        view, params, std::make_unique<AdversarialScheduler>(),
        [](NodeId) { return std::make_unique<StaggeredAborter>(); }, 21);
    EXPECT_EQ(engine.run(), sim::RunStatus::kDrained) << what;
    EXPECT_GT(graceReceives(engine.trace()), 0u) << what;
    EXPECT_GT(engine.stats().forcedRcvs, 0u) << what;
    const auto check = checkTrace(view, params, engine.trace());
    EXPECT_TRUE(check.ok) << what << ": " << check.summary();
    EXPECT_EQ(check::traceHash(engine.trace()), pin.traceHash) << what;
    EXPECT_EQ(engine.stats().forcedRcvs, pin.forcedRcvs) << what;
  }
}

}  // namespace
}  // namespace ammb::mac
