// Unit tests for the scheduler family: plan shapes and progress-pick
// preferences, probed directly through a single-broadcast harness.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "mac/engine.h"
#include "mac/schedulers.h"
#include "test_util.h"

namespace ammb::mac {
namespace {

namespace gen = graph::gen;
using testutil::receiversOf;
using testutil::stdParams;

class OneShot : public Process {
 public:
  void onWake(Context& ctx) override {
    if (ctx.id() != 0) return;
    Packet p;
    p.msgs = {0};
    ctx.bcast(std::move(p));
  }
};

MacEngine::ProcessFactory oneShotFactory() {
  return [](NodeId) { return std::make_unique<OneShot>(); };
}

/// Runs node 0 broadcasting once under `scheduler` on a line with one
/// arbitrary G'-edge from 0 to 3, and returns the engine for
/// inspection.
std::unique_ptr<MacEngine> runOneShot(std::unique_ptr<Scheduler> scheduler,
                                      const graph::DualGraph& topo) {
  auto engine = std::make_unique<MacEngine>(
      topo, stdParams(4, 32), std::move(scheduler), oneShotFactory(), 1);
  engine->run();
  return engine;
}

graph::DualGraph lineWithSkip() {
  graph::Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(2, 3);
  g.finalize();
  graph::Graph gp(4);
  gp.addEdge(0, 1);
  gp.addEdge(1, 2);
  gp.addEdge(2, 3);
  gp.addEdge(0, 3);  // unreliable long edge
  gp.finalize();
  return {std::move(g), std::move(gp)};
}

TEST(FastScheduler, DeliversEverywhereImmediately) {
  const auto topo = lineWithSkip();
  const auto engine = runOneShot(std::make_unique<FastScheduler>(), topo);
  // G-neighbor 1 and G'-only neighbor 3 both receive at +1.
  EXPECT_EQ(receiversOf(engine->trace(), 0), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(engine->record(0).termAt, 1);
}

TEST(FastScheduler, GPrimeDeliveryCanBeDisabled) {
  FastScheduler::Options opts;
  opts.deliverGPrime = false;
  const auto topo = lineWithSkip();
  const auto engine =
      runOneShot(std::make_unique<FastScheduler>(opts), topo);
  EXPECT_EQ(receiversOf(engine->trace(), 0), (std::vector<NodeId>{1}));
}

TEST(SlowAckScheduler, DeliversAtFprogAcksAtFack) {
  const auto topo = lineWithSkip();
  const auto engine = runOneShot(std::make_unique<SlowAckScheduler>(), topo);
  // No unreliable deliveries.
  EXPECT_EQ(receiversOf(engine->trace(), 0), (std::vector<NodeId>{1}));
  EXPECT_EQ(engine->record(0).termAt, 32);
  // The single rcv happened at bcast + fprog.
  for (const auto& rec : engine->trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv) EXPECT_EQ(rec.t, 4);
  }
}

TEST(RandomScheduler, StaysWithinLegalWindows) {
  const auto topo = lineWithSkip();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto engine = std::make_unique<MacEngine>(
        topo, stdParams(4, 32), std::make_unique<RandomScheduler>(),
        oneShotFactory(), seed);
    engine->run();
    const Time termAt = engine->record(0).termAt;
    EXPECT_LE(termAt, 32);
    for (const auto& rec : engine->trace().records()) {
      if (rec.kind != sim::TraceKind::kRcv) continue;
      EXPECT_GE(rec.t, 0);
      EXPECT_LE(rec.t, termAt);
      if (rec.node == 1) EXPECT_LE(rec.t, 4);  // G-delivery within fprog
    }
  }
}

TEST(RandomScheduler, UnreliableProbabilityZeroAndOne) {
  const auto topo = lineWithSkip();
  RandomScheduler::Options never;
  never.pUnreliable = 0.0;
  auto e1 = runOneShot(std::make_unique<RandomScheduler>(never), topo);
  EXPECT_EQ(receiversOf(e1->trace(), 0), (std::vector<NodeId>{1}));

  RandomScheduler::Options always;
  always.pUnreliable = 1.0;
  auto e2 = runOneShot(std::make_unique<RandomScheduler>(always), topo);
  std::vector<NodeId> receivers = receiversOf(e2->trace(), 0);
  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<NodeId>{1, 3}));

  RandomScheduler::Options bad;
  bad.pUnreliable = 1.5;
  EXPECT_THROW(RandomScheduler{bad}, Error);
}

TEST(AdversarialScheduler, DelaysToTheLastLegalInstant) {
  const auto topo = lineWithSkip();
  const auto engine =
      runOneShot(std::make_unique<AdversarialScheduler>(), topo);
  EXPECT_EQ(engine->record(0).termAt, 32);
  // Node 1's delivery was forced by the guard at exactly fprog —
  // everything later stays covered by the live instance.
  Time firstRcv = -1;
  for (const auto& rec : engine->trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv && rec.node == 1) {
      firstRcv = rec.t;
      break;
    }
  }
  EXPECT_EQ(firstRcv, 4);
  EXPECT_EQ(engine->stats().forcedRcvs, 1u);
}

TEST(AdversarialScheduler, StuffingDeliversUnreliableEdgesEarly) {
  AdversarialScheduler::Options opts;
  opts.stuffUnreliable = true;
  const auto topo = lineWithSkip();
  const auto engine =
      runOneShot(std::make_unique<AdversarialScheduler>(opts), topo);
  Time stuffTime = -1;
  for (const auto& rec : engine->trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv && rec.node == 3) stuffTime = rec.t;
  }
  EXPECT_EQ(stuffTime, 1);  // bcast + 1
}

// --- progress pick preferences ------------------------------------------------

/// Oracle declaring every packet useless for every node (so the
/// adversary's first preference always applies).
class AlwaysUseless : public ProtocolOracle {
 public:
  bool uselessFor(NodeId, const Packet&) const override { return true; }
};

TEST(AdversarialScheduler, PrefersUselessPick) {
  AdversarialScheduler sched;
  const auto topo = lineWithSkip();
  MacEngine engine(topo, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   oneShotFactory(), 1);
  // Drive pickProgressDelivery directly through a second scheduler
  // object attached to the same engine.
  AlwaysUseless oracle;
  engine.setOracle(&oracle);
  sched.attach(engine);
  // Stop while instance 0 (acked at Fack) is still live: candidates
  // are always live instances.
  engine.run(4);
  // With the oracle saying "useless", the pick must be the first
  // candidate (the only live instance in this tiny run is id 0).
  const std::vector<InstanceId> candidates = {0};
  EXPECT_EQ(sched.pickProgressDelivery(1, candidates), 0);
}

TEST(Scheduler, DefaultPickTakesOldest) {
  class Dummy : public Scheduler {
   public:
    DeliveryPlan planBcast(const Instance&) override { return {}; }
  };
  Dummy d;
  EXPECT_EQ(d.pickProgressDelivery(0, {5, 7, 9}), 5);
}

}  // namespace
}  // namespace ammb::mac
