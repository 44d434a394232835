// Unit tests for the MAC engine: API contracts, plan validation,
// standard/enhanced model split, abort semantics, progress forcing.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/golden.h"
#include "core/bmmb.h"
#include "graph/generators.h"
#include "mac/engine.h"
#include "mac/schedulers.h"
#include "mac/trace_checker.h"
#include "test_util.h"

namespace ammb::mac {
namespace {

namespace gen = graph::gen;
using testutil::ackGate;
using testutil::enhParams;
using testutil::receiversOf;
using testutil::stdParams;

/// A process that broadcasts `count` data packets back to back.
class ChainSender : public Process {
 public:
  explicit ChainSender(int count) : remaining_(count) {}
  void onWake(Context& ctx) override { sendNext(ctx); }
  void onAck(Context& ctx, const Packet&) override { sendNext(ctx); }

 private:
  void sendNext(Context& ctx) {
    if (remaining_ <= 0) return;
    --remaining_;
    Packet p;
    p.msgs = {0};
    ctx.bcast(std::move(p));
  }
  int remaining_;
};

/// A silent process.
class Idle : public Process {};

MacEngine::ProcessFactory idleFactory() {
  return [](NodeId) { return std::make_unique<Idle>(); };
}

TEST(MacEngine, WakeHappensBeforeArrivals) {
  const auto topo = gen::identityDual(gen::line(2));
  std::vector<std::string> log;
  class Recorder : public Process {
   public:
    explicit Recorder(std::vector<std::string>& log) : log_(log) {}
    void onWake(Context&) override { log_.push_back("wake"); }
    void onArrive(Context&, MsgId) override { log_.push_back("arrive"); }

   private:
    std::vector<std::string>& log_;
  };
  MacEngine engine(
      topo, stdParams(), std::make_unique<FastScheduler>(),
      [&log](NodeId) { return std::make_unique<Recorder>(log); }, 1);
  engine.injectArriveAt(0, 0, 0);
  engine.run();
  ASSERT_EQ(log.size(), 3u);  // two wakes, one arrive
  EXPECT_EQ(log[0], "wake");
  EXPECT_EQ(log[1], "wake");
  EXPECT_EQ(log[2], "arrive");
}

TEST(MacEngine, DoubleBcastViolatesWellFormedness) {
  const auto topo = gen::identityDual(gen::line(2));
  class DoubleSender : public Process {
   public:
    void onWake(Context& ctx) override {
      Packet a;
      ctx.bcast(std::move(a));
      Packet b;
      ctx.bcast(std::move(b));  // before the ack: must throw
    }
  };
  MacEngine engine(topo, stdParams(), std::make_unique<FastScheduler>(),
                   [](NodeId) { return std::make_unique<DoubleSender>(); }, 1);
  EXPECT_THROW(engine.run(), Error);
}

TEST(MacEngine, PacketCapacityEnforced) {
  const auto topo = gen::identityDual(gen::line(2));
  class FatSender : public Process {
   public:
    void onWake(Context& ctx) override {
      Packet p;
      p.msgs = {0, 1, 2};
      ctx.bcast(std::move(p));
    }
  };
  auto params = stdParams();
  params.msgCapacity = 2;
  MacEngine engine(topo, params, std::make_unique<FastScheduler>(),
                   [](NodeId) { return std::make_unique<FatSender>(); }, 1);
  EXPECT_THROW(engine.run(), Error);
}

TEST(MacEngine, StandardModelForbidsEnhancedApis) {
  const auto topo = gen::identityDual(gen::line(2));
  class Cheater : public Process {
   public:
    void onWake(Context& ctx) override { ctx.setTimerAfter(1); }
  };
  MacEngine engine(topo, stdParams(), std::make_unique<FastScheduler>(),
                   [](NodeId) { return std::make_unique<Cheater>(); }, 1);
  EXPECT_THROW(engine.run(), Error);
}

TEST(MacEngine, StandardModelForbidsClockAndAbort) {
  const auto topo = gen::identityDual(gen::line(2));
  class ClockCheater : public Process {
   public:
    void onWake(Context& ctx) override { (void)ctx.now(); }
  };
  MacEngine e1(topo, stdParams(), std::make_unique<FastScheduler>(),
               [](NodeId) { return std::make_unique<ClockCheater>(); }, 1);
  EXPECT_THROW(e1.run(), Error);

  class AbortCheater : public Process {
   public:
    void onWake(Context& ctx) override {
      Packet p;
      ctx.bcast(std::move(p));
      ctx.abortBcast();
    }
  };
  MacEngine e2(topo, stdParams(), std::make_unique<FastScheduler>(),
               [](NodeId) { return std::make_unique<AbortCheater>(); }, 1);
  EXPECT_THROW(e2.run(), Error);
}

// --- scheduler plan validation ---------------------------------------------

/// Scheduler returning a fixed broken plan (configured per test).
class BrokenScheduler : public Scheduler {
 public:
  enum class Flaw { kLateAck, kMissGNeighbor, kDuplicateTarget, kOutsideGp,
                    kDeliveryAfterAck, kToSender, kOutsideGpThenAfterAck };
  explicit BrokenScheduler(Flaw flaw) : flaw_(flaw) {}

  DeliveryPlan planBcast(const Instance& inst) override {
    const MacParams& p = engine_->params();
    const auto& topo = engine_->topology();
    DeliveryPlan plan;
    plan.ackAt = inst.bcastAt + p.fack;
    for (NodeId j : topo.g().neighbors(inst.sender)) {
      plan.deliveries.push_back({j, inst.bcastAt + 1});
    }
    switch (flaw_) {
      case Flaw::kLateAck:
        plan.ackAt = inst.bcastAt + p.fack + 1;
        break;
      case Flaw::kMissGNeighbor:
        plan.deliveries.pop_back();
        break;
      case Flaw::kDuplicateTarget:
        plan.deliveries.push_back(plan.deliveries.front());
        break;
      case Flaw::kOutsideGp: {
        // Line 0-1-2-3: node 0 broadcasting to node 3 is outside G'.
        plan.deliveries.push_back({3, inst.bcastAt + 1});
        break;
      }
      case Flaw::kDeliveryAfterAck:
        plan.deliveries.front().at = plan.ackAt + 1;
        break;
      case Flaw::kToSender:
        plan.deliveries.push_back({inst.sender, inst.bcastAt + 1});
        break;
      case Flaw::kOutsideGpThenAfterAck:
        // Two flaws: the first delivery in plan order is reported.
        plan.deliveries.insert(plan.deliveries.begin(), {3, inst.bcastAt + 1});
        plan.deliveries.back().at = plan.ackAt + 1;
        break;
    }
    return plan;
  }

 private:
  Flaw flaw_;
};

class SendOnce : public Process {
 public:
  void onWake(Context& ctx) override {
    if (ctx.id() != 0) return;
    Packet p;
    ctx.bcast(std::move(p));
  }
};

TEST(MacEngine, RejectsIllegalPlans) {
  const auto topo = gen::identityDual(gen::line(4));
  using Flaw = BrokenScheduler::Flaw;
  const std::pair<Flaw, const char*> cases[] = {
      {Flaw::kLateAck, "violates the acknowledgment bound"},
      {Flaw::kMissGNeighbor, "misses reliable (G) neighbor"},
      {Flaw::kDuplicateTarget, "delivers twice"},
      {Flaw::kOutsideGp, "not a G'-neighbor"},
      {Flaw::kDeliveryAfterAck, "outside [bcast, ack]"},
      {Flaw::kToSender, "delivers to the sender itself"},
      {Flaw::kOutsideGpThenAfterAck, "not a G'-neighbor"},
  };
  for (const auto& [flaw, message] : cases) {
    MacEngine engine(topo, stdParams(),
                     std::make_unique<BrokenScheduler>(flaw),
                     [](NodeId) { return std::make_unique<SendOnce>(); }, 1);
    try {
      engine.run();
      ADD_FAILURE() << "flaw " << static_cast<int>(flaw) << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << "flaw " << static_cast<int>(flaw) << ": " << e.what();
    }
  }
}

// --- delivery & ack ordering -------------------------------------------------

TEST(MacEngine, AckArrivesAfterAllGNeighborsReceive) {
  const auto topo = gen::identityDual(gen::star(6));
  MacEngine engine(topo, stdParams(), std::make_unique<SlowAckScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(1);
                     return std::make_unique<Idle>();
                   },
                   1);
  engine.run();
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
  EXPECT_EQ(engine.stats().acks, 1u);
  EXPECT_EQ(engine.stats().rcvs, 5u);
  EXPECT_EQ(engine.record(0).termAt, stdParams().fack);
}

TEST(MacEngine, ProgressGuardForcesDeliveryUnderAdversary) {
  // With G' = G the adversary has no junk: the guard must force the
  // real message within Fprog even though the plan says Fack.
  const auto topo = gen::identityDual(gen::line(2));
  MacEngine engine(topo, stdParams(4, 32),
                   std::make_unique<AdversarialScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(1);
                     return std::make_unique<Idle>();
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().forcedRcvs, 1u);
  ASSERT_EQ(receiversOf(engine.trace(), 0).size(), 1u);
  // Forced at the progress deadline: bcast(0) + fprog.
  const auto& recs = engine.trace().records();
  for (const auto& rec : recs) {
    if (rec.kind == sim::TraceKind::kRcv) EXPECT_EQ(rec.t, 4);
  }
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(MacEngine, BackToBackBroadcastsRespectAckBound) {
  const auto topo = gen::identityDual(gen::line(2));
  MacEngine engine(topo, stdParams(2, 16), std::make_unique<SlowAckScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(5);
                     return std::make_unique<Idle>();
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().bcasts, 5u);
  EXPECT_EQ(engine.now(), 5 * 16);
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

// --- enhanced model -----------------------------------------------------------

/// Broadcasts every `period` ticks and aborts at the next boundary if
/// the ack has not arrived (the FMMB round pattern).
class RoundSender : public Process {
 public:
  RoundSender(Time period, int rounds) : period_(period), rounds_(rounds) {}
  void onWake(Context& ctx) override {
    act(ctx, 0);
    ctx.setTimerAt(period_);
  }
  void onTimer(Context& ctx, TimerId) override {
    if (ctx.busy()) ctx.abortBcast();
    ++round_;
    if (round_ >= rounds_) return;
    act(ctx, round_);
    ctx.setTimerAt((round_ + 1) * period_);
  }

 private:
  void act(Context& ctx, int round) {
    if (ctx.id() != 0) return;
    Packet p;
    p.tag = round;
    ctx.bcast(std::move(p));
  }
  Time period_;
  int rounds_;
  int round_ = 0;
};

TEST(MacEngine, EnhancedRoundsAbortAndStayWellFormed) {
  const auto topo = gen::identityDual(gen::line(3));
  const auto params = enhParams(4, 64);
  const Time period = params.fprog + 1;
  MacEngine engine(topo, params, std::make_unique<AdversarialScheduler>(),
                   [&](NodeId) {
                     return std::make_unique<RoundSender>(period, 6);
                   },
                   1);
  engine.run();
  EXPECT_EQ(engine.stats().bcasts, 6u);
  EXPECT_EQ(engine.stats().aborts, 6u);  // adversary acks at Fack > round
  // Node 1 (G-neighbor of the sender) received something every round.
  EXPECT_GE(engine.stats().rcvs, 6u);
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(MacEngine, AbortCancelsLateDeliveries) {
  const auto topo = gen::identityDual(gen::line(2));
  class AbortEarly : public Process {
   public:
    void onWake(Context& ctx) override {
      if (ctx.id() != 0) return;
      Packet p;
      ctx.bcast(std::move(p));
      ctx.setTimerAfter(2);
    }
    void onTimer(Context& ctx, TimerId) override {
      if (ctx.busy()) ctx.abortBcast();
    }
  };
  // SlowAck plans the delivery at fprog = 4 > abort time 2.
  MacEngine engine(topo, enhParams(4, 32), std::make_unique<SlowAckScheduler>(),
                   [](NodeId) { return std::make_unique<AbortEarly>(); }, 1);
  engine.run();
  EXPECT_EQ(engine.stats().aborts, 1u);
  EXPECT_EQ(engine.stats().rcvs, 0u);
  EXPECT_EQ(engine.stats().acks, 0u);
  const auto check = checkTrace(topo, engine.params(), engine.trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(MacEngine, TimersFire) {
  const auto topo = gen::identityDual(gen::line(2));
  class TimerUser : public Process {
   public:
    void onWake(Context& ctx) override {
      if (ctx.id() != 0) return;
      timer_ = ctx.setTimerAfter(5);
    }
    void onTimer(Context& ctx, TimerId id) override {
      EXPECT_EQ(id, timer_);
      EXPECT_EQ(ctx.now(), 5);
      ++fires_;
    }
    int fires_ = 0;

   private:
    TimerId timer_ = kNoTimer;
  };
  TimerUser* p0 = nullptr;
  MacEngine engine(topo, enhParams(), std::make_unique<FastScheduler>(),
                   [&p0](NodeId node) {
                     auto p = std::make_unique<TimerUser>();
                     if (node == 0) p0 = p.get();
                     return p;
                   },
                   1);
  engine.run();
  ASSERT_NE(p0, nullptr);
  EXPECT_EQ(p0->fires_, 1);
}

/// Timers set and fired, as (time, node, id), across all nodes.
struct TimerLog {
  std::vector<TimerId> set;
  std::vector<std::tuple<Time, NodeId, TimerId>> fired;
};

/// Sets two timers for t = 5 at wake (node 0 first sets one for
/// t = 1000), and one more for the current tick when timer 2 fires.
class TimerSetter : public Process {
 public:
  explicit TimerSetter(TimerLog& log) : log_(log) {}
  void onWake(Context& ctx) override {
    if (ctx.id() == 0) log_.set.push_back(ctx.setTimerAfter(1000));
    log_.set.push_back(ctx.setTimerAfter(5));
    log_.set.push_back(ctx.setTimerAt(5));
  }
  void onTimer(Context& ctx, TimerId id) override {
    log_.fired.emplace_back(ctx.now(), ctx.id(), id);
    if (id == 2) log_.set.push_back(ctx.setTimerAfter(0));
  }

 private:
  TimerLog& log_;
};

TEST(MacEngine, TimerIdsCountUpAndSameTickTimersFireInSetOrder) {
  // FMMB's traces name its timers, so ids count up from 1 across all
  // nodes in the order they are set.  Timers due on one tick fire in
  // that order too, and one due far beyond Fack fires on its tick.
  const auto topo = gen::identityDual(gen::line(3));
  TimerLog log;
  MacEngine engine(topo, enhParams(), std::make_unique<FastScheduler>(),
                   [&log](NodeId) { return std::make_unique<TimerSetter>(log); },
                   1);
  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(log.set, (std::vector<TimerId>{1, 2, 3, 4, 5, 6, 7, 8}));
  using Fire = std::tuple<Time, NodeId, TimerId>;
  EXPECT_EQ(log.fired, (std::vector<Fire>{{5, 0, 2},
                                          {5, 0, 3},
                                          {5, 1, 4},
                                          {5, 1, 5},
                                          {5, 2, 6},
                                          {5, 2, 7},
                                          {5, 0, 8},
                                          {1000, 0, 1}}));
  EXPECT_EQ(engine.now(), 1000);
}

TEST(MacEngine, EnhancedContextExposesConstants) {
  const auto topo = gen::identityDual(gen::line(2));
  class Reader : public Process {
   public:
    void onWake(Context& ctx) override {
      EXPECT_EQ(ctx.fprog(), 4);
      EXPECT_EQ(ctx.fack(), 32);
      EXPECT_EQ(ctx.n(), 2);
      EXPECT_EQ(ctx.gNeighbors().size(), 1u);
      EXPECT_TRUE(ctx.isGNeighbor(1 - ctx.id()));
    }
  };
  MacEngine engine(topo, enhParams(4, 32), std::make_unique<FastScheduler>(),
                   [](NodeId) { return std::make_unique<Reader>(); }, 1);
  engine.run();
}

TEST(MacEngine, UnreliableDeliveryReachesGPrimeOnlyNeighbors) {
  Rng rng(3);
  const auto topo = gen::withArbitraryNoise(gen::line(4), 2, rng);
  MacEngine engine(topo, stdParams(), std::make_unique<FastScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(1);
                     return std::make_unique<Idle>();
                   },
                   1);
  engine.run();
  EXPECT_EQ(receiversOf(engine.trace(), 0).size(),
            topo.gPrime().neighbors(0).size());
}

// Regression: an instance whose link vanishes mid-flight must still
// ack on schedule.  The edge {0, 1} drops before the slow-ack
// scheduler's planned delivery, so the delivery is cancelled and the
// acknowledgment guarantee for node 1 is voided — but the ack event
// itself survives the boundary, the sender's automaton continues
// (here: bcasts its second packet), and the epoch-aware checker
// accepts the trace that a static checker would reject.
TEST(MacEngine, AckInFlightAcrossEpochBoundary) {
  const auto base = gen::identityDual(gen::line(2));
  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {2, {{graph::TopologyEvent::Kind::kEdgeDown, 0, 1, false}}});
  const graph::TopologyView view(base, dynamics);

  // slow-ack: delivery at bcast+fprog (4), ack at bcast+fack (32);
  // the boundary at t=2 lands squarely between bcast and both.
  MacEngine engine(view, stdParams(), std::make_unique<SlowAckScheduler>(),
                   [](NodeId node) -> std::unique_ptr<Process> {
                     if (node == 0) return std::make_unique<ChainSender>(2);
                     return std::make_unique<Idle>();
                   },
                   1);
  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);

  // Both bcasts acked; the first delivered to nobody (link gone before
  // its delivery), the second planned against the empty neighborhood.
  EXPECT_EQ(engine.stats().bcasts, 2u);
  EXPECT_EQ(engine.stats().acks, 2u);
  EXPECT_EQ(engine.stats().rcvs, 0u);
  EXPECT_EQ(engine.record(0).termAt, 32);

  // The epoch transition is on the trace, and the epoch-aware checker
  // is green while the static base-topology checker demands the rcv
  // node 1 never got.
  bool sawEpoch = false;
  for (const auto& record : engine.trace().records()) {
    sawEpoch = sawEpoch || record.kind == sim::TraceKind::kEpoch;
  }
  EXPECT_TRUE(sawEpoch);
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
  EXPECT_FALSE(checkTrace(base, engine.params(), engine.trace()).ok);
}

// --- instance storage ---------------------------------------------------------

// At most one broadcast per node is unterminated at a time, so the body
// pool stays within n + 1 however many instances a run creates.  The
// extra body is a node's old one, still held during its own onAck while
// the node bcasts again.  A settled instance keeps only its record.
TEST(MacEngine, BodyPoolStaysWithinNPlusOneAndRecordsOutliveBodies) {
  constexpr NodeId kN = 16;
  constexpr MsgId kK = 64;
  Rng rng(11);
  const auto topo = gen::withArbitraryNoise(gen::grid(4, 4), 6, rng);
  core::BmmbSuite suite;
  MacEngine engine(topo, stdParams(), std::make_unique<RandomScheduler>(),
                   suite.factory(), 3);
  engine.setOracle(&suite);
  for (MsgId m = 0; m < kK; ++m) engine.injectArriveAt(m % kN, m, 0);
  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);

  // Every node broadcasts every message once.
  const std::vector<InstanceRecord>& records = engine.instances();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kN) * kK);
  EXPECT_LE(engine.poolSize(), static_cast<std::size_t>(kN) + 1);
  // BMMB FIFO never draws from a node's stream, so none was seeded.
  EXPECT_EQ(engine.seededNodeRngs(), 0);

  // Each record still matches its instance's bcast and ack on the
  // trace; the body is gone.  Acks fire as planned in the standard
  // model.
  std::vector<InstanceRecord> expected(records.size());
  for (const auto& rec : engine.trace().records()) {
    const bool bcast = rec.kind == sim::TraceKind::kBcast;
    if (!bcast && rec.kind != sim::TraceKind::kAck) continue;
    InstanceRecord& e = expected[static_cast<std::size_t>(rec.instance)];
    if (bcast) {
      e.sender = rec.node;
      e.bcastAt = rec.t;
    } else {
      e.plannedAck = rec.t;
      e.termAt = rec.t;
    }
  }
  for (std::size_t id = 0; id < records.size(); ++id) {
    SCOPED_TRACE(testing::Message() << "instance " << id);
    const InstanceRecord& got = engine.record(static_cast<InstanceId>(id));
    EXPECT_EQ(&got, &records[id]);
    EXPECT_EQ(got.sender, expected[id].sender);
    EXPECT_EQ(got.bcastAt, expected[id].bcastAt);
    EXPECT_EQ(got.plannedAck, expected[id].plannedAck);
    EXPECT_EQ(got.termAt, expected[id].termAt);
    EXPECT_FALSE(got.aborted);
    EXPECT_THROW(engine.instance(static_cast<InstanceId>(id)), Error);
  }
  EXPECT_THROW(engine.record(static_cast<InstanceId>(records.size())), Error);
}

// A node's stream is seeded on its first Context::rng() call, from the
// same per-node seed as if it had been seeded up front.
TEST(MacEngine, NodeRngIsSeededOnFirstUseFromItsStream) {
  class DrawOnce : public Process {
   public:
    explicit DrawOnce(std::uint64_t& out) : out_(out) {}
    void onWake(Context& ctx) override {
      if (ctx.id() == 2) out_ = ctx.rng().randomBits(64);
    }

   private:
    std::uint64_t& out_;
  };
  const auto topo = gen::identityDual(gen::line(4));
  std::uint64_t drawn = 0;
  MacEngine engine(
      topo, stdParams(), std::make_unique<FastScheduler>(),
      [&drawn](NodeId) { return std::make_unique<DrawOnce>(drawn); }, 7);
  EXPECT_EQ(engine.seededNodeRngs(), 0);
  engine.run();
  EXPECT_EQ(engine.seededNodeRngs(), 1);
  EXPECT_EQ(drawn,
            SeedSequence(7).childRng(rngstream::kNode, 2).randomBits(64));
}

// The benchmark harness still hands MacEngine an (ignored) kernel
// argument and a trace mode positionally; that call must keep
// compiling and must not change the execution.
TEST(MacEngine, KernelSpecArgumentIsAnIgnoredPlaceholder) {
  static_assert(std::is_empty_v<sim::KernelSpec>);
  Rng rng(5);
  const auto topo = gen::withArbitraryNoise(gen::line(6), 3, rng);
  const auto factory = [](NodeId node) -> std::unique_ptr<Process> {
    return std::make_unique<ChainSender>(node % 2 == 0 ? 3 : 0);
  };
  MacEngine plain(topo, stdParams(), std::make_unique<AdversarialScheduler>(),
                  factory, 9);
  MacEngine positional(topo, stdParams(),
                       std::make_unique<AdversarialScheduler>(), factory, 9,
                       true, sim::KernelSpec{}, sim::TraceMode::spool(4));
  plain.run();
  positional.run();
  EXPECT_EQ(plain.stats().bcasts, 9u);
  EXPECT_EQ(check::traceHash(positional.trace()),
            check::traceHash(plain.trace()));
}

// --- epoch-boundary reconciliation -----------------------------------------
//
// At a boundary the engine scrubs every instance in one pass: pending
// deliveries over vanished E' links are cancelled (scanning back to
// front, swap-removing), and an already-terminated instance whose last
// pending entry went is released.  The ack gate needs no scrub: the
// engine derives it at the ack, so a vanished E link drops out of it
// and a link that appears mid-flight never enters it.

/// Replays one plan for every instance: each delivery and the ack at a
/// fixed offset from the bcast.
class FixedPlanScheduler : public Scheduler {
 public:
  FixedPlanScheduler(std::vector<PlannedDelivery> offsets, Time ackAfter)
      : offsets_(std::move(offsets)), ackAfter_(ackAfter) {}

  DeliveryPlan planBcast(const Instance& inst) override {
    DeliveryPlan plan;
    for (const PlannedDelivery& d : offsets_) {
      plan.deliveries.push_back({d.target, inst.bcastAt + d.at});
    }
    plan.ackAt = inst.bcastAt + ackAfter_;
    return plan;
  }

 private:
  std::vector<PlannedDelivery> offsets_;
  Time ackAfter_;
};

/// Node 0 joined to 1..reliable by E edges and to the next
/// `unreliable` nodes by E' \ E edges only.
graph::DualGraph hub(NodeId reliable, NodeId unreliable) {
  const NodeId n = 1 + reliable + unreliable;
  graph::Graph g(n);
  graph::Graph gp(n);
  for (NodeId j = 1; j < n; ++j) {
    if (j <= reliable) g.addEdge(0, j);
    gp.addEdge(0, j);
  }
  g.finalize();
  gp.finalize();
  return graph::DualGraph(std::move(g), std::move(gp));
}

/// A view whose only boundary, at `at`, applies `events`.
graph::TopologyView withBoundary(const graph::DualGraph& base, Time at,
                                 std::vector<graph::TopologyEvent> events) {
  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back({at, std::move(events)});
  return graph::TopologyView(base, dynamics);
}

graph::TopologyEvent edgeDown(NodeId u, NodeId v) {
  return {graph::TopologyEvent::Kind::kEdgeDown, u, v, false};
}

std::vector<NodeId> pendingTargets(const Instance& inst) {
  std::vector<NodeId> targets;
  for (const Instance::PendingDelivery& pd : inst.pending) {
    targets.push_back(pd.target);
  }
  return targets;
}

MacEngine::ProcessFactory hubSender(int count) {
  return [count](NodeId node) -> std::unique_ptr<Process> {
    if (node == 0) return std::make_unique<ChainSender>(count);
    return std::make_unique<Idle>();
  };
}

// Fprog = 16 leaves every planned delivery (t <= 13) ahead of the
// progress deadline (t = 16), so the guard never forces one and the
// only thing that can remove a delivery is the scrub.
TEST(EpochScrub, VanishedUnreliableLinkCancelsOnlyItsDelivery) {
  const auto base = hub(2, 1);
  const auto view = withBoundary(base, 5, {edgeDown(0, 3)});
  MacEngine engine(view, stdParams(16, 32),
                   std::make_unique<FixedPlanScheduler>(
                       std::vector<PlannedDelivery>{{1, 10}, {2, 11}, {3, 12}},
                       30),
                   hubSender(1), 1);
  EXPECT_EQ(engine.run(5), sim::RunStatus::kTimeLimit);
  const Instance& inst = engine.instance(0);
  EXPECT_EQ(pendingTargets(inst), (std::vector<NodeId>{1, 2}));
  // Node 3 was never in the ack gate, so the gate is untouched...
  EXPECT_EQ(ackGate(engine, 0), (std::vector<NodeId>{1, 2}));
  // ...and the instance no longer contends at node 3.
  EXPECT_TRUE(engine.liveInstancesNear(3).empty());
  EXPECT_EQ(engine.liveInstancesNear(1), (std::vector<InstanceId>{0}));

  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(receiversOf(engine.trace(), 0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(engine.stats().rcvs, 2u);
  EXPECT_EQ(engine.stats().forcedRcvs, 0u);
  EXPECT_EQ(engine.stats().acks, 1u);
  EXPECT_EQ(engine.record(0).termAt, 30);
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
}

TEST(EpochScrub, VanishedReliableLinkLeavesTheAckGate) {
  const auto base = hub(3, 0);
  const auto view = withBoundary(base, 5, {edgeDown(0, 2)});
  MacEngine engine(view, stdParams(16, 32),
                   std::make_unique<FixedPlanScheduler>(
                       std::vector<PlannedDelivery>{{1, 10}, {2, 11}, {3, 12}},
                       30),
                   hubSender(1), 1);
  engine.run(5);
  const Instance& inst = engine.instance(0);
  EXPECT_EQ(pendingTargets(inst), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(ackGate(engine, 0), (std::vector<NodeId>{1, 3}));

  // Both surviving deliveries have fired one tick before the ack.
  engine.run(29);
  EXPECT_EQ(inst.deliveredTo, (std::vector<NodeId>{1, 3}));
  EXPECT_TRUE(ackGate(engine, 0).empty());

  // The ack fires with node 2 never served: the engine asserts the
  // gate is empty at the ack, so a stale gate would throw here.
  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(engine.stats().acks, 1u);
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
  EXPECT_FALSE(checkTrace(base, engine.params(), engine.trace()).ok);
}

// Dropping targets 1 and 3 out of [1, 2, 3, 4]: the back-to-front
// swap-remove leaves [4, 2] (a stable erase would leave [2, 4]).  The
// layout decides later iteration order, so it is pinned.
TEST(EpochScrub, SurvivingEntriesKeepTheSwapRemoveLayout) {
  const auto base = hub(4, 0);
  const auto view = withBoundary(base, 5, {edgeDown(0, 1), edgeDown(0, 3)});
  MacEngine engine(view, stdParams(16, 32),
                   std::make_unique<FixedPlanScheduler>(
                       std::vector<PlannedDelivery>{
                           {1, 10}, {2, 11}, {3, 12}, {4, 13}},
                       30),
                   hubSender(1), 1);
  engine.run(5);
  const Instance& inst = engine.instance(0);
  EXPECT_EQ(pendingTargets(inst), (std::vector<NodeId>{4, 2}));
  EXPECT_EQ(ackGate(engine, 0), (std::vector<NodeId>{2, 4}));

  engine.run();
  // Surviving deliveries still fire at their planned times.  The body
  // `inst` referred to is back in the pool, so read the trace.
  EXPECT_EQ(receiversOf(engine.trace(), 0), (std::vector<NodeId>{2, 4}));
  std::vector<Time> rcvTimes;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv) rcvTimes.push_back(rec.t);
  }
  EXPECT_EQ(rcvTimes, (std::vector<Time>{11, 13}));
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
}

// An aborted instance keeps the deliveries due within epsAbort of the
// abort, and its body until the last of them is gone.  Node 0 aborts
// two instances.  The boundary scrubs the first one's last grace
// delivery, which settles it: its body returns to the pool on the spot.
// The second one's grace delivery fires, and it is released at that
// tick.
TEST(EpochScrub, AbortGraceDeliveryOnVanishedLinkIsScrubbedAndReleased) {
  const auto base = hub(2, 0);
  const auto view = withBoundary(base, 6, {edgeDown(0, 1)});
  class AbortTwice : public Process {
   public:
    void onWake(Context& ctx) override {
      if (ctx.id() == 0) send(ctx);
    }
    void onTimer(Context& ctx, TimerId) override {
      ctx.abortBcast();
      if (++aborts_ < 2) send(ctx);
    }

   private:
    static void send(Context& ctx) {
      ctx.bcast(Packet{});
      ctx.setTimerAfter(4);
    }
    int aborts_ = 0;
  };
  MacParams params = enhParams(16, 32);
  params.epsAbort = 10;
  MacEngine engine(view, params,
                   std::make_unique<FixedPlanScheduler>(
                       std::vector<PlannedDelivery>{{1, 12}, {2, 5}}, 30),
                   [](NodeId) { return std::make_unique<AbortTwice>(); }, 1);
  // Instance 0 aborts at 4; both of its deliveries (5, 12) lie within
  // abort + epsAbort = 14, and the one at 5 has fired.
  engine.run(5);
  ASSERT_TRUE(engine.record(0).aborted);
  EXPECT_EQ(engine.record(0).termAt, 4);
  EXPECT_EQ(pendingTargets(engine.instance(0)), (std::vector<NodeId>{1}));
  EXPECT_EQ(receiversOf(engine.trace(), 0), (std::vector<NodeId>{2}));

  // The boundary scrubs node 1's delivery from both instances.
  engine.run(6);
  EXPECT_THROW(engine.instance(0), Error);
  EXPECT_EQ(pendingTargets(engine.instance(1)), (std::vector<NodeId>{2}));

  // Instance 1 aborts at 8; its delivery at 9 is within the grace.
  engine.run(8);
  EXPECT_TRUE(engine.record(1).aborted);
  EXPECT_EQ(pendingTargets(engine.instance(1)), (std::vector<NodeId>{2}));
  engine.run(9);
  EXPECT_EQ(receiversOf(engine.trace(), 1), (std::vector<NodeId>{2}));
  EXPECT_THROW(engine.instance(1), Error);
  EXPECT_EQ(engine.poolSize(), 2u);

  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(engine.stats().aborts, 2u);
  EXPECT_EQ(engine.stats().rcvs, 2u);
  EXPECT_EQ(engine.stats().acks, 0u);
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
}

// A crash takes every link of the sender down: all of its deliveries
// are cancelled and the gate empties, yet the ack fires as planned.
TEST(EpochScrub, CrashedSenderDeliversNothingButStillAcks) {
  const auto base = hub(3, 1);
  const auto view = withBoundary(
      base, 5, {{graph::TopologyEvent::Kind::kNodeCrash, 0, kNoNode, false}});
  MacEngine engine(view, stdParams(16, 32),
                   std::make_unique<FixedPlanScheduler>(
                       std::vector<PlannedDelivery>{
                           {1, 10}, {2, 11}, {3, 12}, {4, 13}},
                       30),
                   hubSender(1), 1);
  engine.run(5);
  const Instance& inst = engine.instance(0);
  EXPECT_TRUE(inst.pending.empty());
  EXPECT_TRUE(ackGate(engine, 0).empty());
  for (NodeId j = 1; j <= 4; ++j) {
    EXPECT_TRUE(engine.liveInstancesNear(j).empty()) << "node " << j;
  }

  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(engine.stats().rcvs, 0u);
  EXPECT_EQ(engine.stats().acks, 1u);
  EXPECT_EQ(engine.record(0).termAt, 30);
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
}

// A cancelled delivery stays cancelled when its link comes back: the
// receiver is served by the progress guard, which re-obliges the model
// only from the instant the link returned (8 + Fprog = 24).
TEST(EpochScrub, ReturningLinkDoesNotReviveACancelledDelivery) {
  const auto base = hub(2, 0);
  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back({5, {edgeDown(0, 2)}});
  dynamics.epochs.push_back(
      {8, {{graph::TopologyEvent::Kind::kEdgeUp, 0, 2, true}}});
  const graph::TopologyView view(base, dynamics);
  MacEngine engine(view, stdParams(16, 32),
                   std::make_unique<FixedPlanScheduler>(
                       std::vector<PlannedDelivery>{{1, 10}, {2, 11}}, 30),
                   hubSender(1), 1);
  engine.run(8);
  const Instance& inst = engine.instance(0);
  EXPECT_EQ(pendingTargets(inst), (std::vector<NodeId>{1}));
  // The gate covers only links live for the whole [bcast, ack] window.
  EXPECT_EQ(ackGate(engine, 0), (std::vector<NodeId>{1}));

  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(engine.stats().forcedRcvs, 1u);
  Time rcvAt2 = kTimeNever;
  for (const auto& rec : engine.trace().records()) {
    if (rec.kind == sim::TraceKind::kRcv && rec.node == 2) rcvAt2 = rec.t;
  }
  EXPECT_EQ(rcvAt2, 24);
  EXPECT_EQ(receiversOf(engine.trace(), 0), (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
}

// An E link that appears mid-flight obliges nothing for an instance
// already in flight: node 2 turns reliable at 20, after the bcast, so
// it never enters the gate and the ack at 30 does not wait for it.
// Its need window [20, 30 - Fprog - 1] is empty, so the guard forces
// nothing either.
TEST(EpochScrub, AppearingReliableLinkStaysOutOfTheAckGate) {
  const auto base = hub(1, 1);
  const auto view = withBoundary(
      base, 20, {{graph::TopologyEvent::Kind::kEdgeUp, 0, 2, true}});
  MacEngine engine(view, stdParams(16, 32),
                   std::make_unique<FixedPlanScheduler>(
                       std::vector<PlannedDelivery>{{1, 10}}, 30),
                   hubSender(1), 1);
  engine.run(20);
  EXPECT_TRUE(engine.topology().g().hasEdge(0, 2));
  EXPECT_TRUE(ackGate(engine, 0).empty());

  EXPECT_EQ(engine.run(), sim::RunStatus::kDrained);
  EXPECT_EQ(engine.stats().acks, 1u);
  EXPECT_EQ(engine.record(0).termAt, 30);
  EXPECT_EQ(receiversOf(engine.trace(), 0), (std::vector<NodeId>{1}));
  EXPECT_EQ(engine.stats().forcedRcvs, 0u);
  EXPECT_TRUE(checkTrace(view, engine.params(), engine.trace()).ok);
}

// The engine checks the gate at every ack while plans are validated.
// The plan leaves node 2 out; it gets in with validation off, and
// validation is back on when the ack fires.  Fack = Fprog, so the
// guard owes nothing and only the gate can object.
TEST(EpochScrub, AckAssertsItsGateUnderValidation) {
  const auto base = hub(2, 0);
  const auto bcastUnchecked = [](const graph::TopologyView& view) {
    auto engine = std::make_unique<MacEngine>(
        view, stdParams(4, 4),
        std::make_unique<FixedPlanScheduler>(
            std::vector<PlannedDelivery>{{1, 3}}, 4),
        hubSender(1), 1);
    engine->setPlanValidation(false);
    engine->run(0);
    engine->setPlanValidation(true);
    return engine;
  };
  const graph::TopologyView staticView(base);
  EXPECT_THROW(bcastUnchecked(staticView)->run(), Error);
  // Dropping node 1's link leaves node 2 owed.
  const auto drop1 = withBoundary(base, 2, {edgeDown(0, 1)});
  EXPECT_THROW(bcastUnchecked(drop1)->run(), Error);
  // Dropping node 2's link releases it from the gate.
  const auto drop2 = withBoundary(base, 2, {edgeDown(0, 2)});
  const auto engine = bcastUnchecked(drop2);
  EXPECT_EQ(engine->run(), sim::RunStatus::kDrained);
  EXPECT_EQ(engine->stats().acks, 1u);
}

}  // namespace
}  // namespace ammb::mac
