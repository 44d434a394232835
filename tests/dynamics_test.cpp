// The dynamic topology engine, end to end: TopologyView epoch
// materialization and liveness masks, schedule generators, the engine's
// boundary reconciliation, epoch-aware oracles, the stale-topology
// mutation fixture, dynamics-axis sweeps (deterministic at any thread
// count), and the spec-file round trip of the dynamics axis.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "check/fuzzer.h"
#include "check/golden.h"
#include "check/mutation.h"
#include "graph/dynamics.h"
#include "graph/generators.h"
#include "graph/topology_view.h"
#include "runner/emit.h"
#include "runner/spec_io.h"
#include "runner/sweep_runner.h"
#include "test_util.h"

namespace ammb {
namespace {

namespace gen = graph::gen;
using graph::TopologyDynamics;
using graph::TopologyEvent;
using graph::TopologyView;

TopologyDynamics edgeDownAt(Time at, NodeId u, NodeId v) {
  TopologyDynamics dynamics;
  dynamics.epochs.push_back({at, {{TopologyEvent::Kind::kEdgeDown, u, v,
                                   false}}});
  return dynamics;
}

// --- TopologyView ------------------------------------------------------------

TEST(TopologyView, StaticViewIsTheBaseTopology) {
  const auto base = gen::identityDual(gen::line(5));
  const TopologyView view(base);
  EXPECT_FALSE(view.dynamic());
  EXPECT_EQ(view.epochCount(), 1);
  EXPECT_EQ(&view.dualAt(0), &base);  // no copy for the static case
  EXPECT_EQ(view.epochAt(0), 0);
  EXPECT_EQ(view.epochAt(1'000'000), 0);
  EXPECT_EQ(view.gEdgeLiveSince(0, 1, 2), 0);
  EXPECT_EQ(view.gEdgeLiveSince(0, 0, 2), kTimeNever);
  EXPECT_TRUE(view.gEdgeLiveThroughout(1, 2, 0, 999));
}

// Every (u, v) with u < v listed by `g`'s neighbor spans, in order.
std::vector<std::pair<NodeId, NodeId>> spanEdges(const graph::Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId u = 0; u < g.n(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

TEST(TopologyView, EpochsReadTheirDualGraphsAdjacency) {
  Rng rng(7);
  const auto base = gen::withArbitraryNoise(gen::line(8), 4, rng);

  // The static view copies no adjacency: its epoch-0 spans are the base
  // graphs' own storage.
  const TopologyView fixed(base);
  for (NodeId u = 0; u < base.n(); ++u) {
    EXPECT_EQ(fixed.dualAt(0).g().neighbors(u).begin(),
              base.g().neighbors(u).begin());
    EXPECT_EQ(fixed.dualAt(0).gPrime().neighbors(u).begin(),
              base.gPrime().neighbors(u).begin());
    EXPECT_TRUE(fixed.nodeAliveAt(0, u));
  }

  // A crash epoch: each graph's spans list exactly the base edges that
  // avoid the dead node, and the dead node has none.
  TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {10, {{TopologyEvent::Kind::kNodeCrash, 2, kNoNode, false}}});
  const TopologyView view(base, dynamics);
  ASSERT_EQ(view.epochCount(), 2);
  const auto without2 = [](const graph::Graph& g) {
    std::vector<std::pair<NodeId, NodeId>> out = g.edges();
    out.erase(std::remove_if(out.begin(), out.end(),
                             [](const auto& e) {
                               return e.first == 2 || e.second == 2;
                             }),
              out.end());
    return out;
  };
  const graph::DualGraph& crashed = view.dualAt(1);
  EXPECT_EQ(spanEdges(crashed.g()), crashed.g().edges());
  EXPECT_EQ(spanEdges(crashed.gPrime()), crashed.gPrime().edges());
  EXPECT_EQ(crashed.g().edges(), without2(base.g()));
  EXPECT_EQ(crashed.gPrime().edges(), without2(base.gPrime()));
  EXPECT_TRUE(crashed.g().neighbors(2).empty());
  EXPECT_TRUE(crashed.gPrime().neighbors(2).empty());
  for (NodeId u = 0; u < base.n(); ++u) {
    EXPECT_EQ(view.nodeAliveAt(1, u), u != 2);
  }
}

TEST(TopologyView, CrashIsolatesAndRecoveryRestores) {
  const auto base = gen::identityDual(gen::line(4));
  TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {10, {{TopologyEvent::Kind::kNodeCrash, 1, kNoNode, false}}});
  dynamics.epochs.push_back(
      {20, {{TopologyEvent::Kind::kNodeRecover, 1, kNoNode, false}}});
  const TopologyView view(base, dynamics);
  ASSERT_EQ(view.epochCount(), 3);
  EXPECT_TRUE(view.dynamic());
  EXPECT_EQ(view.epochAt(9), 0);
  EXPECT_EQ(view.epochAt(10), 1);
  EXPECT_EQ(view.epochAt(19), 1);
  EXPECT_EQ(view.epochAt(20), 2);

  // While 1 is down both its links vanish and G splits; the underlying
  // edges survive the outage and come back intact.
  EXPECT_FALSE(view.nodeAliveAt(1, 1));
  EXPECT_EQ(view.dualAt(1).g().degree(1), 0u);
  EXPECT_FALSE(view.dualAt(1).g().hasEdge(0, 1));
  EXPECT_FALSE(view.dualAt(1).g().connected());
  EXPECT_TRUE(view.nodeAliveAt(2, 1));
  EXPECT_TRUE(view.dualAt(2).g().hasEdge(0, 1));
  EXPECT_TRUE(view.dualAt(2).g().connected());

  // Live-since restarts at the recovery boundary; the outage breaks
  // whole-window liveness.
  EXPECT_EQ(view.gEdgeLiveSince(0, 0, 1), 0);
  EXPECT_EQ(view.gEdgeLiveSince(1, 0, 1), kTimeNever);
  EXPECT_EQ(view.gEdgeLiveSince(2, 0, 1), 20);
  EXPECT_EQ(view.gEdgeLiveSince(2, 2, 3), 0);  // untouched link
  EXPECT_TRUE(view.gEdgeLiveThroughout(2, 3, 0, 25));
  EXPECT_FALSE(view.gEdgeLiveThroughout(0, 1, 5, 25));
  EXPECT_TRUE(view.gEdgeLiveThroughout(0, 1, 20, 25));
}

TEST(TopologyView, RejectsIllFormedDynamics) {
  const auto base = gen::identityDual(gen::line(3));
  {  // unordered boundaries
    TopologyDynamics d;
    d.epochs.push_back({20, {}});
    d.epochs.push_back({10, {}});
    EXPECT_THROW(TopologyView(base, d), Error);
  }
  {  // boundary at t = 0 (epoch 0 is the base)
    TopologyDynamics d;
    d.epochs.push_back({0, {}});
    EXPECT_THROW(TopologyView(base, d), Error);
  }
  // dropping a non-edge
  EXPECT_THROW(TopologyView(base, edgeDownAt(5, 0, 2)), Error);
  {  // crashing a crashed node
    TopologyDynamics d;
    d.epochs.push_back({5, {{TopologyEvent::Kind::kNodeCrash, 0, kNoNode,
                             false}}});
    d.epochs.push_back({6, {{TopologyEvent::Kind::kNodeCrash, 0, kNoNode,
                             false}}});
    EXPECT_THROW(TopologyView(base, d), Error);
  }
}

TEST(TopologyView, EdgeUpKeepsDualInvariant) {
  const auto base = gen::identityDual(gen::line(3));
  TopologyDynamics dynamics;
  // A new unreliable long link, then promote it into E.
  dynamics.epochs.push_back(
      {5, {{TopologyEvent::Kind::kEdgeUp, 0, 2, false}}});
  dynamics.epochs.push_back(
      {10, {{TopologyEvent::Kind::kEdgeUp, 0, 2, true}}});
  const TopologyView view(base, dynamics);
  EXPECT_FALSE(view.dualAt(0).gPrime().hasEdge(0, 2));
  EXPECT_TRUE(view.dualAt(1).gPrime().hasEdge(0, 2));
  EXPECT_FALSE(view.dualAt(1).g().hasEdge(0, 2));
  EXPECT_TRUE(view.dualAt(2).g().hasEdge(0, 2));
  EXPECT_EQ(view.gEdgeLiveSince(2, 0, 2), 10);
}

// --- schedule generators -----------------------------------------------------

TEST(DynamicsGenerators, CrashScheduleIsSeedDeterministicAndWellFormed) {
  const auto base = gen::identityDual(gen::line(12));
  Rng a(42);
  Rng b(42);
  const TopologyDynamics da = gen::crashRecoverySchedule(base, 3, 50, 20, a);
  const TopologyDynamics db = gen::crashRecoverySchedule(base, 3, 50, 20, b);
  ASSERT_EQ(da.epochs.size(), 6u);  // crash + recovery per episode
  for (std::size_t i = 0; i < da.epochs.size(); ++i) {
    EXPECT_EQ(da.epochs[i].start, db.epochs[i].start);
    ASSERT_EQ(da.epochs[i].events.size(), 1u);
    EXPECT_EQ(da.epochs[i].events[0].u, db.epochs[i].events[0].u);
  }
  // Applies cleanly: every crash recovers before the next one.
  const TopologyView view(base, da);
  EXPECT_EQ(view.epochCount(), 7);
  EXPECT_THROW(gen::crashRecoverySchedule(base, 1, 50, 50, a), Error);
}

TEST(DynamicsGenerators, GreyDriftChurnsOnlyTheFringe) {
  Rng topoRng(5);
  const auto base = gen::withRRestrictedNoise(gen::line(10), 2, 1.0, topoRng);
  ASSERT_GT(base.gPrime().edgeCount(), base.g().edgeCount());
  Rng rng(9);
  const TopologyDynamics dynamics =
      gen::greyZoneDriftSchedule(base, 5, 16, 0.5, rng);
  const TopologyView view(base, dynamics);
  ASSERT_EQ(view.epochCount(), 6);
  bool changed = false;
  for (int e = 0; e < view.epochCount(); ++e) {
    const graph::DualGraph& dual = view.dualAt(e);
    // E is never touched, so G stays the base line (and connected).
    EXPECT_EQ(dual.g().edgeCount(), base.g().edgeCount());
    EXPECT_TRUE(dual.g().connected());
    changed = changed ||
              dual.gPrime().edgeCount() != base.gPrime().edgeCount();
  }
  EXPECT_TRUE(changed);  // churn 0.5 over >= 8 edges: some epoch differs
}

// --- engine + oracles --------------------------------------------------------

core::RunConfig churnConfig(core::DynamicsSpec dynamics,
                            core::SchedulerKind scheduler,
                            std::uint64_t seed) {
  core::RunConfig config;
  config.mac = testutil::stdParams();
  config.scheduler = scheduler;
  config.dynamics = dynamics;
  config.seed = seed;
  config.recordTrace = true;
  config.limits.maxTime = 50'000;
  return config;
}

TEST(DynamicsEngine, CrashWithoutRecoveryStrandsAMessage) {
  // Message at the head of a line whose center crashes before relaying
  // finishes and never recovers within the horizon: unsolved, and the
  // epoch-aware oracles treat that as a measurement, not a violation.
  const auto base = gen::identityDual(gen::line(8));
  graph::TopologyDynamics dynamics;
  dynamics.epochs.push_back(
      {6, {{TopologyEvent::Kind::kNodeCrash, 4, kNoNode, false}}});
  const TopologyView view(base, dynamics);

  // Hand the engine the view directly (the Experiment facade is
  // exercised by the DynamicsSpec tests below).
  const mac::MacParams params = testutil::stdParams();
  const core::MmbWorkload workload = core::workloadAllAtNode(1, 0);
  core::SolveTracker tracker(base, workload);
  core::BmmbSuite suite(core::QueueDiscipline::kFifo);
  mac::MacEngine engine(view, params,
                        core::makeScheduler(core::SchedulerKind::kSlowAck),
                        suite.factory(), /*seed=*/3);
  tracker.attach(engine, /*stopOnSolve=*/true);
  for (const core::Arrival& a : workload.arrivals) {
    engine.injectArriveAt(a.node, a.msg, a.at);
  }
  tracker.markArrivalsComplete(0);
  const sim::RunStatus status = engine.run(/*timeLimit=*/50'000);
  EXPECT_EQ(status, sim::RunStatus::kDrained);
  EXPECT_FALSE(tracker.solved());
  EXPECT_TRUE(mac::checkTrace(view, params, engine.trace()).ok);
}

TEST(DynamicsEngine, CrashWithRecoverySolvesAndPassesOracles) {
  core::DynamicsSpec dynamics;
  dynamics.kind = core::DynamicsSpec::Kind::kCrash;
  dynamics.crashes = 2;
  dynamics.period = 48;
  dynamics.downFor = 24;
  int solvedRuns = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto base = gen::identityDual(gen::line(10));
    const core::MmbWorkload workload = core::workloadRoundRobin(3, base.n());
    core::Experiment experiment(
        base, core::bmmbProtocol(), workload,
        churnConfig(dynamics, core::SchedulerKind::kRandom, seed));
    const core::RunResult result = experiment.run();
    EXPECT_TRUE(experiment.view().dynamic());
    const check::OracleReport report = check::checkExecution(
        experiment.view(), core::bmmbProtocol(), experiment.engine().params(),
        workload, experiment.engine().trace(), result);
    EXPECT_TRUE(report.ok) << report.summary();
    solvedRuns += result.solved ? 1 : 0;
  }
  // Outages heal, so most seeds still solve; requiring one avoids
  // flaky exactness while proving recovery actually reconnects.
  EXPECT_GE(solvedRuns, 1);
}

TEST(DynamicsEngine, GreyDriftSolvesAndPassesOracles) {
  core::DynamicsSpec dynamics;
  dynamics.kind = core::DynamicsSpec::Kind::kGreyDrift;
  dynamics.epochs = 4;
  dynamics.period = 24;
  dynamics.churn = 0.5;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const auto base = gen::withRRestrictedNoise(gen::line(12), 2, 1.0, rng);
    const core::MmbWorkload workload = core::workloadRoundRobin(3, base.n());
    core::Experiment experiment(
        base, core::bmmbProtocol(), workload,
        churnConfig(dynamics, core::SchedulerKind::kAdversarialStuffing,
                    seed));
    const core::RunResult result = experiment.run();
    // E is untouched by drift, so the solve guarantee survives churn.
    EXPECT_TRUE(result.solved);
    const check::OracleReport report = check::checkExecution(
        experiment.view(), core::bmmbProtocol(), experiment.engine().params(),
        workload, experiment.engine().trace(), result);
    EXPECT_TRUE(report.ok) << report.summary();
  }
}

TEST(DynamicsEngine, ReplayIsBitDeterministic) {
  core::DynamicsSpec dynamics;
  dynamics.kind = core::DynamicsSpec::Kind::kCrash;
  dynamics.crashes = 1;
  dynamics.period = 32;
  dynamics.downFor = 16;
  check::FuzzCase fuzzCase;
  fuzzCase.topology = check::TopologyFamily::kGreyZoneField;
  fuzzCase.n = 12;
  fuzzCase.k = 3;
  fuzzCase.scheduler = core::SchedulerKind::kRandom;
  fuzzCase.seed = 77;
  fuzzCase.dynamics = dynamics;
  const check::ExecutionOutcome a = check::runCase(fuzzCase);
  const check::ExecutionOutcome b = check::runCase(fuzzCase);
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(a.traceHash, b.traceHash);
  EXPECT_TRUE(a.report.ok) << a.report.summary();
}

// Crash runs whose boundaries land on in-flight broadcasts, pinned to
// trace hashes recorded when the boundary reconciliation ran as a
// separate evaluate pass followed by a commit pass.  `shrunkGates`
// counts acked instances that never served some G-neighbor of their
// bcast epoch: each one lost that receiver from its ack gate (and its
// scheduled delivery) at a boundary, so every case exercises the scrub.
TEST(DynamicsEngine, BoundaryScrubKeepsPinnedTraces) {
  struct Pin {
    core::SchedulerKind scheduler;
    std::uint64_t seed;
    std::uint64_t traceHash;
    std::uint64_t forcedRcvs;
    int shrunkGates;
  };
  const Pin pins[] = {
      {core::SchedulerKind::kAdversarial, 1, 0x697899cdc25401a1ull, 119, 7},
      {core::SchedulerKind::kAdversarial, 2, 0x252d4e664ecea394ull, 125, 11},
      {core::SchedulerKind::kRandom, 3, 0xe0c2bf4bf71600a1ull, 1, 2},
      {core::SchedulerKind::kSlowAck, 5, 0xa3da302bf1941d5cull, 2, 2},
  };
  core::DynamicsSpec dynamics;
  dynamics.kind = core::DynamicsSpec::Kind::kCrash;
  dynamics.crashes = 4;
  dynamics.period = 40;
  dynamics.downFor = 20;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "seed " << pin.seed);
    const auto base = gen::identityDual(gen::grid(4, 4));
    const core::MmbWorkload workload = core::workloadRoundRobin(6, base.n());
    core::Experiment experiment(
        base, core::bmmbProtocol(), workload,
        churnConfig(dynamics, pin.scheduler, pin.seed));
    const core::RunResult result = experiment.run();
    const TopologyView& view = experiment.view();
    const mac::MacEngine& engine = experiment.engine();
    EXPECT_TRUE(mac::checkTrace(view, engine.params(), engine.trace()).ok);

    // Settled instances keep only a record, so receivers come from the
    // trace.
    const std::vector<mac::InstanceRecord>& records = engine.instances();
    std::vector<std::vector<NodeId>> receivers(records.size());
    for (const auto& rec : engine.trace().records()) {
      if (rec.kind != sim::TraceKind::kRcv) continue;
      receivers[static_cast<std::size_t>(rec.instance)].push_back(rec.node);
    }
    int shrunkGates = 0;
    for (std::size_t id = 0; id < records.size(); ++id) {
      const mac::InstanceRecord& inst = records[id];
      if (!inst.terminated() || inst.aborted) continue;
      const int e = view.epochAt(inst.bcastAt);
      if (view.epochStart(e) == inst.bcastAt) continue;
      const std::vector<NodeId>& got = receivers[id];
      for (NodeId j : view.dualAt(e).g().neighbors(inst.sender)) {
        if (std::find(got.begin(), got.end(), j) == got.end()) {
          ++shrunkGates;
          break;
        }
      }
    }
    EXPECT_GT(shrunkGates, 0);
    EXPECT_EQ(shrunkGates, pin.shrunkGates);
    EXPECT_EQ(check::traceHash(engine.trace()), pin.traceHash);
    EXPECT_EQ(result.stats.forcedRcvs, pin.forcedRcvs);
  }
}

// --- the dynamics mutation family -------------------------------------------

TEST(DynamicsMutation, StaleTopologySchedulerIsCaughtByEpochAwareOracles) {
  check::FuzzCase fuzzCase;
  fuzzCase.topology = check::TopologyFamily::kRRestrictedLine;
  fuzzCase.n = 8;
  fuzzCase.k = 2;
  fuzzCase.noiseEdgeProb = 1.0;
  fuzzCase.scheduler = core::SchedulerKind::kFast;
  fuzzCase.seed = 5;
  const check::ExecutionOutcome outcome =
      check::runCase(fuzzCase, check::SchedulerMutation::kStaleTopology);
  ASSERT_TRUE(outcome.error.empty()) << outcome.error;
  ASSERT_FALSE(outcome.report.ok);
  bool sawOffGPrime = false;
  for (const mac::Violation& v : outcome.report.macRecords) {
    sawOffGPrime = sawOffGPrime || v.axiom == "rcv-off-gprime";
  }
  EXPECT_TRUE(sawOffGPrime)
      << "expected an epoch-aware rcv-off-gprime violation, got: "
      << outcome.report.summary();
}

TEST(DynamicsMutation, StaleTopologyCampaignFindsViolations) {
  check::FuzzSpec spec;
  spec.masterSeed = 11;
  spec.iterations = 6;
  spec.protocols = {core::ProtocolKind::kBmmb};
  spec.mutation = check::SchedulerMutation::kStaleTopology;
  spec.shrinkBudget = 24;
  const check::FuzzResult result = check::runFuzz(spec);
  // Zero violations from a broken scheduler would mean the epoch-aware
  // checker plumbing is itself broken.
  EXPECT_GT(result.violations, 0);
  ASSERT_FALSE(result.counterexamples.empty());
  EXPECT_GE(result.counterexamples.front().shrinkWins, 0);
}

// --- dynamics as a sweep axis ------------------------------------------------

runner::SweepSpec churnSweep() {
  runner::SweepSpec spec;
  spec.name = "churn-unit";
  spec.topologies = {runner::greyZoneFieldTopology(24, 6.0, 1.5, 0.4)};
  spec.schedulers = {core::SchedulerKind::kFast,
                     core::SchedulerKind::kRandom};
  spec.ks = {2};
  spec.macs = {{"std", testutil::stdParams()}};
  spec.workloads = {runner::roundRobinWorkload()};
  spec.dynamics = {runner::staticDynamics(), runner::crashDynamics(1, 48, 16),
                   runner::greyDriftDynamics(3, 32, 0.4)};
  spec.seedBegin = 1;
  spec.seedEnd = 4;
  spec.check = runner::CheckMode::kFull;
  spec.maxTime = 50'000;
  return spec;
}

TEST(DynamicsSweep, GridCoordinatesRoundTrip) {
  const runner::SweepSpec spec = churnSweep();
  EXPECT_EQ(spec.cellCount(), 6u);
  EXPECT_EQ(spec.runCount(), 18u);
  const auto points = runner::enumerateRuns(spec);
  ASSERT_EQ(points.size(), spec.runCount());
  for (const runner::RunPoint& p : points) {
    const runner::RunPoint q = runner::runPointFor(spec, p.runIndex);
    EXPECT_EQ(q.cellIndex, p.cellIndex);
    EXPECT_EQ(q.dynIdx, p.dynIdx);
    EXPECT_EQ(q.wlIdx, p.wlIdx);
    EXPECT_EQ(q.seed, p.seed);
  }
  // The dynamics axis is innermost: consecutive cells differ in dynIdx.
  EXPECT_EQ(points[0].dynIdx, 0u);
  const std::size_t seeds = spec.seedsPerCell();
  EXPECT_EQ(points[seeds].dynIdx, 1u);
  EXPECT_EQ(points[2 * seeds].dynIdx, 2u);
}

TEST(DynamicsSweep, ChurnCampaignIsThreadCountInvariantAndOracleClean) {
  const runner::SweepSpec spec = churnSweep();
  runner::SweepRunner::Options one;
  one.threads = 1;
  runner::SweepRunner::Options four;
  four.threads = 4;
  runner::SweepRunner::Options eight;
  eight.threads = 8;
  const runner::SweepResult r1 = runner::SweepRunner(one).run(spec);
  const runner::SweepResult r4 = runner::SweepRunner(four).run(spec);
  const runner::SweepResult r8 = runner::SweepRunner(eight).run(spec);
  EXPECT_EQ(runner::cellsCsv(r1), runner::cellsCsv(r4));
  EXPECT_EQ(runner::cellsCsv(r1), runner::cellsCsv(r8));
  EXPECT_EQ(r1.checkViolationCount(), 0u);
  EXPECT_EQ(r1.errorCount(), 0u);
  ASSERT_EQ(r1.runs.size(), r4.runs.size());
  for (std::size_t i = 0; i < r1.runs.size(); ++i) {
    EXPECT_EQ(r1.runs[i].traceHash, r4.runs[i].traceHash);
    EXPECT_EQ(r1.runs[i].traceHash, r8.runs[i].traceHash);
  }
  // The label column distinguishes the dynamics cells.
  const std::string csv = runner::cellsCsv(r1);
  EXPECT_NE(csv.find(",static,"), std::string::npos);
  EXPECT_NE(csv.find(",crash1p48d16,"), std::string::npos);
  EXPECT_NE(csv.find(",drift3p32c0.4,"), std::string::npos);
}

// --- spec files --------------------------------------------------------------

TEST(DynamicsSpecIo, DynamicsAxisRoundTrips) {
  const std::string text = R"({
    "name": "dyn-round-trip",
    "protocol": "bmmb",
    "topologies": [{"kind": "line", "n": 8}],
    "schedulers": ["fast"],
    "ks": [2],
    "macs": [{"name": "std", "fack": 32, "fprog": 4}],
    "workloads": [{"kind": "spread"}],
    "dynamics": [
      {"kind": "static"},
      {"kind": "crash", "crashes": 2, "period": 64, "down_for": 24},
      {"kind": "grey-drift", "epochs": 4, "period": 48, "churn": 0.35,
       "name": "gentle-drift"}
    ],
    "seed_begin": 1, "seed_end": 3
  })";
  const runner::SpecDoc doc = runner::parseSpec(text);
  ASSERT_EQ(doc.dynamics.size(), 3u);
  EXPECT_EQ(doc.dynamics[0].name, "static");
  EXPECT_EQ(doc.dynamics[1].name, "crash2p64d24");
  EXPECT_EQ(doc.dynamics[1].spec.downFor, 24);
  EXPECT_EQ(doc.dynamics[2].name, "gentle-drift");
  EXPECT_DOUBLE_EQ(doc.dynamics[2].spec.churn, 0.35);

  // Canonical writer fixpoint.
  const std::string canonical = runner::writeSpec(doc);
  const runner::SpecDoc reparsed = runner::parseSpec(canonical);
  EXPECT_EQ(runner::writeSpec(reparsed), canonical);
  EXPECT_EQ(runner::specFingerprint(doc), runner::specFingerprint(reparsed));

  const runner::SweepSpec spec = runner::buildSweep(doc);
  ASSERT_EQ(spec.dynamics.size(), 3u);
  EXPECT_EQ(spec.dynamics[2].name, "gentle-drift");
  EXPECT_EQ(spec.cellCount(), 3u);

  // Omitting the key defaults to a single static point; an empty axis
  // and unknown knobs are rejected loudly.
  runner::SpecDoc defaulted = runner::parseSpec(R"({
    "name": "s", "protocol": "bmmb",
    "topologies": [{"kind": "line", "n": 4}], "schedulers": ["fast"],
    "ks": [1], "macs": [{}], "workloads": [{"kind": "round-robin"}],
    "seed_begin": 1, "seed_end": 2
  })");
  ASSERT_EQ(defaulted.dynamics.size(), 1u);
  EXPECT_TRUE(defaulted.dynamics[0].spec.isStatic());
  EXPECT_THROW(runner::parseSpec(R"({
    "name": "s", "protocol": "bmmb",
    "topologies": [{"kind": "line", "n": 4}], "schedulers": ["fast"],
    "ks": [1], "macs": [{}], "workloads": [{"kind": "round-robin"}],
    "dynamics": [{"kind": "crash", "crashes": 1, "period": 8,
                  "down_for": 4, "typo": 1}],
    "seed_begin": 1, "seed_end": 2
  })"),
               Error);
}

TEST(DynamicsSpecIo, ChurnGridSpecFileBuildsAndRuns) {
  const runner::SpecDoc doc =
      runner::loadSpecFile(std::string(AMMB_SWEEPS_DIR) + "/churn_grid.json");
  ASSERT_EQ(doc.dynamics.size(), 3u);
  EXPECT_EQ(doc.check, runner::CheckMode::kFull);
  runner::SweepSpec spec = runner::buildSweep(doc);
  // One cell per dynamics kind, one seed: a fast end-to-end smoke that
  // the committed campaign's dynamic cells execute and check clean.
  spec.topologies = {spec.topologies[1]};
  spec.schedulers = {core::SchedulerKind::kFast};
  spec.ks = {2};
  spec.workloads = {spec.workloads[0]};
  spec.seedEnd = spec.seedBegin + 1;
  const runner::SweepResult result = runner::SweepRunner().run(spec);
  EXPECT_EQ(result.errorCount(), 0u);
  EXPECT_EQ(result.checkViolationCount(), 0u);
  EXPECT_EQ(result.cells.size(), 3u);
}

}  // namespace
}  // namespace ammb
