// The churn-reactive protocol layer, end to end: ReactionSpec labels,
// BMMB retransmit-on-recovery vs the stranding failure mode, the
// re-scoped dynamic liveness oracle (and its kDropOnRecovery negative
// fixture), the overflow-clamped fuzz time budget, the epoch-aware
// FMMB rebase across drift boundaries, and the reaction axis through
// the sweep runner, emitters and spec files.
#include <gtest/gtest.h>

#include <limits>

#include "check/fuzzer.h"
#include "check/golden.h"
#include "check/mutation.h"
#include "check/oracles.h"
#include "core/reaction.h"
#include "graph/generators.h"
#include "graph/topology_view.h"
#include "runner/emit.h"
#include "runner/spec_io.h"
#include "runner/sweep_runner.h"
#include "test_util.h"

namespace ammb {
namespace {

namespace gen = graph::gen;
using check::ExecutionOutcome;
using check::FuzzCase;
using check::SchedulerMutation;
using check::TopologyFamily;
using check::WorkloadShape;
using core::ReactionSpec;

/// The stranding scenario this layer exists for: all k messages at the
/// head of a line, one early crash with a long outage (the victim can
/// be acked while its radio is down), and a recovery that restores the
/// full line well before the horizon.
FuzzCase strandingCase(std::uint64_t seed) {
  FuzzCase c;
  c.protocol = core::ProtocolKind::kBmmb;
  c.topology = TopologyFamily::kLine;
  c.n = 8;
  c.k = 2;
  c.workload = WorkloadShape::kAllAtZero;
  c.scheduler = core::SchedulerKind::kFast;
  c.mac = testutil::stdParams(4, 32);
  c.dynamics.kind = core::DynamicsSpec::Kind::kCrash;
  c.dynamics.crashes = 1;
  c.dynamics.period = 6;
  c.dynamics.downFor = 5;
  c.maxTime = check::bmmbFuzzTimeBudget(c.n, c.k, c.mac.fack);
  c.seed = seed;
  return c;
}

TEST(ReactionSpecUnit, LabelsRoundTrip) {
  EXPECT_EQ(ReactionSpec{}.label(), "none");
  ReactionSpec r;
  r.kind = ReactionSpec::Kind::kRetransmit;
  EXPECT_EQ(r.label(), "retransmit");
  r.kind = ReactionSpec::Kind::kRetransmitRemis;
  EXPECT_EQ(r.label(), "retransmit+remis");
  EXPECT_TRUE(r.remis());
  for (const char* label : {"none", "retransmit", "retransmit+remis"}) {
    EXPECT_EQ(ReactionSpec::fromLabel(label).label(), label);
  }
  EXPECT_THROW(ReactionSpec::fromLabel("bogus"), Error);
}

TEST(ReactionProtocol, RetransmitSolvesWhereNoneStrands) {
  int stranded = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ExecutionOutcome off = check::runCase(strandingCase(seed));
    ASSERT_TRUE(off.error.empty()) << off.error;
    // Reaction-free churn runs keep the liveness oracle suspended: a
    // stranded run is a measurement of the paper's protocol under
    // churn, not a checker violation.
    EXPECT_TRUE(off.report.ok) << off.report.summary();
    if (!off.result.solved &&
        off.result.status == sim::RunStatus::kDrained) {
      ++stranded;
    }

    FuzzCase reactive = strandingCase(seed);
    reactive.reaction.kind = ReactionSpec::Kind::kRetransmit;
    const ExecutionOutcome on = check::runCase(reactive);
    ASSERT_TRUE(on.error.empty()) << on.error;
    EXPECT_TRUE(on.report.ok) << on.report.summary();
    // The restored oracle polices exactly this: a reactive run whose
    // final epoch restores connectivity must solve.
    EXPECT_TRUE(on.result.solved) << "seed " << seed;
    if (!off.result.solved) {
      EXPECT_GT(on.result.retransmits, 0u) << "seed " << seed;
    }
  }
  // The schedule is tuned so the reaction-free protocol actually
  // strands somewhere in the seed range — otherwise the comparison
  // above proves nothing.
  EXPECT_GE(stranded, 1);
}

TEST(ReactionOracle, QuiescedReactiveRunWithRecoveryIsAViolation) {
  // kDropOnRecovery suppresses the epoch notifications an honest
  // engine delivers, so the reactive protocol never re-arms: the run
  // drains unsolved even though the final epoch restored connectivity
  // — exactly the quiesced shape the re-scoped liveness oracle exists
  // to flag.
  int flagged = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    FuzzCase c = strandingCase(seed);
    c.reaction.kind = ReactionSpec::Kind::kRetransmit;
    const ExecutionOutcome outcome =
        check::runCase(c, SchedulerMutation::kDropOnRecovery);
    ASSERT_TRUE(outcome.error.empty()) << outcome.error;
    if (!outcome.report.ok) {
      ++flagged;
      EXPECT_NE(outcome.report.summary().find("liveness:"),
                std::string::npos)
          << outcome.report.summary();
    }
  }
  EXPECT_GE(flagged, 1);
}

TEST(ReactionOracle, FinalEpochConnectivityScoping) {
  const auto base = gen::identityDual(gen::line(6));
  EXPECT_TRUE(
      check::finalEpochRestoresConnectivity(graph::TopologyView(base)));

  // A crash that never heals ends the run partitioned: the oracle
  // stays suspended no matter how reactive the protocol is.
  graph::TopologyDynamics crashOnly;
  crashOnly.epochs.push_back(
      {8, {{graph::TopologyEvent::Kind::kNodeCrash, 2, kNoNode, false}}});
  EXPECT_FALSE(check::finalEpochRestoresConnectivity(
      graph::TopologyView(base, crashOnly)));

  graph::TopologyDynamics healed = crashOnly;
  healed.epochs.push_back(
      {16, {{graph::TopologyEvent::Kind::kNodeRecover, 2, kNoNode, false}}});
  EXPECT_TRUE(check::finalEpochRestoresConnectivity(
      graph::TopologyView(base, healed)));
}

TEST(ReactionBudget, FuzzTimeBudgetClampsInsteadOfOverflowing) {
  EXPECT_EQ(check::bmmbFuzzTimeBudget(8, 2, 32),
            Time{8} * (8 + 2) * 32 + 4096);
  // Large but representable stays exact — the clamp must not round.
  EXPECT_EQ(check::bmmbFuzzTimeBudget(1000, 6, 1'000'000),
            Time{8} * 1006 * 1'000'000 + 4096);
  // The naive 8 * (n + k) * fack wraps Time negative on these corners
  // (shrinker- and hand-reproduction-reachable); the checked budget
  // saturates to "no time limit" instead of truncating the run at 0.
  const Time huge = std::numeric_limits<Time>::max() / 4;
  EXPECT_EQ(check::bmmbFuzzTimeBudget(2, 1, huge), kTimeNever);
  EXPECT_EQ(check::bmmbFuzzTimeBudget(1'000'000, 1'000'000, huge),
            kTimeNever);
}

TEST(ReactionProtocol, FmmbRemisRebasesAcrossDrift) {
  // The committed golden scenario: the first drift boundary lands
  // mid-MIS-phase, so the rebase restarts an in-flight stage.
  FuzzCase c;
  bool found = false;
  for (const check::GoldenCase& gc : check::goldenCaseSuite()) {
    if (gc.name == "fmmb-drift-remis") {
      c = gc.fuzzCase;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  ASSERT_EQ(c.protocol, core::ProtocolKind::kFmmb);
  ASSERT_TRUE(c.reaction.remis());
  const ExecutionOutcome serial = check::runCase(
      c, SchedulerMutation::kNone, /*keepCanonicalTrace=*/true);
  ASSERT_TRUE(serial.error.empty()) << serial.error;
  EXPECT_TRUE(serial.report.ok) << serial.report.summary();
  // Every node rebases at every drift boundary, so the rebase counter
  // proves the remis path actually ran.
  EXPECT_GT(serial.result.retransmits, 0u);
}

TEST(ReactionSweep, AxisDoublesCellsAndEmittersCarryReaction) {
  runner::SweepSpec spec;
  spec.name = "react-axis";
  spec.topologies = {runner::lineTopology(8)};
  spec.schedulers = {core::SchedulerKind::kFast};
  spec.ks = {2};
  spec.macs = {{"f4a32", testutil::stdParams(4, 32)}};
  spec.workloads = {runner::allAtNodeWorkload(0)};
  spec.dynamics = {runner::crashDynamics(1, 6, 5)};
  spec.reactions = {ReactionSpec{}, ReactionSpec::fromLabel("retransmit")};
  spec.seedBegin = 1;
  spec.seedEnd = 5;
  spec.check = runner::CheckMode::kFull;

  ASSERT_EQ(spec.cellCount(), 2u);
  const runner::SweepResult result = runner::SweepRunner().run(spec);
  EXPECT_EQ(result.errorCount(), 0u);
  EXPECT_EQ(result.checkViolationCount(), 0u);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].reaction, "none");
  EXPECT_EQ(result.cells[1].reaction, "retransmit");
  EXPECT_EQ(result.cells[0].retransmits, 0u);
  // The acceptance shape of the whole layer: the reactive cell solves
  // everything, and strictly beats the reaction-free cell whenever the
  // latter stranded a run.
  EXPECT_EQ(result.cells[1].solved, result.cells[1].runs);
  EXPECT_GE(result.cells[1].solved, result.cells[0].solved);
  if (result.cells[0].solved < result.cells[0].runs) {
    EXPECT_GT(result.cells[1].retransmits, 0u);
  }

  // Cell JSON carries the reaction only for reactive cells, so every
  // pre-reaction baseline stays byte-identical.
  const std::string json = runner::toJson(result);
  EXPECT_NE(json.find("\"reaction\": \"retransmit\""), std::string::npos);
  EXPECT_EQ(json.find("\"reaction\": \"none\""), std::string::npos);
  const std::string csv = runner::cellsCsv(result);
  EXPECT_NE(csv.find(",reaction,"), std::string::npos);
  EXPECT_NE(csv.find(",retransmits,"), std::string::npos);
}

TEST(ReactionSweep, RecordJsonRoundTripsReactionCoordinate) {
  runner::RunRecord record;
  record.point.runIndex = 3;
  record.point.cellIndex = 1;
  record.point.reactIdx = 1;
  record.result.retransmits = 7;
  const runner::RunRecord back =
      runner::recordFromJson(runner::recordToJson(record), "test");
  EXPECT_EQ(back.point.reactIdx, 1u);
  EXPECT_EQ(back.result.retransmits, 7u);

  // Reaction-free records omit both keys, so files from before the
  // axis existed (and every reaction-free journal/shard) keep their
  // exact bytes and still parse.
  const runner::RunRecord plain;
  const std::string dumped =
      runner::json::dump(runner::recordToJson(plain), 0);
  EXPECT_EQ(dumped.find("react_idx"), std::string::npos);
  EXPECT_EQ(dumped.find("retransmits"), std::string::npos);
  const runner::RunRecord plainBack =
      runner::recordFromJson(runner::recordToJson(plain), "test");
  EXPECT_EQ(plainBack.point.reactIdx, 0u);
  EXPECT_EQ(plainBack.result.retransmits, 0u);
}

TEST(ReactionSweep, SpecFileReactionsRoundTripAndRefingerprint) {
  const runner::SpecDoc doc = runner::loadSpecFile(
      std::string(AMMB_SWEEPS_DIR) + "/churn_react_grid.json");
  ASSERT_EQ(doc.reactions.size(), 2u);
  EXPECT_EQ(doc.reactions[0].label(), "none");
  EXPECT_EQ(doc.reactions[1].label(), "retransmit");
  runner::buildSweep(doc);  // full semantic validation

  const std::string canonical = runner::writeSpec(doc);
  EXPECT_NE(canonical.find("\"reactions\""), std::string::npos);
  EXPECT_EQ(runner::writeSpec(runner::parseSpec(canonical)), canonical);

  // The default axis is elided, so pre-reaction spec files keep their
  // canonical bytes — and a reactive axis changes the fingerprint, so
  // reactive shards can never merge against the reaction-free campaign.
  runner::SpecDoc defaulted = doc;
  defaulted.reactions = {ReactionSpec{}};
  EXPECT_EQ(runner::writeSpec(defaulted).find("\"reactions\""),
            std::string::npos);
  EXPECT_NE(runner::specFingerprint(doc),
            runner::specFingerprint(defaulted));
}

}  // namespace
}  // namespace ammb
