// The fuzzing subsystem's smoke campaign: a fixed-seed, 200-execution
// sweep of the sampling space must pass every oracle; the sampler and
// executor must be bit-deterministic; the mutation fixtures (broken
// schedulers) must be caught and shrunk to minimal counterexamples;
// and the greedy shrinker must reach local minima on a known predicate.
#include <gtest/gtest.h>

#include "check/fuzzer.h"
#include "check/shrink.h"
#include "phys/csma.h"

namespace ammb::check {
namespace {

using core::ProtocolKind;
using core::SchedulerKind;

/// The acceptance campaign: >= 200 executions, both protocols, every
/// topology family, five scheduler kinds, eager + streaming arrivals.
FuzzSpec smokeSpec() {
  FuzzSpec spec;
  spec.masterSeed = 42;
  spec.iterations = 200;
  spec.maxN = 16;
  spec.maxFmmbN = 10;
  return spec;
}

TEST(FuzzSmoke, TwoHundredRandomExecutionsPassEveryOracle) {
  const FuzzSpec spec = smokeSpec();
  const FuzzResult result = runFuzz(spec);
  EXPECT_EQ(result.executions, 200);
  for (const Counterexample& ce : result.counterexamples) {
    ADD_FAILURE() << ce.describe();
  }
  EXPECT_EQ(result.violations, 0);

  // Coverage: the campaign exercised the whole advertised mix.
  const auto covered = [&result](const std::string& label) {
    const auto it = result.coverage.find(label);
    return it != result.coverage.end() && it->second > 0;
  };
  EXPECT_TRUE(covered("protocol:bmmb"));
  EXPECT_TRUE(covered("protocol:fmmb"));
  int topologyFamilies = 0;
  int schedulerKinds = 0;
  int streamingRuns = 0;
  for (const auto& [label, count] : result.coverage) {
    if (label.rfind("topology:", 0) == 0 && count > 0) ++topologyFamilies;
    if (label.rfind("scheduler:", 0) == 0 && count > 0) ++schedulerKinds;
    if ((label == "workload:poisson" || label == "workload:bursty" ||
         label == "workload:staggered")) {
      streamingRuns += count;
    }
  }
  EXPECT_GE(topologyFamilies, 3);
  EXPECT_GE(schedulerKinds, 3);
  EXPECT_GT(streamingRuns, 0);
}

TEST(FuzzSmoke, CsmaRotationIsAuditedAndKeepsItsBudget) {
  // The CSMA rotation fires on BMMB cases with i % 5 == 2.  The
  // per-case provenance the --json audit records (the mac label, also
  // printed by toString) must carry the realization, and the rotation's
  // envelope-derived time budget must not be truncated by the sampled
  // cell's much smaller Fack.
  const FuzzSpec spec = smokeSpec();
  int realized = 0;
  for (int i = 2; i < spec.iterations; i += 5) {
    const FuzzCase c = sampleCase(spec, i);
    if (c.protocol != ProtocolKind::kBmmb) continue;  // CSMA is BMMB-only
    ++realized;
    EXPECT_FALSE(c.realization.abstract()) << toString(c);
    const std::string label = toString(c);
    EXPECT_NE(label.find(" mac="), std::string::npos) << label;
    // The envelope budget dominates the abstract-cell budget (the
    // engine enforces the envelope's Fack, not the sampled one).
    EXPECT_GE(c.maxTime, bmmbFuzzTimeBudget(c.n, c.k, c.mac.fack)) << label;
  }
  EXPECT_GE(realized, 1);
}

TEST(FuzzSmoke, SamplingIsSeedDeterministic) {
  const FuzzSpec spec = smokeSpec();
  for (int i = 0; i < 32; ++i) {
    const FuzzCase a = sampleCase(spec, i);
    const FuzzCase b = sampleCase(spec, i);
    EXPECT_EQ(toString(a), toString(b));
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.maxTime, b.maxTime);
  }
  // Different iterations draw different cases (no accidental stream
  // reuse collapsing the campaign to one case).
  EXPECT_NE(sampleCase(spec, 0).seed, sampleCase(spec, 1).seed);
}

TEST(FuzzSmoke, ExecutionIsReplayDeterministic) {
  const FuzzSpec spec = smokeSpec();
  for (int i = 0; i < 8; ++i) {
    const FuzzCase c = sampleCase(spec, i);
    const ExecutionOutcome a = runCase(c);
    const ExecutionOutcome b = runCase(c);
    ASSERT_EQ(a.error, b.error) << toString(c);
    EXPECT_EQ(a.traceHash, b.traceHash) << toString(c);
    EXPECT_EQ(a.result.solveTime, b.result.solveTime) << toString(c);
    EXPECT_EQ(a.result.stats.rcvs, b.result.stats.rcvs) << toString(c);
  }
}

/// Mutation campaigns restricted to BMMB (FMMB's round-boundary aborts
/// preempt the late acks the fixtures plant) on families with room for
/// an off-G' receiver.
FuzzSpec mutationSpec(SchedulerMutation mutation) {
  FuzzSpec spec;
  spec.masterSeed = 7;
  spec.iterations = 10;
  spec.protocols = {ProtocolKind::kBmmb};
  spec.topologies = {TopologyFamily::kLine, TopologyFamily::kRRestrictedLine,
                     TopologyFamily::kRandomTree};
  spec.maxN = 12;
  spec.mutation = mutation;
  return spec;
}

TEST(FuzzMutation, LateAckSchedulerIsCaughtAndShrunk) {
  const FuzzResult result = runFuzz(mutationSpec(SchedulerMutation::kLateAck));
  EXPECT_EQ(result.executions, 10);
  // Every execution acks late; every execution must be flagged.
  EXPECT_EQ(result.violations, 10);
  ASSERT_FALSE(result.counterexamples.empty());
  for (const Counterexample& ce : result.counterexamples) {
    ASSERT_TRUE(ce.error.empty()) << ce.error;
    bool ackBound = false;
    for (const std::string& v : ce.report.violations) {
      if (v.find("ack bound") != std::string::npos) ackBound = true;
    }
    EXPECT_TRUE(ackBound) << ce.describe();
    // The failure survives every simplification, so the shrinker must
    // reach the global minimum of the case space.
    EXPECT_EQ(ce.shrunk.topology, TopologyFamily::kLine) << ce.describe();
    EXPECT_EQ(ce.shrunk.workload, WorkloadShape::kAllAtZero) << ce.describe();
    EXPECT_EQ(ce.shrunk.n, 2) << ce.describe();
    EXPECT_EQ(ce.shrunk.k, 1) << ce.describe();
    EXPECT_LE(ce.shrunk.n, ce.original.n);
    EXPECT_LE(ce.shrunk.k, ce.original.k);
    EXPECT_GT(ce.shrinkWins, 0) << ce.describe();
  }
}

TEST(FuzzMutation, OffGPrimeSchedulerIsCaughtAndShrunk) {
  const FuzzResult result =
      runFuzz(mutationSpec(SchedulerMutation::kOffGPrime));
  EXPECT_EQ(result.executions, 10);
  EXPECT_GE(result.violations, 1);
  ASSERT_FALSE(result.counterexamples.empty());
  for (const Counterexample& ce : result.counterexamples) {
    ASSERT_TRUE(ce.error.empty()) << ce.error;
    bool offGPrime = false;
    for (const std::string& v : ce.report.violations) {
      if (v.find("outside G'") != std::string::npos) offGPrime = true;
    }
    EXPECT_TRUE(offGPrime) << ce.describe();
    // A 2-node line has no off-G' receiver, so the minimum is n = 3.
    EXPECT_LE(ce.shrunk.n, ce.original.n);
    EXPECT_GE(ce.shrunk.n, 3) << ce.describe();
    EXPECT_EQ(ce.shrunk.k, 1) << ce.describe();
  }
}

TEST(FuzzMutation, DropOnRecoveryQuiescenceIsCaught) {
  // The negative fixture for the re-scoped dynamic liveness oracle:
  // the sampler pins a stranding crash schedule with the retransmit
  // reaction armed, and the mutant scheduler swallows the epoch
  // notifications an honest engine would deliver.  The protocol never
  // re-arms, the run drains unsolved with the final epoch connected,
  // and the oracle must flag it.
  const FuzzResult result =
      runFuzz(mutationSpec(SchedulerMutation::kDropOnRecovery));
  EXPECT_EQ(result.executions, 10);
  EXPECT_GE(result.violations, 1);
  ASSERT_FALSE(result.counterexamples.empty());
  for (const Counterexample& ce : result.counterexamples) {
    ASSERT_TRUE(ce.error.empty()) << ce.error;
    bool liveness = false;
    for (const std::string& v : ce.report.violations) {
      if (v.find("liveness") != std::string::npos) liveness = true;
    }
    EXPECT_TRUE(liveness) << ce.describe();
    EXPECT_LE(ce.shrunk.n, ce.original.n);
  }
}

TEST(Shrinker, ReachesTheLocalMinimumOfAKnownPredicate) {
  FuzzCase failing;
  failing.topology = TopologyFamily::kGreyZoneField;
  failing.workload = WorkloadShape::kPoisson;
  failing.n = 16;
  failing.k = 6;
  failing.maxTime = 100'000;
  // "Fails" whenever n >= 5 and k >= 2, independent of everything else.
  const FailPredicate pred = [](const FuzzCase& c) {
    return c.n >= 5 && c.k >= 2;
  };
  const ShrinkOutcome out = shrinkCase(failing, pred, 256);
  EXPECT_EQ(out.best.n, 5);
  EXPECT_EQ(out.best.k, 2);
  EXPECT_EQ(out.best.topology, TopologyFamily::kLine);
  EXPECT_EQ(out.best.workload, WorkloadShape::kAllAtZero);
  EXPECT_GT(out.wins, 0);
  EXPECT_LE(out.attempts, 256);
}

TEST(Shrinker, BudgetBoundsReExecutions) {
  FuzzCase failing;
  failing.n = 1024;
  failing.k = 64;
  const FailPredicate pred = [](const FuzzCase&) { return true; };
  const ShrinkOutcome out = shrinkCase(failing, pred, 3);
  EXPECT_LE(out.attempts, 3);
  EXPECT_LE(out.best.n, failing.n);
}

TEST(FuzzSpecValidation, RejectsIllFormedSpecs) {
  FuzzSpec empty;
  empty.schedulers.clear();
  EXPECT_THROW(empty.validate(), Error);

  FuzzSpec lowerBound;
  lowerBound.schedulers = {SchedulerKind::kLowerBound};
  EXPECT_THROW(lowerBound.validate(), Error);

  FuzzSpec badN;
  badN.minN = 1;
  EXPECT_THROW(badN.validate(), Error);

  FuzzSpec zeroIters;
  zeroIters.iterations = 0;
  EXPECT_THROW(zeroIters.validate(), Error);
}

}  // namespace
}  // namespace ammb::check
