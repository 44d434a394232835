// Time-bound assertions for BMMB: the paper's theorems hold on every
// execution our engine can produce, with the exact constants of
// Theorem 3.16 (r-restricted, G'=G as r=1) and Theorem 3.1 (arbitrary
// G').  These are the strongest correctness tests in the suite — a
// scheduler or guard bug that grants the adversary illegal power shows
// up here as a bound violation.
#include <gtest/gtest.h>

#include <tuple>

#include "core/bounds.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "runner/sweep_spec.h"
#include "test_util.h"

namespace ammb {
namespace {

using core::RunConfig;
using core::SchedulerKind;
using core::Theorem;
namespace gen = graph::gen;
using testutil::enhParams;
using testutil::stdParams;

const std::vector<SchedulerKind> kAllSchedulers = {
    SchedulerKind::kFast, SchedulerKind::kRandom, SchedulerKind::kSlowAck,
    SchedulerKind::kAdversarial, SchedulerKind::kAdversarialStuffing};

// --- G' = G (r = 1): O(D Fprog + k Fack), Theorem 3.16 with r = 1 ----------

class GgBound : public ::testing::TestWithParam<
                    std::tuple<int /*n*/, int /*k*/, SchedulerKind>> {};

TEST_P(GgBound, LineRespectsTheorem316) {
  const auto [n, k, sched] = GetParam();
  const auto topo = gen::identityDual(gen::line(n));
  const int D = n - 1;
  const auto workload = core::workloadAllAtNode(k, 0);
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = sched;
  core::Experiment experiment(topo, core::bmmbProtocol(), workload,
                              config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  const Time bound = core::bmmbRRestrictedBound(D, k, 1, config.mac);
  EXPECT_LE(result.solveTime, bound)
      << "scheduler " << core::toString(sched);
  const auto check =
      mac::checkTrace(topo, config.mac, experiment.engine().trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GgBound,
    ::testing::Combine(::testing::Values(8, 16, 33),
                       ::testing::Values(1, 4, 9),
                       ::testing::ValuesIn(kAllSchedulers)));

// --- r-restricted G': Theorem 3.16 -------------------------------------------

class RRestrictedBound
    : public ::testing::TestWithParam<std::tuple<int /*r*/, SchedulerKind>> {};

TEST_P(RRestrictedBound, LineWithRNoiseRespectsTheorem316) {
  const auto [r, sched] = GetParam();
  Rng rng(42 + r);
  const int n = 24;
  const int k = 5;
  const auto topo = gen::withRRestrictedNoise(gen::line(n), r, 0.7, rng);
  ASSERT_TRUE(topo.isRRestricted(r));
  const int D = n - 1;
  const auto workload = core::workloadRoundRobin(k, n);
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = sched;
  core::Experiment experiment(topo, core::bmmbProtocol(), workload,
                              config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  EXPECT_LE(result.solveTime, core::bmmbRRestrictedBound(D, k, r, config.mac));
  const auto check =
      mac::checkTrace(topo, config.mac, experiment.engine().trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RRestrictedBound,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::ValuesIn(kAllSchedulers)));

// --- arbitrary G': Theorem 3.1 -----------------------------------------------

class ArbitraryBound
    : public ::testing::TestWithParam<std::tuple<int /*k*/, SchedulerKind>> {};

TEST_P(ArbitraryBound, LongRangeNoiseRespectsTheorem31) {
  const auto [k, sched] = GetParam();
  Rng rng(7);
  const int n = 20;
  const auto topo = gen::withArbitraryNoise(gen::line(n), 10, rng);
  const int D = topo.g().diameter();
  const auto workload = core::workloadRoundRobin(k, n);
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = sched;
  core::Experiment experiment(topo, core::bmmbProtocol(), workload,
                              config);
  const auto result = experiment.run();
  ASSERT_TRUE(result.solved);
  EXPECT_LE(result.solveTime, core::bmmbArbitraryBound(D, k, config.mac));
  const auto check =
      mac::checkTrace(topo, config.mac, experiment.engine().trace());
  EXPECT_TRUE(check.ok) << check.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArbitraryBound,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::ValuesIn(kAllSchedulers)));

// --- grids under every scheduler ---------------------------------------------

TEST(BmmbBounds, GridGgBoundHoldsForAllSchedulers) {
  const auto topo = gen::identityDual(gen::grid(6, 5));
  const int D = topo.g().diameter();
  const int k = 6;
  const auto workload = core::workloadRoundRobin(k, topo.n());
  for (SchedulerKind sched : kAllSchedulers) {
    RunConfig config;
    config.mac = stdParams(3, 48);
    config.scheduler = sched;
    const auto result = core::runExperiment(topo, core::bmmbProtocol(), workload, config);
    ASSERT_TRUE(result.solved);
    EXPECT_LE(result.solveTime,
              core::bmmbRRestrictedBound(D, k, 1, config.mac))
        << core::toString(sched);
  }
}

// --- the structural insight: arbitrary >> r-restricted under adversary -------

TEST(BmmbBounds, StructureOfUnreliabilityGovernsTheDamage) {
  // The paper's discussion: the *structure*, not the quantity, of
  // unreliable links drives worst-case time.  Compare two executions
  // with the same line length, k = 2 and identical timing:
  //  (a) the Figure-2 network C, whose cross edges connect nodes that
  //      are FAR in G (different components), driven by the paper's
  //      own adversary: Theta(D Fack);
  //  (b) a single line with MANY short (2-restricted) unreliable
  //      edges under the generic adversary: O(D Fprog + 2 k Fack).
  const int D = 32;
  const auto netC = gen::lowerBoundNetworkC(D);
  core::MmbWorkload wC;
  wC.k = 2;
  wC.arrivals = {{0, 0}, {static_cast<NodeId>(D), 1}};
  RunConfig cfgC;
  cfgC.mac = stdParams(2, 64);
  cfgC.scheduler = SchedulerKind::kLowerBound;
  cfgC.scheduler.lowerBoundLineLength = D;
  const auto tFar = core::runExperiment(netC, core::bmmbProtocol(), wC, cfgC);

  Rng rng(5);
  const auto local = gen::withRRestrictedNoise(gen::line(D), 2, 1.0, rng);
  RunConfig cfgLocal;
  cfgLocal.mac = stdParams(2, 64);
  cfgLocal.scheduler = SchedulerKind::kAdversarialStuffing;
  const auto tLocal =
      core::runExperiment(local, core::bmmbProtocol(),
                          core::workloadRoundRobin(2, D), cfgLocal);

  ASSERT_TRUE(tFar.solved);
  ASSERT_TRUE(tLocal.solved);
  // Network C has 2(D-1) unreliable edges; the local topology has
  // many more — yet the long-distance structure costs far more time.
  EXPECT_GE(tFar.solveTime, static_cast<Time>(D - 1) * cfgC.mac.fack);
  EXPECT_LE(tLocal.solveTime,
            core::bmmbRRestrictedBound(D - 1, 2, 2, cfgLocal.mac));
  EXPECT_GT(tFar.solveTime, 3 * tLocal.solveTime);
}

// --- applicableBound: which theorem covers a run -----------------------------

RunConfig standardConfig() {
  RunConfig config;
  config.mac = stdParams(4, 64);
  return config;
}

TEST(ApplicableBound, GgLineGetsTheorem316AtRadiusOne) {
  const auto topo = gen::identityDual(gen::line(16));
  const auto bound = core::applicableBound(
      topo, core::workloadAllAtNode(4, 0), standardConfig(),
      core::bmmbProtocol());
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(bound->theorem, Theorem::k3_16);
  EXPECT_EQ(bound->diameter, 15);
  EXPECT_EQ(bound->radius, 1);
  EXPECT_EQ(bound->ticks,
            core::bmmbRRestrictedBound(15, 4, 1, stdParams(4, 64)));
}

TEST(ApplicableBound, RRestrictedLineGetsTheorem316AtItsGeneratedRadius) {
  // The spec's "line-r" family: r = 4 is the cap, the radius the seed
  // happens to generate is what the bound is evaluated at.
  const auto topo = runner::rRestrictedLineTopology(64, 4, 0.7).make(1);
  const auto radius = topo.restrictionRadius();
  ASSERT_TRUE(radius.has_value());
  ASSERT_GE(*radius, 2);
  ASSERT_LE(*radius, 4);
  const auto bound = core::applicableBound(
      topo, core::workloadRoundRobin(8, 64), standardConfig(),
      core::bmmbProtocol());
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(bound->theorem, Theorem::k3_16);
  EXPECT_EQ(bound->radius, radius);
  EXPECT_EQ(bound->ticks,
            core::bmmbRRestrictedBound(63, 8, *radius, stdParams(4, 64)));
}

TEST(ApplicableBound, ArbitraryNoiseLineGetsTheorem31) {
  // Long random E'-only edges give a finite but large radius, where
  // Theorem 3.1 is the tighter of the two.
  const auto topo = runner::arbitraryNoiseLineTopology(32, 32).make(1);
  const auto mac = stdParams(4, 64);
  const auto bound = core::applicableBound(
      topo, core::workloadRoundRobin(4, 32), standardConfig(),
      core::bmmbProtocol());
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(bound->theorem, Theorem::k3_1);
  EXPECT_EQ(bound->diameter, 31);
  ASSERT_TRUE(bound->radius.has_value());
  EXPECT_EQ(bound->ticks, core::bmmbArbitraryBound(31, 4, mac));
  EXPECT_GT(core::bmmbRRestrictedBound(31, 4, *bound->radius, mac),
            bound->ticks);
}

TEST(ApplicableBound, NetworkCGetsTheorem31WithNoRadius) {
  // The cross edges join the two G lines, so no finite r restricts G'.
  const auto topo = gen::lowerBoundNetworkC(8);
  core::MmbWorkload workload;
  workload.k = 2;
  workload.arrivals = {{0, 0}, {8, 1}};
  const auto bound = core::applicableBound(topo, workload, standardConfig(),
                                           core::bmmbProtocol());
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(bound->theorem, Theorem::k3_1);
  EXPECT_EQ(bound->diameter, 7);
  EXPECT_FALSE(bound->radius.has_value());
  EXPECT_EQ(bound->ticks, 9 * 64);
}

TEST(ApplicableBound, FmmbGetsTheTheorem41Envelope) {
  Rng rng(3);
  const auto topo = gen::greyZoneField(32, 7.0, 1.5, 0.4, rng);
  const auto params = core::FmmbParams::make(topo.n());
  RunConfig config;
  config.mac = enhParams(4, 64);
  const auto bound = core::applicableBound(
      topo, core::workloadRoundRobin(4, topo.n()), config,
      core::fmmbProtocol(params));
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(bound->theorem, Theorem::k4_1);
  EXPECT_EQ(bound->diameter, topo.g().diameter());
  EXPECT_FALSE(bound->radius.has_value());
  EXPECT_EQ(bound->ticks, core::fmmbBoundEnvelope(topo.g().diameter(), 4,
                                                  params, config.mac));
}

TEST(ApplicableBound, BurstyWithinOneBatchIsAllAtZero) {
  const auto topo = gen::identityDual(gen::line(16));
  core::BurstyArrivalProcess oneBatch(8, 16, 8, 512, 1);
  EXPECT_TRUE(core::applicableBound(topo, core::materializeWorkload(oneBatch),
                                    standardConfig(), core::bmmbProtocol())
                  .has_value());
  core::BurstyArrivalProcess twoBatches(9, 16, 8, 512, 1);
  EXPECT_FALSE(core::applicableBound(
                   topo, core::materializeWorkload(twoBatches),
                   standardConfig(), core::bmmbProtocol())
                   .has_value());
}

TEST(ApplicableBound, NoTheoremWithoutItsHypotheses) {
  const auto topo = gen::identityDual(gen::line(16));
  const auto workload = core::workloadAllAtNode(4, 0);
  const auto holds = [&](const RunConfig& config,
                         const core::ProtocolSpec& protocol,
                         const core::MmbWorkload& w) {
    return core::applicableBound(topo, w, config, protocol).has_value();
  };
  ASSERT_TRUE(holds(standardConfig(), core::bmmbProtocol(), workload));

  core::PoissonArrivalProcess poisson(4, 16, 64.0, 1);
  EXPECT_FALSE(holds(standardConfig(), core::bmmbProtocol(),
                     core::materializeWorkload(poisson)));

  RunConfig crash = standardConfig();
  crash.dynamics.kind = core::DynamicsSpec::Kind::kCrash;
  EXPECT_FALSE(holds(crash, core::bmmbProtocol(), workload));

  EXPECT_FALSE(holds(standardConfig(),
                     core::bmmbProtocol(core::QueueDiscipline::kLifo),
                     workload));

  core::ReactionSpec retransmit;
  retransmit.kind = core::ReactionSpec::Kind::kRetransmit;
  EXPECT_FALSE(holds(standardConfig(),
                     core::bmmbProtocol(core::QueueDiscipline::kFifo,
                                        retransmit),
                     workload));

  RunConfig csma = standardConfig();
  csma.realization = mac::MacRealization::csmaWith({});
  EXPECT_FALSE(holds(csma, core::bmmbProtocol(), workload));

  RunConfig net = standardConfig();
  net.backend = core::ExecutionBackend::netWith({});
  EXPECT_FALSE(holds(net, core::bmmbProtocol(), workload));

  RunConfig enhanced = standardConfig();
  enhanced.mac = enhParams(4, 64);
  EXPECT_FALSE(holds(enhanced, core::bmmbProtocol(), workload));
}

}  // namespace
}  // namespace ammb
