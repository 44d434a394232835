// Tests for trace analysis utilities.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_stats.h"
#include "test_util.h"

namespace ammb {
namespace {

using core::RunConfig;
using core::SchedulerKind;
namespace gen = graph::gen;
using testutil::stdParams;

RunConfig randomConfig() {
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kRandom;
  return config;
}

TEST(TraceStats, MessageLatenciesOnLine) {
  const auto topo = gen::identityDual(gen::line(8));
  const auto workload = core::workloadAllAtNode(2, 0);
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kFast;
  config.limits.stopOnSolve = false;
  core::Experiment experiment(topo, core::bmmbProtocol(), workload,
                              config);
  ASSERT_TRUE(experiment.run().solved);

  const auto lats =
      mac::messageLatencies(experiment.engine().trace(), workload.k);
  ASSERT_EQ(lats.size(), 2u);
  for (const auto& lat : lats) {
    EXPECT_EQ(lat.arriveAt, 0);
    EXPECT_EQ(lat.firstDeliver, 0);  // the source delivers on arrival
    EXPECT_GT(lat.lastDeliver, 0);
    EXPECT_EQ(lat.deliveries, 8u);  // every node delivered it
  }
  // FIFO at the source: message 0 completes no later than message 1.
  EXPECT_LE(lats[0].lastDeliver, lats[1].lastDeliver);
}

TEST(TraceStats, DeliveryTimelineIsMonotoneAlongTheLine) {
  const auto topo = gen::identityDual(gen::line(10));
  RunConfig config;
  config.mac = stdParams(4, 32);
  config.scheduler = SchedulerKind::kSlowAck;
  core::Experiment experiment(topo, core::bmmbProtocol(),
                              core::workloadAllAtNode(1, 0), config);
  ASSERT_TRUE(experiment.run().solved);
  const auto timeline =
      mac::deliveryTimeline(experiment.engine().trace(), 0, topo.n());
  ASSERT_EQ(timeline.size(), 10u);
  for (NodeId v = 0; v + 1 < 10; ++v) {
    EXPECT_LE(timeline[static_cast<std::size_t>(v)],
              timeline[static_cast<std::size_t>(v + 1)])
        << "hop " << v;
  }
  EXPECT_EQ(timeline[0], 0);
  EXPECT_EQ(timeline[9], 9 * 4);  // one fprog per hop under slow-ack
}

TEST(TraceStats, UnreliableDeliveryCountOnNetworkC) {
  const int D = 8;
  const auto topo = gen::lowerBoundNetworkC(D);
  core::MmbWorkload w;
  w.k = 2;
  w.arrivals = {{0, 0}, {static_cast<NodeId>(D), 1}};
  RunConfig config;
  config.mac = stdParams(4, 64);
  config.scheduler = SchedulerKind::kLowerBound;
  config.scheduler.lowerBoundLineLength = D;
  core::Experiment experiment(topo, core::bmmbProtocol(), w, config);
  ASSERT_TRUE(experiment.run().solved);
  auto& engine = experiment.engine();
  const auto crossings = mac::unreliableDeliveryCount(
      topo, engine.trace(),
      [&engine](InstanceId id) { return engine.record(id).sender; });
  EXPECT_GE(crossings, static_cast<std::size_t>(D));

  // A G'=G execution has no unreliable deliveries by definition.
  const auto clean = gen::identityDual(gen::line(6));
  core::Experiment cleanRun(clean, core::bmmbProtocol(),
                            core::workloadAllAtNode(1, 0),
                            randomConfig());
  ASSERT_TRUE(cleanRun.run().solved);
  auto& cleanEngine = cleanRun.engine();
  EXPECT_EQ(mac::unreliableDeliveryCount(
                clean, cleanEngine.trace(),
                [&cleanEngine](InstanceId id) {
                  return cleanEngine.record(id).sender;
                }),
            0u);
}

TEST(TraceStats, RejectsBadArguments) {
  sim::Trace trace;
  EXPECT_THROW(mac::messageLatencies(trace, 0), Error);
  EXPECT_THROW(mac::deliveryTimeline(trace, 0, 0), Error);
}

}  // namespace
}  // namespace ammb
