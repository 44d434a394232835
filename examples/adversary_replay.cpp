// Replay of the Figure-2 lower-bound execution, hop by hop.
//
// Runs BMMB on the two-line network C under the Lemma 3.19/3.20
// adversary and prints the frontier timeline: when each a_i received
// message m0 and each b_i received m1.  The timeline makes the
// mechanism visible — one hop per Fack, with the cross deliveries over
// the unreliable diagonals (printed as "junk") satisfying the progress
// bound without advancing either message in its own line.
#include <cstdio>
#include <vector>

#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"

int main() {
  using namespace ammb;

  const int D = 12;
  const auto topology = graph::gen::lowerBoundNetworkC(D);
  core::MmbWorkload workload;
  workload.k = 2;
  workload.arrivals = {{0, 0}, {static_cast<NodeId>(D), 1}};

  core::RunConfig config;
  config.mac.fprog = 4;
  config.mac.fack = 64;
  config.mac.variant = mac::ModelVariant::kStandard;
  config.scheduler = core::SchedulerKind::kLowerBound;
  config.scheduler.lowerBoundLineLength = D;

  core::Experiment experiment(topology, core::bmmbProtocol(), workload,
                              config);
  const auto result = experiment.run();
  std::printf("network C with D=%d, k=2, Fprog=%lld, Fack=%lld\n", D,
              static_cast<long long>(config.mac.fprog),
              static_cast<long long>(config.mac.fack));
  std::printf("solved at t=%lld  (lower bound (D-1)*Fack = %lld)\n\n",
              static_cast<long long>(result.solveTime),
              static_cast<long long>((D - 1) * config.mac.fack));

  // Reconstruct per-node first-delivery times of the line's own
  // message, and count useless cross deliveries.
  std::vector<Time> gotM0(static_cast<std::size_t>(D), -1);
  std::vector<Time> gotM1(static_cast<std::size_t>(D), -1);
  std::size_t crossDeliveries = 0;
  for (const auto& record : experiment.engine().trace().records()) {
    if (record.kind == sim::TraceKind::kRcv) {
      const NodeId sender = experiment.engine().record(record.instance).sender;
      if (topology.isUnreliableOnlyEdge(sender, record.node)) {
        ++crossDeliveries;
      }
    }
    if (record.kind != sim::TraceKind::kDeliver) continue;
    if (record.msg == 0 && record.node < D &&
        gotM0[static_cast<std::size_t>(record.node)] < 0) {
      gotM0[static_cast<std::size_t>(record.node)] = record.t;
    }
    if (record.msg == 1 && record.node >= D &&
        gotM1[static_cast<std::size_t>(record.node - D)] < 0) {
      gotM1[static_cast<std::size_t>(record.node - D)] = record.t;
    }
  }

  std::printf("%-6s %18s %18s\n", "hop i", "a_i delivers m0", "b_i delivers m1");
  for (int i = 0; i < D; ++i) {
    std::printf("%-6d %18lld %18lld\n", i,
                static_cast<long long>(gotM0[static_cast<std::size_t>(i)]),
                static_cast<long long>(gotM1[static_cast<std::size_t>(i)]));
  }
  std::printf(
      "\n%zu deliveries crossed the unreliable diagonals — every one a\n"
      "message the receiving line never needed (A and B are disconnected\n"
      "in G), yet each satisfied a progress-bound obligation.\n",
      crossDeliveries);

  const auto check =
      mac::checkTrace(topology, config.mac, experiment.engine().trace());
  std::printf("\nmodel axioms on this adversarial execution: %s\n",
              check.ok ? "all hold" : check.summary().c_str());
  return check.ok && result.solved ? 0 : 1;
}
