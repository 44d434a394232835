#include "mac/schedulers.h"

#include <algorithm>

namespace ammb::mac {

namespace {
/// Calls `f(j)` for every G'-only neighbor j of `sender`, in ascending
/// order: one merge of the two sorted adjacency spans.
template <typename F>
void forEachUnreliableNeighbor(const graph::DualGraph& topo, NodeId sender,
                               F&& f) {
  const graph::Graph::Span g = topo.g().neighbors(sender);
  const NodeId* gi = g.begin();
  for (NodeId j : topo.gPrime().neighbors(sender)) {
    while (gi != g.end() && *gi < j) ++gi;
    if (gi != g.end() && *gi == j) continue;
    f(j);
  }
}

/// Deliveries to every G-neighbor at `gAt`, plus (optionally) every
/// G'-only neighbor at `gpAt` (skipped when gpAt == kTimeNever).
DeliveryPlan uniformPlan(const MacEngine& engine, const Instance& instance,
                         Time gAt, Time gpAt, Time ackAt) {
  DeliveryPlan plan;
  plan.ackAt = ackAt;
  const auto& topo = engine.topology();
  plan.deliveries.reserve(topo.gPrime().degree(instance.sender));
  for (NodeId j : topo.g().neighbors(instance.sender)) {
    plan.deliveries.push_back({j, gAt});
  }
  if (gpAt != kTimeNever) {
    forEachUnreliableNeighbor(topo, instance.sender, [&](NodeId j) {
      plan.deliveries.push_back({j, gpAt});
    });
  }
  return plan;
}
}  // namespace

// --- FastScheduler ----------------------------------------------------------

FastScheduler::FastScheduler() : FastScheduler(Options{}) {}

FastScheduler::FastScheduler(Options options) : options_(options) {}

DeliveryPlan FastScheduler::planBcast(const Instance& instance) {
  const MacParams& p = engine_->params();
  const Time delay = std::min(options_.delay, p.fprog);
  const Time at = instance.bcastAt + delay;
  return uniformPlan(*engine_, instance, at,
                     options_.deliverGPrime ? at : kTimeNever, at);
}

// --- RandomScheduler --------------------------------------------------------

RandomScheduler::RandomScheduler() : RandomScheduler(Options{}) {}

RandomScheduler::RandomScheduler(Options options) : options_(options) {
  AMMB_REQUIRE(options.pUnreliable >= 0.0 && options.pUnreliable <= 1.0,
               "pUnreliable must be a probability");
}

DeliveryPlan RandomScheduler::planBcast(const Instance& instance) {
  const MacParams& p = engine_->params();
  Rng& rng = engine_->schedulerRng();
  const Time t0 = instance.bcastAt;
  DeliveryPlan plan;
  const auto& topo = engine_->topology();
  plan.deliveries.reserve(topo.gPrime().degree(instance.sender));
  Time latestG = t0;
  for (NodeId j : topo.g().neighbors(instance.sender)) {
    const Time at = t0 + rng.uniformInt(1, p.fprog);
    latestG = std::max(latestG, at);
    plan.deliveries.push_back({j, at});
  }
  plan.ackAt = rng.uniformInt(latestG, t0 + p.fack);
  forEachUnreliableNeighbor(topo, instance.sender, [&](NodeId j) {
    if (!rng.bernoulli(options_.pUnreliable)) return;
    plan.deliveries.push_back({j, rng.uniformInt(t0, plan.ackAt)});
  });
  return plan;
}

// --- SlowAckScheduler -------------------------------------------------------

DeliveryPlan SlowAckScheduler::planBcast(const Instance& instance) {
  const MacParams& p = engine_->params();
  return uniformPlan(*engine_, instance, instance.bcastAt + p.fprog,
                     kTimeNever, instance.bcastAt + p.fack);
}

// --- AdversarialScheduler ---------------------------------------------------

AdversarialScheduler::AdversarialScheduler()
    : AdversarialScheduler(Options{}) {}

AdversarialScheduler::AdversarialScheduler(Options options)
    : options_(options) {}

DeliveryPlan AdversarialScheduler::planBcast(const Instance& instance) {
  const MacParams& p = engine_->params();
  const Time ackAt = instance.bcastAt + p.fack;
  // Reliable deliveries at the last legal instant; the progress guard
  // will preempt them only when the model leaves the adversary no
  // useless alternative.
  DeliveryPlan plan =
      uniformPlan(*engine_, instance, ackAt, kTimeNever, ackAt);
  if (options_.stuffUnreliable) {
    forEachUnreliableNeighbor(
        engine_->topology(), instance.sender, [&](NodeId j) {
          plan.deliveries.push_back({j, instance.bcastAt + 1});
        });
  }
  return plan;
}

InstanceId AdversarialScheduler::pickProgressDelivery(
    NodeId receiver, const std::vector<InstanceId>& candidates) {
  const ProtocolOracle* oracle = engine_->oracle();
  const auto& topo = engine_->topology();
  // Preference order: (1) useless for the protocol, (2) arriving over
  // an unreliable edge, (3) oldest.  Candidates are sorted by id.
  InstanceId bestUseless = kNoInstance;
  InstanceId bestCross = kNoInstance;
  for (InstanceId id : candidates) {
    const Instance& inst = engine_->instance(id);
    if (oracle != nullptr && bestUseless == kNoInstance &&
        oracle->uselessFor(receiver, inst.packet)) {
      bestUseless = id;
    }
    if (bestCross == kNoInstance &&
        !topo.g().hasEdge(inst.sender, receiver)) {
      bestCross = id;
    }
  }
  if (bestUseless != kNoInstance) return bestUseless;
  if (bestCross != kNoInstance) return bestCross;
  return candidates.front();
}

}  // namespace ammb::mac
