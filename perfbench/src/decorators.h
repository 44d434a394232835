// Timing decorators around the layers' public seams.
//
// Each decorator forwards every virtual of the interface it wraps to
// the real implementation, inside a span, so a decorated run executes
// the same calls in the same order as an undecorated one — the traced
// run reproduces the untraced execution bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ledger.h"
#include "mac/engine.h"
#include "mac/process.h"
#include "mac/scheduler.h"
#include "sim/trace.h"

namespace perfbench {

/// Counters gathered next to the spans.
struct Probe {
  Ledger ledger;
  std::uint64_t onWake = 0;
  std::uint64_t onArrive = 0;
  std::uint64_t onReceive = 0;
  std::uint64_t onAck = 0;
  std::uint64_t onTimer = 0;
  std::uint64_t onEpoch = 0;
  /// Receives whose callback emitted a deliver(m): the node lacked m.
  std::uint64_t usefulReceives = 0;
  std::uint64_t delivers = 0;  ///< deliver hook calls
  std::uint64_t plannedRcvs = 0;
  std::uint64_t gPrimeOnlyRcvs = 0;  ///< planned over E' \ E links
};

class TimedScheduler final : public ammb::mac::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<ammb::mac::Scheduler> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void attach(ammb::mac::MacEngine& engine) override {
    engine_ = &engine;
    inner_->attach(engine);
  }

  ammb::mac::DeliveryPlan planBcast(
      const ammb::mac::Instance& instance) override {
    Span span(probe_.ledger, Layer::kSchedulerPlan);
    ammb::mac::DeliveryPlan plan = inner_->planBcast(instance);
    const ammb::graph::DualGraph& topology = engine_->topology();
    probe_.plannedRcvs += plan.deliveries.size();
    for (const ammb::mac::PlannedDelivery& d : plan.deliveries) {
      if (!topology.isReliableEdge(instance.sender, d.target)) {
        ++probe_.gPrimeOnlyRcvs;
      }
    }
    return plan;
  }

  ammb::InstanceId pickProgressDelivery(
      ammb::NodeId receiver,
      const std::vector<ammb::InstanceId>& candidates) override {
    Span span(probe_.ledger, Layer::kSchedulerPick);
    return inner_->pickProgressDelivery(receiver, candidates);
  }

 private:
  std::unique_ptr<ammb::mac::Scheduler> inner_;
  Probe& probe_;
};

class TimedProcess final : public ammb::mac::Process {
 public:
  TimedProcess(std::unique_ptr<ammb::mac::Process> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void onWake(ammb::mac::Context& ctx) override {
    Span span(probe_.ledger, Layer::kProtocol);
    ++probe_.onWake;
    inner_->onWake(ctx);
  }
  void onArrive(ammb::mac::Context& ctx, ammb::MsgId msg) override {
    Span span(probe_.ledger, Layer::kProtocol);
    ++probe_.onArrive;
    inner_->onArrive(ctx, msg);
  }
  void onReceive(ammb::mac::Context& ctx,
                 const ammb::mac::Packet& packet) override {
    Span span(probe_.ledger, Layer::kProtocol);
    ++probe_.onReceive;
    const std::uint64_t before = probe_.delivers;
    inner_->onReceive(ctx, packet);
    if (probe_.delivers != before) ++probe_.usefulReceives;
  }
  void onAck(ammb::mac::Context& ctx,
             const ammb::mac::Packet& packet) override {
    Span span(probe_.ledger, Layer::kProtocol);
    ++probe_.onAck;
    inner_->onAck(ctx, packet);
  }
  void onTimer(ammb::mac::Context& ctx, ammb::TimerId id) override {
    Span span(probe_.ledger, Layer::kProtocol);
    ++probe_.onTimer;
    inner_->onTimer(ctx, id);
  }
  void onEpochChange(ammb::mac::Context& ctx,
                     const ammb::mac::EpochChange& change) override {
    Span span(probe_.ledger, Layer::kProtocol);
    ++probe_.onEpoch;
    inner_->onEpochChange(ctx, change);
  }

 private:
  std::unique_ptr<ammb::mac::Process> inner_;
  Probe& probe_;
};

class TimedConsumer final : public ammb::sim::TraceConsumer {
 public:
  TimedConsumer(ammb::sim::TraceConsumer& inner, Ledger& ledger, Layer layer)
      : inner_(inner), ledger_(ledger), layer_(layer) {}

  void onRecord(const ammb::sim::TraceRecord& record) override {
    Span span(ledger_, layer_);
    inner_.onRecord(record);
  }

 private:
  ammb::sim::TraceConsumer& inner_;
  Ledger& ledger_;
  Layer layer_;
};

}  // namespace perfbench
