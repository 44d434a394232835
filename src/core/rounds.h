// Lock-step rounds on top of the enhanced abstract MAC layer.
//
// FMMB "divides time into lock-step rounds each of length Fprog"
// (Section 4.1), implemented with the enhanced model's timers and
// aborts: a node broadcasting "in round r" initiates the bcast at the
// round start and aborts it at the round boundary if the ack has not
// arrived.  One deviation (README, "Deviations from the paper"):
// rounds last Fprog + 1 ticks, because the model's progress bound only binds on
// windows *strictly* longer than Fprog; with integer ticks one extra
// tick is the minimum that forces an in-round delivery.
#pragma once

#include "common/types.h"
#include "mac/process.h"

namespace ammb::core {

/// Base class for round-synchronized (enhanced-model) protocols.
/// Subclasses implement onRoundStart and receive a monotone round
/// counter; the base handles timers and boundary aborts.
class RoundedProcess : public mac::Process {
 public:
  void onWake(mac::Context& ctx) final {
    roundLen_ = ctx.fprog() + 1;
    onRoundStart(ctx, 0);
    ctx.setTimerAt(roundLen_);
  }

  void onTimer(mac::Context& ctx, TimerId id) final {
    (void)id;
    if (ctx.busy()) ctx.abortBcast();
    ++round_;
    onRoundStart(ctx, round_);
    ctx.setTimerAt((round_ + 1) * roundLen_);
  }

 protected:
  /// Called at the start of every round; the subclass may bcast once.
  virtual void onRoundStart(mac::Context& ctx, std::int64_t round) = 0;

  /// The current round index.
  std::int64_t round() const { return round_; }

  /// Round duration in ticks (valid after wake-up).
  Time roundLength() const { return roundLen_; }

 private:
  Time roundLen_ = 0;
  std::int64_t round_ = 0;
};

}  // namespace ammb::core
