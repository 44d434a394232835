// Span ledger: per-layer self time from nested spans.
//
// The traced run opens a span around every call the benchmark makes
// into a layer's public seam (scheduler, process callbacks, solve
// tracker, trace consumers, runner entry points).  A span's self time
// is its duration minus the time its child spans cover, so a scheduler
// plan issued from inside a protocol callback is charged to the
// scheduler, not twice.  The root span (the timed run) keeps whatever
// no seam claimed: that residual is the engine's own time.  By
// construction the self times of one root's tree sum to its duration.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Every layer a span can be charged to.
enum class Layer : std::size_t {
  kEngine,         ///< root span: the engine's residual
  kGraph,          ///< TopologySpec::make
  kSchedulerPlan,  ///< mac::Scheduler::planBcast
  kSchedulerPick,  ///< mac::Scheduler::pickProgressDelivery
  kProtocol,       ///< mac::Process callbacks
  kTracker,        ///< core::SolveTracker hooks
  kCheck,          ///< check::ExecutionChecker feed
  kHash,           ///< check::TraceHasher feed
  kRunnerParse,    ///< runner::parseSpec
  kRunnerBuild,    ///< runner::buildSweep
  kRunnerExecute,  ///< runner::executeRun (abstract MAC grid)
  kPhysCsma,       ///< runner::executeRun (CSMA grid)
  kRunnerAggregate,
  kRunnerEmit,
  kRunnerJournal,
  kCount,
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

class Ledger {
 public:
  /// Monotonic host time in nanoseconds.
  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void open(Layer layer, std::int64_t at) {
    stack_.push_back(Frame{layer, at, 0});
  }

  /// Closes the innermost span and returns its full duration.
  std::int64_t close(std::int64_t at) {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = at - frame.start;
    selfNs_[index(frame.layer)] += duration - frame.covered;
    ++spans_[index(frame.layer)];
    if (!stack_.empty()) stack_.back().covered += duration;
    return duration;
  }

  std::int64_t selfNs(Layer layer) const { return selfNs_[index(layer)]; }
  double selfSeconds(Layer layer) const { return selfNs(layer) * 1e-9; }
  std::uint64_t spans(Layer layer) const { return spans_[index(layer)]; }
  bool idle() const { return stack_.empty(); }

  /// Sum of every layer's self time.
  std::int64_t totalSelfNs() const {
    std::int64_t total = 0;
    for (std::int64_t ns : selfNs_) total += ns;
    return total;
  }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t covered;  ///< time claimed by closed child spans
  };

  static std::size_t index(Layer layer) {
    return static_cast<std::size_t>(layer);
  }

  std::vector<Frame> stack_;
  std::array<std::int64_t, kLayerCount> selfNs_{};
  std::array<std::uint64_t, kLayerCount> spans_{};
};

/// Scoped span on the host clock.
class Span {
 public:
  Span(Ledger& ledger, Layer layer) : ledger_(ledger) {
    ledger_.open(layer, Ledger::nowNs());
  }
  ~Span() { ledger_.close(Ledger::nowNs()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger& ledger_;
};

/// A percentile chosen by the tail rule below.
struct TailPercentile {
  double percent = 0.0;  ///< e.g. 95.0; 0 when no candidate qualifies
  double value = 0.0;    ///< nearest-rank value at that percentile
};

/// The highest of p50, p75, p90, p95, p99, p99.9 that has at least ten
/// samples strictly beyond its nearest rank, over ascending samples.
/// Fewer than 20 samples leave even p50 without ten beyond it; the
/// result then has percent 0.
inline TailPercentile tailPercentile(const std::vector<double>& ascending) {
  // Candidates in hundredths of a percent, highest first.
  static constexpr std::int64_t kCandidates[] = {9990, 9900, 9500,
                                                 9000, 7500, 5000};
  const auto n = static_cast<std::int64_t>(ascending.size());
  for (std::int64_t basis : kCandidates) {
    const std::int64_t rank = (basis * n + 9999) / 10000;  // ceil, 1-based
    if (rank >= 1 && n - rank >= 10) {
      return {basis / 100.0, ascending[static_cast<std::size_t>(rank - 1)]};
    }
  }
  return {};
}

/// Nearest-rank median of ascending samples (0 when empty).
inline double median(const std::vector<double>& ascending) {
  if (ascending.empty()) return 0.0;
  return ascending[(ascending.size() + 1) / 2 - 1];
}

}  // namespace perfbench
