// Multi-threaded sweep execution with deterministic aggregation.
//
// Runs of a SweepSpec are share-nothing and fully determined by
// (spec, seed), so SweepRunner distributes them over a worker pool with
// a single atomic work index: each worker claims the next run, builds
// its topology/workload privately, executes it, and writes the result
// into the run's preallocated slot.  Aggregation happens after the pool
// joins, sequentially and in run-index order — which makes every
// aggregate (including the floating-point means) bit-identical no
// matter how many threads executed the sweep or how they interleaved.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "phys/measurement.h"
#include "runner/sweep_spec.h"

namespace ammb::runner {

/// Outcome of one grid run.
struct RunRecord {
  RunPoint point;
  core::RunResult result;
  /// Non-empty iff the run threw (spec error, unsolvable cell, ...).
  std::string error;
  /// Trace storage backend label ("mem", "spool[:N]") — pure
  /// provenance; the record sequence is identical.
  std::string traceMode = "mem";
  /// MAC realization label ("abstract", "csma:...").  Unlike the trace
  /// mode this is result-bearing provenance: realized runs derive
  /// their timing from simulated contention.
  std::string realization = "abstract";
  /// Execution backend label ("sim", "net:...").  Result-bearing
  /// provenance like the realization: net runs carry measured timing.
  std::string backend = "sim";
  /// Realized Fprog/Fack bounds measured from the trace (physical
  /// realizations and net-backend checked runs only; default-zero
  /// otherwise).
  phys::RealizedBounds realized;

  // Trace-checking outcome (CheckMode sweeps only).
  bool checked = false;
  /// check::traceHash fingerprint of the records — the cheap per-run
  /// golden (not a hash of the canonical text).
  std::uint64_t traceHash = 0;
  /// Oracle violations found in this run's trace.
  std::vector<std::string> checkViolations;
  /// Full canonical serialization (iff SweepSpec::keepCanonicalTraces).
  std::string canonicalTrace;

  bool failed() const { return !error.empty(); }
};

/// Deterministic summary of one grid cell (all seeds of one
/// topology x scheduler x k x mac x workload x dynamics x reaction
/// point).
struct CellAggregate {
  std::size_t cellIndex = 0;

  // Axis labels, copied from the spec so emitters are self-contained.
  std::string topology;
  std::string scheduler;
  int k = 0;
  std::string mac;
  std::string workload;
  std::string dynamics;
  std::string reaction;

  std::uint64_t runs = 0;
  std::uint64_t solved = 0;
  std::uint64_t errors = 0;

  // Solve-time statistics over the solved runs (ticks).  Percentiles
  // use the integer nearest-rank rule, so every field except the mean
  // is an exact tick value; the mean is accumulated in run order.
  Time minSolve = 0;
  Time medianSolve = 0;
  Time p95Solve = 0;
  Time maxSolve = 0;
  double meanSolve = 0.0;

  /// Mean simulated end time over all (solved or not) non-error runs.
  double meanEndTime = 0.0;

  // Per-message latency statistics, pooled over every completed
  // message of every non-error run of the cell (same nearest-rank
  // rule as the solve times).
  std::uint64_t messages = 0;  ///< completed messages pooled
  Time p50Latency = 0;
  Time p95Latency = 0;
  Time maxLatency = 0;
  double meanLatency = 0.0;

  // Trace-checking aggregates (CheckMode sweeps only).
  std::uint64_t checkedRuns = 0;
  std::uint64_t checkViolations = 0;

  // Realized Fprog/Fack bounds (physical-realization sweeps only;
  // zero otherwise).  Each field is the max of the corresponding
  // per-run statistic over the cell's measured runs — a deterministic
  // worst-case fold, since per-run samples are not retained.
  std::uint64_t measuredRuns = 0;
  phys::RealizedBounds realized;

  /// Engine counters summed over non-error runs.
  mac::EngineStats stats;

  /// Churn-reaction work (BMMB re-arm enqueues / FMMB rebases) summed
  /// over non-error runs; 0 for reaction-free cells.
  std::uint64_t retransmits = 0;
};

/// Everything a sweep produced.
struct SweepResult {
  std::string name;
  core::ProtocolKind protocol = core::ProtocolKind::kBmmb;
  /// Sweep-level MAC realization label ("abstract" unless the spec —
  /// or a `--mac` override — selected a physical layer).
  std::string realization = "abstract";
  /// Sweep-level execution backend label ("sim" unless the spec — or
  /// a `--backend` override — selected the net backend).
  std::string backend = "sim";
  std::uint64_t seedBegin = 0;
  std::uint64_t seedEnd = 0;
  int threads = 1;
  double wallSeconds = 0.0;  ///< not deterministic; excluded from emitters' data rows

  /// Per-run outcomes in runIndex order (empty if keepRunRecords off).
  std::vector<RunRecord> runs;
  /// Per-cell aggregates in cellIndex order.
  std::vector<CellAggregate> cells;

  /// Total runs that threw, across all cells.
  std::uint64_t errorCount() const;
  /// Total oracle violations across all checked runs.
  std::uint64_t checkViolationCount() const;
  /// The cell for a (topoIdx, schedIdx, kIdx, macIdx) coordinate.
  const CellAggregate& cell(std::size_t cellIndex) const;
};

/// The worker-pool size actually used for `requested` threads over
/// `work` runs: 0 means hardware_concurrency, clamped to [1, work].
int effectiveThreads(int requested, std::size_t work);

/// Aggregation controls for aggregateRecords().
struct AggregateOptions {
  /// Recorded on SweepResult::threads (informational; not emitted).
  int threads = 1;
  /// Retain per-run records in the result (cells are always kept).
  bool keepRunRecords = true;
};

/// Deterministic aggregation of per-run records into a SweepResult:
/// records are sorted into run-index order and folded sequentially, so
/// the same records give byte-identical aggregates no matter which
/// worker pool — or which shard of which machine — produced them.
/// Records may cover any subset of the grid (a shard aggregates its
/// slice; `ammb_sweep merge` aggregates the union); cells with no
/// records keep zeroed counters but carry their axis labels.
SweepResult aggregateRecords(const SweepSpec& spec,
                             std::vector<RunRecord> records,
                             const AggregateOptions& options = {});

/// Executes SweepSpecs over a fixed-size worker pool.
class SweepRunner {
 public:
  struct Options {
    /// Worker threads; 0 means hardware_concurrency (at least 1).
    int threads = 0;
    /// Retain per-run records in the result (cells are always kept).
    bool keepRunRecords = true;
    /// Optional progress observer, called after each completed run with
    /// (completedRuns, totalRuns) under an internal mutex.
    std::function<void(std::size_t, std::size_t)> progress;
    /// Optional per-record observer, called as each record completes —
    /// concurrently from worker threads, so the callback must
    /// synchronize access to any shared sink itself.  (Serialization
    /// can then run in parallel with only the sink write locked.)
    /// This is the journaling hook: `ammb_sweep run --journal` appends
    /// one line per record so an interrupted sweep can `--resume`.
    std::function<void(const RunRecord&)> onRecord;
  };

  SweepRunner() = default;
  explicit SweepRunner(Options options) : options_(std::move(options)) {}

  /// Runs the full grid; throws ammb::Error on an invalid spec.
  /// Individual run failures are captured per-run, not thrown.
  SweepResult run(const SweepSpec& spec) const;

  /// Executes an arbitrary subset of the grid (a shard, or the
  /// not-yet-journaled remainder of a resumed run) on the worker pool.
  /// Returns one record per point, in `points` order; does not
  /// aggregate.
  std::vector<RunRecord> runPoints(const SweepSpec& spec,
                                   const std::vector<RunPoint>& points) const;

 private:
  Options options_;
};

/// Executes one grid point (the worker body; exposed for tests).
RunRecord executeRun(const SweepSpec& spec, const RunPoint& point);

}  // namespace ammb::runner
