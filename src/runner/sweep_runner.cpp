#include "runner/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <variant>

#include "check/golden.h"
#include "check/oracles.h"
#include "runner/emit.h"

namespace ammb::runner {

namespace {

using core::nearestRankPercentile;

/// `into += value` for run `run`'s field `key`, throwing instead of
/// overflowing: aggregation sums values read back from shard and
/// journal files.
template <class T>
void addChecked(T& into, T value, const char* key, std::size_t run) {
  if (__builtin_add_overflow(into, value, &into)) {
    throw Error("run record " + std::to_string(run) + ": " + key +
                " overflows its cell's sum — corrupt or mismatched "
                "shard/journal input");
  }
}

/// Worst-case fold of one run's realized bounds into the cell's:
/// bound statistics take the max, sample counters the sum.
void foldRealized(phys::RealizedBounds& into, const phys::RealizedBounds& from,
                  std::size_t run) {
  for (const RecordField<phys::RealizedBounds>& f : kRealizedFields) {
    std::visit(
        [&](auto m) {
          if constexpr (std::is_same_v<decltype(m),
                                       std::uint64_t phys::RealizedBounds::*>) {
            addChecked(into.*m, from.*m, f.key, run);
          } else {
            into.*m = std::max(into.*m, from.*m);
          }
        },
        f.member);
  }
}

void accumulateStats(mac::EngineStats& into, const mac::EngineStats& from,
                     std::size_t run) {
  for (const RecordField<mac::EngineStats>& f : kStatsFields) {
    const auto m = std::get<std::uint64_t mac::EngineStats::*>(f.member);
    addChecked(into.*m, from.*m, f.key, run);
  }
}

}  // namespace

namespace {

/// Snapshot header: the run's full grid coordinate, so a golden file is
/// self-describing and re-runnable by hand.
std::string runHeader(const SweepSpec& spec, const RunPoint& point) {
  std::string header =
      spec.name + " topology=" + spec.topologies[point.topoIdx].name +
      " scheduler=" + core::toString(spec.schedulers[point.schedIdx]) +
      " k=" + std::to_string(spec.ks[point.kIdx]) +
      " mac=" + spec.macs[point.macIdx].name +
      " workload=" + spec.workloads[point.wlIdx].name +
      " dynamics=" + spec.dynamics[point.dynIdx].name;
  // Appended only for reactive points, so every pre-reaction golden
  // header stays byte-identical.
  if (!spec.reactions[point.reactIdx].none()) {
    header += " reaction=" + spec.reactions[point.reactIdx].label();
  }
  if (!spec.backend.sim()) {
    header += " backend=" + spec.backend.label();
  }
  return header + " seed=" + std::to_string(point.seed);
}

}  // namespace

RunRecord executeRun(const SweepSpec& spec, const RunPoint& point) {
  RunRecord record;
  record.point = point;
  record.traceMode = spec.traceMode.label();
  record.realization = spec.realization.label();
  record.backend = spec.backend.label();
  try {
    const graph::DualGraph topology =
        spec.topologies[point.topoIdx].make(point.seed);
    const int k = spec.ks[point.kIdx];
    const std::unique_ptr<core::ArrivalProcess> arrivals =
        spec.workloads[point.wlIdx].make(k, topology.n(), point.seed);
    AMMB_REQUIRE(arrivals != nullptr, "workload generator returned null");
    const core::RunConfig config = runConfigFor(spec, point);
    const core::ProtocolSpec protocol =
        protocolSpecFor(spec, topology.n(), k, point.reactIdx);
    if (spec.check == CheckMode::kOff) {
      record.result =
          core::runExperiment(topology, protocol, *arrivals, config);
      return record;
    }
    // Checked run: the oracles consume the trace as a single-pass
    // stream, attached to the live Trace at commit time, so checking
    // never needs the whole record vector resident.  Only the full
    // oracles consult the workload; materialize it first (the stream
    // is reset afterwards) and only then.
    core::MmbWorkload workload;
    if (spec.check == CheckMode::kFull) {
      workload = core::materializeWorkload(*arrivals);
    }
    core::Experiment experiment(topology, protocol, *arrivals, config);
    // Check under the params the engine really ran under (for physical
    // realizations that is the analytic envelope, not the cell's).
    // Realized runs are additionally measured, and the checker re-runs
    // under the *fitted* realized bounds — the axioms must hold for
    // the constants the physical MAC actually induced.  Net-backend
    // runs have measured, not scheduled, timing too, so both fit
    // bounds post-hoc: their axiom checkers replay the (possibly
    // spooled) trace after the fit instead of streaming live.
    const mac::MacParams envelope = core::effectiveMacParams(config);
    const bool postHocParams =
        !spec.realization.abstract() || !spec.backend.sim();
    check::TraceHasher hasher;
    experiment.mutableTrace().attachConsumer(&hasher);
    phys::RealizedAccumulator realizedAcc;
    std::unique_ptr<mac::TraceChecker> macStream;
    std::unique_ptr<check::ExecutionChecker> execStream;
    if (postHocParams) {
      experiment.mutableTrace().attachConsumer(&realizedAcc);
    } else if (spec.check == CheckMode::kMac) {
      macStream =
          std::make_unique<mac::TraceChecker>(experiment.view(), envelope);
      experiment.mutableTrace().attachConsumer(macStream.get());
    } else {
      execStream = std::make_unique<check::ExecutionChecker>(
          experiment.view(), protocol, envelope, workload);
      experiment.mutableTrace().attachConsumer(execStream.get());
    }
    record.result = experiment.run();
    const sim::Trace& trace = experiment.trace();
    record.checked = true;
    record.traceHash = hasher.hash();
    mac::MacParams checkParams = envelope;
    if (postHocParams) {
      record.realized = realizedAcc.finish(experiment.view(), envelope, trace,
                                           record.result.endTime);
      checkParams = phys::fittedParams(record.realized, envelope);
    }
    if (spec.check == CheckMode::kMac) {
      mac::CheckResult res =
          macStream != nullptr
              ? macStream->finish(record.result.endTime)
              : mac::checkTrace(experiment.view(), checkParams, trace,
                                record.result.endTime);
      record.checkViolations = std::move(res.violations);
    } else {
      // FMMB's structure oracle validates the round grid the protocol
      // actually ran on — the envelope — so realized FMMB runs keep
      // checkExecution on the envelope and re-check the MAC axioms
      // under the fitted bounds on top.  BMMB has no parameter
      // coupling and checks everything under the fitted bounds.
      const bool fmmbRealized =
          protocol.kind() == core::ProtocolKind::kFmmb && postHocParams;
      check::OracleReport report =
          execStream != nullptr
              ? execStream->finish(record.result)
              : check::checkExecution(experiment.view(), protocol,
                                      fmmbRealized ? envelope : checkParams,
                                      workload, trace, record.result);
      record.checkViolations = std::move(report.violations);
      if (fmmbRealized) {
        mac::CheckResult res = mac::checkTrace(experiment.view(), checkParams,
                                               trace, record.result.endTime);
        for (std::string& v : res.violations) {
          record.checkViolations.push_back("mac-fitted: " + v);
        }
      }
    }
    if (spec.keepCanonicalTraces) {
      // canonicalExecution streams the trace straight into the
      // document — one resident copy, not a serialize-then-append pair.
      record.canonicalTrace = check::canonicalExecution(
          runHeader(spec, point), record.result, trace);
    }
  } catch (const std::exception& e) {
    record.error = e.what();
  }
  return record;
}

std::uint64_t SweepResult::errorCount() const {
  std::uint64_t total = 0;
  for (const CellAggregate& c : cells) total += c.errors;
  return total;
}

std::uint64_t SweepResult::checkViolationCount() const {
  std::uint64_t total = 0;
  for (const CellAggregate& c : cells) total += c.checkViolations;
  return total;
}

const CellAggregate& SweepResult::cell(std::size_t cellIndex) const {
  AMMB_REQUIRE(cellIndex < cells.size(), "cell index out of range");
  return cells[cellIndex];
}

SweepResult aggregateRecords(const SweepSpec& spec,
                             std::vector<RunRecord> records,
                             const AggregateOptions& options) {
  // Deterministic aggregation: sequential, in run-index order, over the
  // exact same records no matter how the pool interleaved — or which
  // shard's output file they were parsed back from.
  std::sort(records.begin(), records.end(),
            [](const RunRecord& a, const RunRecord& b) {
              return a.point.runIndex < b.point.runIndex;
            });

  SweepResult result;
  result.name = spec.name;
  result.protocol = spec.protocol;
  result.realization = spec.realization.label();
  result.backend = spec.backend.label();
  result.seedBegin = spec.seedBegin;
  result.seedEnd = spec.seedEnd;
  result.threads = options.threads;
  result.cells.resize(spec.cellCount());

  // Labels come from the spec, not the records, so even a cell whose
  // runs all live in another shard stays self-describing.  Cells are
  // numbered in the same (topology, scheduler, k, mac, workload,
  // dynamics, reaction) lexicographic order as enumerateRuns().
  std::size_t cellIndex = 0;
  for (const TopologySpec& topology : spec.topologies) {
    for (core::SchedulerKind scheduler : spec.schedulers) {
      for (int k : spec.ks) {
        for (const MacParamsSpec& mac : spec.macs) {
          for (const WorkloadSpec& workload : spec.workloads) {
            for (const DynamicsSpecNamed& dynamics : spec.dynamics) {
              for (const core::ReactionSpec& reaction : spec.reactions) {
                CellAggregate& cell = result.cells[cellIndex];
                cell.cellIndex = cellIndex;
                cell.topology = topology.name;
                cell.scheduler = core::toString(scheduler);
                cell.k = k;
                cell.mac = mac.name;
                cell.workload = workload.name;
                cell.dynamics = dynamics.name;
                cell.reaction = reaction.label();
                ++cellIndex;
              }
            }
          }
        }
      }
    }
  }

  std::vector<std::vector<Time>> solveTimes(result.cells.size());
  std::vector<std::int64_t> solveSums(result.cells.size(), 0);
  std::vector<std::int64_t> endSums(result.cells.size(), 0);
  std::vector<std::uint64_t> endCounts(result.cells.size(), 0);
  std::vector<std::vector<Time>> latencies(result.cells.size());
  std::vector<std::int64_t> latencySums(result.cells.size(), 0);

  std::vector<bool> seenRun(spec.runCount(), false);
  for (const RunRecord& record : records) {
    // Records may have round-tripped through a shard file or journal;
    // never trust a self-reported coordinate that disagrees with the
    // grid (a corrupt cell_index would silently pollute another cell),
    // and never count the same run twice (inflated means/percentiles).
    const RunPoint expected = runPointFor(spec, record.point.runIndex);
    AMMB_REQUIRE(!seenRun[record.point.runIndex],
                 "run " + std::to_string(record.point.runIndex) +
                     " appears twice in the aggregated records");
    seenRun[record.point.runIndex] = true;
    const std::size_t run = record.point.runIndex;
    for (const RecordField<RunPoint>& f : kPointFields) {
      const auto m = std::get<std::uint64_t RunPoint::*>(f.member);
      AMMB_REQUIRE(record.point.*m == expected.*m,
                   "run record " + std::to_string(run) + " carries a " +
                       f.key + " inconsistent with this spec — corrupt or "
                       "mismatched shard/journal input");
    }
    CellAggregate& cell = result.cells[record.point.cellIndex];
    ++cell.runs;
    if (record.failed()) {
      ++cell.errors;
      continue;
    }
    if (record.checked) {
      ++cell.checkedRuns;
      cell.checkViolations += record.checkViolations.size();
    }
    if (record.realized.measured()) {
      ++cell.measuredRuns;
      foldRealized(cell.realized, record.realized, run);
    }
    accumulateStats(cell.stats, record.result.stats, run);
    addChecked(cell.retransmits, record.result.retransmits, "retransmits", run);
    addChecked(endSums[cell.cellIndex], record.result.endTime, "end_time", run);
    ++endCounts[cell.cellIndex];
    if (record.result.solved) {
      ++cell.solved;
      solveTimes[cell.cellIndex].push_back(record.result.solveTime);
      addChecked(solveSums[cell.cellIndex], record.result.solveTime,
                 "solve_time", run);
    }
    for (const core::MessageMetric& pm : record.result.messages.perMessage) {
      if (!pm.completed()) continue;
      latencies[cell.cellIndex].push_back(pm.latency());
      addChecked(latencySums[cell.cellIndex], pm.latency(), "latency", run);
    }
  }

  for (CellAggregate& cell : result.cells) {
    std::vector<Time>& times = solveTimes[cell.cellIndex];
    if (!times.empty()) {
      std::sort(times.begin(), times.end());
      cell.minSolve = times.front();
      cell.maxSolve = times.back();
      cell.medianSolve = nearestRankPercentile(times, 50);
      cell.p95Solve = nearestRankPercentile(times, 95);
      cell.meanSolve = static_cast<double>(solveSums[cell.cellIndex]) /
                       static_cast<double>(times.size());
    }
    if (endCounts[cell.cellIndex] > 0) {
      cell.meanEndTime = static_cast<double>(endSums[cell.cellIndex]) /
                         static_cast<double>(endCounts[cell.cellIndex]);
    }
    std::vector<Time>& lats = latencies[cell.cellIndex];
    cell.messages = lats.size();
    if (!lats.empty()) {
      std::sort(lats.begin(), lats.end());
      cell.p50Latency = nearestRankPercentile(lats, 50);
      cell.p95Latency = nearestRankPercentile(lats, 95);
      cell.maxLatency = lats.back();
      cell.meanLatency = static_cast<double>(latencySums[cell.cellIndex]) /
                         static_cast<double>(lats.size());
    }
  }

  if (options.keepRunRecords) result.runs = std::move(records);
  return result;
}

int effectiveThreads(int requested, std::size_t work) {
  if (requested <= 0) {
    requested = static_cast<int>(std::thread::hardware_concurrency());
    if (requested <= 0) requested = 1;
  }
  requested = std::min<int>(requested, static_cast<int>(work));
  return std::max(requested, 1);
}

std::vector<RunRecord> SweepRunner::runPoints(
    const SweepSpec& spec, const std::vector<RunPoint>& points) const {
  spec.validate();
  std::vector<RunRecord> records(points.size());

  const int threads = effectiveThreads(options_.threads, points.size());

  // Work-stealing over a single atomic index: runs are share-nothing,
  // so the only shared mutable state is the claim counter and each
  // run's private result slot.
  std::atomic<std::size_t> nextRun{0};
  std::atomic<std::size_t> doneRuns{0};
  std::mutex progressMutex;
  const auto worker = [&] {
    while (true) {
      const std::size_t i = nextRun.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      records[i] = executeRun(spec, points[i]);
      // Unsynchronized by design: the observer serializes the record
      // in parallel and locks only around its sink.
      if (options_.onRecord) options_.onRecord(records[i]);
      const std::size_t done =
          doneRuns.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.progress) {
        std::lock_guard<std::mutex> lock(progressMutex);
        options_.progress(done, points.size());
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  return records;
}

SweepResult SweepRunner::run(const SweepSpec& spec) const {
  spec.validate();
  const auto started = std::chrono::steady_clock::now();

  std::vector<RunRecord> records = runPoints(spec, enumerateRuns(spec));

  AggregateOptions aggregate;
  aggregate.threads = effectiveThreads(options_.threads, records.size());
  aggregate.keepRunRecords = options_.keepRunRecords;
  SweepResult result = aggregateRecords(spec, std::move(records), aggregate);
  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

}  // namespace ammb::runner
