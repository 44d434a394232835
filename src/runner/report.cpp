#include "runner/report.h"

#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>

namespace ammb::runner {

namespace {

constexpr const char* kNone = "—";

/// The grid axes, in cell order: the table's leading columns.
constexpr const char* kAxes[] = {"topology", "scheduler", "k",       "mac",
                                 "workload", "dynamics",  "reaction"};

/// The bound one run is entitled to, rebuilt from the spec and the
/// run's seed exactly as executeRun() builds the run.
std::optional<core::Bound> boundFor(const SweepSpec& spec,
                                    const RunPoint& point) {
  const graph::DualGraph topology =
      spec.topologies[point.topoIdx].make(point.seed);
  const int k = spec.ks[point.kIdx];
  const std::unique_ptr<core::ArrivalProcess> arrivals =
      spec.workloads[point.wlIdx].make(k, topology.n(), point.seed);
  AMMB_REQUIRE(arrivals != nullptr, "workload generator returned null");
  return core::applicableBound(
      topology, core::materializeWorkload(*arrivals),
      runConfigFor(spec, point),
      protocolSpecFor(spec, topology.n(), k, point.reactIdx));
}

/// The cell's axis labels, in grid order.
std::vector<std::string> cellCoordinates(const SweepSpec& spec,
                                         const RunPoint& p) {
  return {spec.topologies[p.topoIdx].name,
          core::toString(spec.schedulers[p.schedIdx]),
          std::to_string(spec.ks[p.kIdx]),
          spec.macs[p.macIdx].name,
          spec.workloads[p.wlIdx].name,
          spec.dynamics[p.dynIdx].name,
          spec.reactions[p.reactIdx].label()};
}

std::string describeViolation(const SweepSpec& spec, const RunPoint& point,
                              const BoundedRun& run) {
  const std::vector<std::string> coordinates = cellCoordinates(spec, point);
  std::string text = "cell " + std::to_string(point.cellIndex) + " (";
  for (std::size_t i = 0; i < coordinates.size(); ++i) {
    text += (i == 0 ? "" : " ") + std::string(kAxes[i]) + "=" +
            coordinates[i];
  }
  text += ") run " + std::to_string(point.runIndex) + " seed " +
          std::to_string(point.seed) + ": ";
  const std::string theorem = "Theorem " + core::toString(run.bound.theorem) +
                              " bound " + std::to_string(run.bound.ticks);
  if (run.failed) return text + "failed under its " + theorem;
  if (!run.solved) return text + "did not solve under its " + theorem;
  return text + "solve " + std::to_string(run.solveTime) + " exceeds its " +
         theorem;
}

}  // namespace

double BoundedRun::ratio() const {
  constexpr double kMissed = std::numeric_limits<double>::infinity();
  if (failed || !solved) return kMissed;
  // A one-node line solves at t = 0 against a zero bound: met exactly.
  if (bound.ticks == 0) return solveTime == 0 ? 1.0 : kMissed;
  return static_cast<double>(solveTime) / static_cast<double>(bound.ticks);
}

Report buildReport(const SweepSpec& spec,
                   const std::vector<RunRecord>& records) {
  Report report;
  report.rows.resize(spec.cellCount());
  std::vector<const RunRecord*> byRun(spec.runCount(), nullptr);
  for (const RunRecord& record : records) {
    // runPointFor rejects an index outside the grid.
    byRun[runPointFor(spec, record.point.runIndex).runIndex] = &record;
  }
  for (const RunRecord* record : byRun) {
    if (record == nullptr) continue;
    const RunPoint point = runPointFor(spec, record->point.runIndex);
    const std::optional<core::Bound> bound = boundFor(spec, point);
    if (!bound.has_value()) continue;
    ++report.boundedRuns;
    BoundedRun run;
    run.runIndex = point.runIndex;
    run.bound = *bound;
    run.failed = record->failed();
    run.solved = record->result.solved;
    run.solveTime = record->result.solveTime;
    if (run.violates()) {
      report.violations.push_back(describeViolation(spec, point, run));
    }
    std::optional<BoundedRun>& worst = report.rows[point.cellIndex];
    if (!worst.has_value() || run.ratio() > worst->ratio()) worst = run;
  }
  return report;
}

std::string reportMarkdown(const SweepSpec& spec, const Report& report) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);  // the ratio column
  out << "| cell";
  for (const char* axis : kAxes) out << " | " << axis;
  out << " | theorem | solve | bound | ratio | D | r |\n"
         "|---:|---|---|---:|---|---|---|---|---|---:|---:|---:|---:|---:|\n";
  for (std::size_t cell = 0; cell < report.rows.size(); ++cell) {
    out << "| " << cell;
    const RunPoint point = runPointFor(spec, cell * spec.seedsPerCell());
    for (const std::string& c : cellCoordinates(spec, point)) {
      out << " | " << c;
    }
    if (!report.rows[cell].has_value()) {
      for (int i = 0; i < 6; ++i) out << " | " << kNone;
      out << " |\n";
      continue;
    }
    const BoundedRun& run = *report.rows[cell];
    out << " | " << core::toString(run.bound.theorem) << " | ";
    if (run.failed || !run.solved) {
      out << (run.failed ? "failed" : "unsolved") << " | " << run.bound.ticks
          << " | " << kNone;
    } else {
      out << run.solveTime << " | " << run.bound.ticks << " | "
          << run.ratio();
    }
    out << " | " << run.bound.diameter << " | ";
    if (run.bound.radius.has_value()) {
      out << *run.bound.radius;
    } else {
      out << kNone;
    }
    out << " |\n";
  }
  return out.str();
}

}  // namespace ammb::runner
