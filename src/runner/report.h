// The paper's tables, read back from a sweep's run records.
//
// A record says how long one run took; the report pairs it with the
// bound a theorem gives that same run.  It rebuilds the run's
// topology, arrivals, RunConfig and ProtocolSpec from the spec and the
// run's seed with the builders executeRun() uses, and asks
// core::applicableBound() which theorem holds.  Pairing is per run,
// not per cell: on grey-zone fields D varies with the seed, so a
// cell's worst solve time and its smallest bound can belong to
// different runs.  `ammb_sweep report` prints the result; it never
// changes a record.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "runner/sweep_runner.h"

namespace ammb::runner {

/// One run a theorem covers, next to its bound.
struct BoundedRun {
  std::size_t runIndex = 0;
  core::Bound bound;
  bool failed = false;
  bool solved = false;
  Time solveTime = kTimeNever;

  /// solveTime / bound; infinite when the run failed or did not solve.
  double ratio() const;
  /// Failed, did not solve, or solved after its bound.
  bool violates() const {
    return failed || !solved || solveTime > bound.ticks;
  }
};

struct Report {
  /// Per cell, in grid order: the worst-ratio run among those a theorem
  /// covers (the earliest on ties; empty when the cell has none).
  std::vector<std::optional<BoundedRun>> rows;
  std::size_t boundedRuns = 0;  ///< runs a theorem covers
  /// One line per bounded run that violates(), in run order, naming
  /// its cell.
  std::vector<std::string> violations;
};

/// Pairs every record with its run's bound.  Records are placed by
/// run index, so any order and any subset of the grid is accepted.
Report buildReport(const SweepSpec& spec,
                   const std::vector<RunRecord>& records);

/// One Markdown table: a row per cell with its coordinates, theorem,
/// and the worst run's solve, bound, ratio, D and r ("—" where no
/// theorem applies).
std::string reportMarkdown(const SweepSpec& spec, const Report& report);

}  // namespace ammb::runner
