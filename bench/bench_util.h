// Shared helpers for the benchmark binaries.
//
// Every bench binary follows the same pattern: google-benchmark
// registrations measure wall-clock cost of the simulations, and custom
// counters report the *simulated* quantities the paper's tables are
// about — solve time in ticks, the paper's formula evaluated at the
// same parameters, and their ratio.  After the benchmark run each
// binary prints a paper-style table (rows = sweep points) so the
// output can be compared to Figure 1 / Figure 2 at a glance.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "core/experiment.h"
#include "runner/emit.h"
#include "runner/sweep_runner.h"

namespace ammb::bench {

/// Peak resident set size of this process in MiB (Linux ru_maxrss is
/// KiB).  A measurement of the machine, not the simulation: bench
/// documents that carry it must be compared with
/// `ammb_sweep compare --ignore-key peak_rss_mb`.
inline double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

#ifdef AMMB_BENCH_COUNT_ALLOCS
/// Run-phase allocation counter, fed by the replacement operator new
/// below.
inline std::atomic<std::uint64_t> g_allocOps{0};
#endif

/// One row of a paper-style results table.
struct Row {
  std::string label;
  Time measured = 0;   ///< simulated solve time (ticks)
  Time predicted = 0;  ///< the paper's bound / formula (ticks)
};

/// Prints rows as an aligned table with a measured/predicted ratio.
inline void printTable(const std::string& title,
                       const std::vector<Row>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-48s %14s %14s %8s\n", "configuration", "measured",
              "predicted", "ratio");
  for (const Row& row : rows) {
    const double ratio =
        row.predicted > 0
            ? static_cast<double>(row.measured) / row.predicted
            : 0.0;
    std::printf("%-48s %14lld %14lld %8.3f\n", row.label.c_str(),
                static_cast<long long>(row.measured),
                static_cast<long long>(row.predicted), ratio);
  }
}

/// Standard-model MacParams helper.
inline mac::MacParams stdParams(Time fprog, Time fack) {
  mac::MacParams p;
  p.fprog = fprog;
  p.fack = fack;
  p.variant = mac::ModelVariant::kStandard;
  return p;
}

/// Enhanced-model MacParams helper.
inline mac::MacParams enhParams(Time fprog, Time fack) {
  mac::MacParams p = stdParams(fprog, fack);
  p.variant = mac::ModelVariant::kEnhanced;
  return p;
}

/// A solved run's time in ticks; aborts the bench on failure.
inline Time mustSolve(const core::RunResult& result, const char* what) {
  if (!result.solved) {
    std::fprintf(stderr, "bench run failed to solve: %s\n", what);
    std::abort();
  }
  return result.solveTime;
}

/// Worker threads used by the bench sweeps.
inline int sweepThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw > 8 ? 8 : hw);
}

/// Runs a sweep on the bench worker pool; aborts if any run failed.
inline runner::SweepResult mustSweep(const runner::SweepSpec& spec) {
  runner::SweepRunner::Options options;
  options.threads = sweepThreads();
  options.keepRunRecords = false;
  const auto result = runner::SweepRunner(options).run(spec);
  if (result.errorCount() != 0) {
    std::fprintf(stderr, "bench sweep '%s' had %llu failed runs\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(result.errorCount()));
    std::abort();
  }
  return result;
}

/// A fully solved cell's worst (max over seeds) solve time in ticks.
inline Time mustSolveCell(const runner::CellAggregate& cell) {
  if (cell.solved != cell.runs) {
    std::fprintf(stderr, "bench cell %s/%s/k=%d failed to solve\n",
                 cell.topology.c_str(), cell.scheduler.c_str(), cell.k);
    std::abort();
  }
  return cell.maxSolve;
}

}  // namespace ammb::bench

#ifdef AMMB_BENCH_COUNT_ALLOCS
// Counted global operator new: satellite evidence for the pooled /
// flattened engine containers.  A replaceable operator may be defined
// in exactly one translation unit, so only the binary's main .cpp may
// define AMMB_BENCH_COUNT_ALLOCS before including this header.
namespace ammb::bench::detail {
inline void* countedAlloc(std::size_t size) {
  g_allocOps.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace ammb::bench::detail

void* operator new(std::size_t size) {
  return ammb::bench::detail::countedAlloc(size);
}
void* operator new[](std::size_t size) {
  return ammb::bench::detail::countedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif
