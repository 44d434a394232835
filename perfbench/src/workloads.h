// The benchmark's workloads and the sample each one produces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/json.h"

namespace perfbench {

/// One measured sample: a fresh process runs one workload once.
struct Sample {
  double setupS = 0.0;  ///< host time before the timed run
  double runS = 0.0;    ///< host time of the timed run (engine or grid)
  double cellMs = 0.0;  ///< host wall time per grid cell
  std::uint64_t rcvs = 0;
  /// Digest of the simulated output (solve tick, EngineStats, trace
  /// hash, cell aggregates); host timings never enter it.
  std::string fingerprint;
  /// Correctness findings; empty when the sample is correct.
  std::vector<std::string> problems;
  /// Per-layer metrics (traced samples only), by BENCHMARK.json name.
  ammb::runner::json::Object layers;
  /// Extra facts worth printing (spec fingerprints).
  ammb::runner::json::Object info;
};

bool isEngineWorkload(const std::string& name);

/// bmmb-static or bmmb-adversarial-drift-checked.
Sample runEngineWorkload(const std::string& name, std::uint64_t seed,
                         bool traced);

/// sweep-grid: the benchmark-owned spec copies under `specDir`.
Sample runSweepWorkload(const std::string& specDir, std::uint64_t seed,
                        bool traced);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// The harness self-tests (span arithmetic, percentile rule); returns
/// the number of failed checks.
int runSelfTest();

}  // namespace perfbench
