// The engine's deterministic gates on large grey-zone fields.
//
// Self-timed with std::chrono: the quantities of interest are
// whole-run trace hashes and engine stats, steady-state allocation
// behavior of the flattened per-broadcast containers (a counting
// global operator new), and the peak RSS of a checked out-of-core
// run — none of which fit a microbenchmark loop.
//
// Modes:
//
//   bench_engine_gates --check OUT.json
//       Re-runs the n = 1e4 static and drifting scenarios: one
//       untraced run for the allocation bound, one traced run for the
//       trace hash and engine stats.  Writes a fully deterministic
//       document (hashes, stats, solve times, the allocation-bound
//       boolean — no wall clocks) plus the process's machine-dependent
//       peak_rss_mb.  The test suite diffs that document against
//       sweeps/baselines/BENCH_engine_check.json via
//       `ammb_sweep compare --ignore-key peak_rss_mb` at zero
//       tolerance on everything else.
//
//   bench_engine_gates --spool-gate OUT.json [--rss-ceiling-mb N]
//       Out-of-core gate.  One checked n = 1e5 grey-zone-field run with
//       the trace spooled to disk and every oracle attached as a
//       streaming consumer (trace hash, full MAC + MMB + protocol
//       checks) — the peak-RSS point of the trace-pipeline claim.
//       Exit-codes on an oracle violation or, when a ceiling is given,
//       on peak RSS above it.  The ceiling must be a positive number of
//       MiB; anything else is rejected before the run starts.
//
// Exit codes: 0 pass, 1 gate failure, 2 usage or input errors.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <variant>
#include <vector>

#include "check/golden.h"
#include "check/oracles.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "runner/emit.h"
#include "runner/json.h"

namespace {

/// Every global operator new of this process, counted so the check
/// gate can bound the run phase's allocations per delivery.
std::atomic<std::uint64_t> g_allocOps{0};

/// Peak resident set size of this process in MiB (Linux ru_maxrss is
/// KiB).  A measurement of the machine, not the simulation: documents
/// that carry it must be compared with
/// `ammb_sweep compare --ignore-key peak_rss_mb`.
double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocOps.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ammb;
namespace json = runner::json;

constexpr Time kFprog = 4;
constexpr Time kFack = 32;

struct Scenario {
  std::string name;
  NodeId n = 0;
  double avgDegree = 8.0;
  int k = 8;
  core::DynamicsSpec dynamics;
  Time maxTime = 200'000;
};

std::vector<Scenario> checkScenarios() {
  // The drift period sits well inside the field's solve time (a couple
  // hundred ticks at this density), so every epoch boundary — and with
  // it the guard's reconciliation pass — fires mid-run.
  core::DynamicsSpec drift;
  drift.kind = core::DynamicsSpec::Kind::kGreyDrift;
  drift.epochs = 3;
  drift.period = 48;
  drift.churn = 0.2;

  // The average G-degree target sits above the ln(n) connectivity
  // threshold of a random unit-disk field, so greyZoneField finds a
  // connected embedding within its resampling budget.
  return {{"grey1e4-static", 10'000, 13.0, 8, {}, 200'000},
          {"grey1e4-drift", 10'000, 13.0, 8, drift, 200'000}};
}

/// Scenario topologies are deterministic in (n, avgDegree) alone, so
/// the static and drifting 1e4 scenarios share one field.
graph::DualGraph buildField(const Scenario& s) {
  Rng rng(1234 + static_cast<std::uint64_t>(s.n));
  return graph::gen::greyZoneField(s.n, s.avgDegree, /*c=*/1.5,
                                   /*pGrey=*/0.3, rng);
}

core::MmbWorkload workloadFor(const Scenario& s) {
  core::MmbWorkload w;
  w.k = s.k;
  const NodeId stride = s.n / static_cast<NodeId>(s.k);
  for (int i = 0; i < s.k; ++i) {
    w.arrivals.push_back(
        {static_cast<NodeId>((static_cast<NodeId>(i) * stride) % s.n),
         static_cast<MsgId>(i), 0});
  }
  return w;
}

core::RunConfig configFor(const Scenario& s, bool recordTrace) {
  core::RunConfig config;
  config.mac.fprog = kFprog;
  config.mac.fack = kFack;
  config.mac.variant = mac::ModelVariant::kStandard;
  config.scheduler = core::SchedulerKind::kRandom;
  config.limits.maxTime = s.maxTime;
  config.dynamics = s.dynamics;
  config.seed = 1;
  config.recordTrace = recordTrace;
  return config;
}

struct Measure {
  core::RunResult result;
  std::uint64_t traceHash = 0;  ///< only when traced
  std::uint64_t runAllocs = 0;
};

Measure runOnce(const graph::DualGraph& topology, const Scenario& s,
                bool recordTrace) {
  const core::MmbWorkload workload = workloadFor(s);
  core::Experiment experiment(topology, core::bmmbProtocol(), workload,
                              configFor(s, recordTrace));
  Measure m;
  const std::uint64_t ops0 = g_allocOps.load(std::memory_order_relaxed);
  m.result = experiment.run();
  m.runAllocs = g_allocOps.load(std::memory_order_relaxed) - ops0;
  if (recordTrace) m.traceHash = check::traceHash(experiment.engine().trace());
  return m;
}

/// The engine counters under the run-record keys, in the same order.
json::Object statsJson(const mac::EngineStats& s) {
  json::Object o;
  for (const runner::RecordField<mac::EngineStats>& f :
       runner::kStatsFields) {
    const auto m = std::get<std::uint64_t mac::EngineStats::*>(f.member);
    o.emplace_back(f.key, static_cast<std::int64_t>(s.*m));
  }
  return o;
}

std::string hashHex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string("0x") + buf;
}

void writeJson(const std::string& path, const json::Value& doc) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(2);
  }
  out << json::dump(doc, 2) << "\n";
}

// --- check gate --------------------------------------------------------------

int runCheck(const std::string& outPath) {
  json::Array scenarioDocs;
  for (const Scenario& s : checkScenarios()) {
    const graph::DualGraph topology = buildField(s);
    // The allocation metric comes from an untraced run: trace
    // recording allocates per event and would swamp the engine's own
    // behavior.  The traced run provides the trace hash and stats.
    const Measure untraced = runOnce(topology, s, /*recordTrace=*/false);
    const Measure traced = runOnce(topology, s, /*recordTrace=*/true);
    const double allocsPerRcv =
        untraced.result.stats.rcvs == 0
            ? 0.0
            : static_cast<double>(untraced.runAllocs) /
                  static_cast<double>(untraced.result.stats.rcvs);

    json::Object doc;
    doc.emplace_back("name", s.name);
    doc.emplace_back("n", static_cast<std::int64_t>(s.n));
    doc.emplace_back("k", s.k);
    doc.emplace_back("dynamics", s.dynamics.label());
    doc.emplace_back("solved", traced.result.solved);
    doc.emplace_back("solve_time",
                     static_cast<std::int64_t>(traced.result.solveTime));
    doc.emplace_back("end_time",
                     static_cast<std::int64_t>(traced.result.endTime));
    doc.emplace_back("trace_hash", hashHex(traced.traceHash));
    doc.emplace_back("stats", statsJson(traced.result.stats));
    // Flat-container evidence, stated as a wide-margin bound rather
    // than an exact count so the gate is not hostage to
    // allocator-library growth policies: pooled scratch + reserved
    // fanout vectors put the run phase near 1 allocation per delivery
    // (measured 0.91 static, 1.01 drifting), while the per-broadcast
    // hash tables and per-evaluate interval vectors they replaced cost
    // ~10.
    doc.emplace_back("run_allocs_per_rcv_lt_2", allocsPerRcv < 2.0);
    scenarioDocs.push_back(std::move(doc));

    std::printf("%-16s trace=%s allocs/rcv=%.4f\n", s.name.c_str(),
                hashHex(traced.traceHash).c_str(), allocsPerRcv);
  }
  json::Object doc;
  doc.emplace_back("bench", "engine_check");
  doc.emplace_back("protocol", "bmmb");
  doc.emplace_back("scenarios", std::move(scenarioDocs));
  // Machine measurement, not simulation output: the compare gate
  // excludes it (--ignore-key peak_rss_mb).
  doc.emplace_back("peak_rss_mb", peakRssMb());
  writeJson(outPath, doc);
  return 0;
}

// --- spool gate --------------------------------------------------------------

// One checked million-event-class run, out of core: the n = 1e5 field
// with the trace spooled to disk and the whole checking stack attached
// as streaming consumers.  Everything the run produces (hash, verdict,
// stats) is deterministic; peak_rss_mb is the machine-dependent
// evidence that checked runs no longer hold the event log in memory.
// rssCeilingMb <= 0 means no ceiling.
int runSpoolGate(const std::string& outPath, double rssCeilingMb) {
  Scenario s;
  s.name = "grey1e5-spool-checked";
  s.n = 100'000;
  s.avgDegree = 16.0;
  s.k = 8;
  s.maxTime = 1'000'000;
  const graph::DualGraph topology = buildField(s);
  const core::MmbWorkload workload = workloadFor(s);
  const core::ProtocolSpec protocol = core::bmmbProtocol();

  core::RunConfig config = configFor(s, /*recordTrace=*/true);
  config.traceMode = sim::TraceMode::spool();

  core::Experiment experiment(topology, protocol, workload, config);
  check::TraceHasher hasher;
  check::ExecutionChecker checker(experiment.view(), protocol, config.mac,
                                  workload);
  experiment.mutableTrace().attachConsumer(&hasher);
  experiment.mutableTrace().attachConsumer(&checker);

  const auto t0 = std::chrono::steady_clock::now();
  const core::RunResult result = experiment.run();
  const check::OracleReport report = checker.finish(result);
  const double wallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  const double peakRss = peakRssMb();
  const bool withinCeiling = rssCeilingMb <= 0.0 || peakRss <= rssCeilingMb;

  json::Object doc;
  doc.emplace_back("bench", "trace_spool_gate");
  doc.emplace_back("protocol", "bmmb");
  doc.emplace_back("name", s.name);
  doc.emplace_back("n", static_cast<std::int64_t>(s.n));
  doc.emplace_back("k", s.k);
  doc.emplace_back("trace_mode", config.traceMode.label());
  doc.emplace_back("check", "full");
  doc.emplace_back("solved", result.solved);
  doc.emplace_back("solve_time", static_cast<std::int64_t>(result.solveTime));
  doc.emplace_back("end_time", static_cast<std::int64_t>(result.endTime));
  doc.emplace_back("trace_hash", hashHex(hasher.hash()));
  doc.emplace_back("stats", statsJson(result.stats));
  doc.emplace_back("check_ok", report.ok);
  doc.emplace_back("check_violations",
                   static_cast<std::int64_t>(report.violations.size()));
  // Machine measurement; the compare gate ignores it.
  doc.emplace_back("peak_rss_mb", peakRss);
  writeJson(outPath, doc);

  std::printf(
      "%s: %s, trace=%s, %llu rcvs, %s, peak RSS %.1f MiB%s, %.0f ms\n",
      s.name.c_str(), result.solved ? "solved" : "UNSOLVED",
      hashHex(hasher.hash()).c_str(),
      static_cast<unsigned long long>(result.stats.rcvs),
      report.ok ? "oracles green" : "ORACLE VIOLATIONS", peakRss,
      rssCeilingMb > 0.0
          ? (std::string(" (ceiling ") + std::to_string(rssCeilingMb) + ")")
                .c_str()
          : "",
      wallMs);
  for (const std::string& v : report.violations) {
    std::fprintf(stderr, "oracle violation: %s\n", v.c_str());
  }
  if (!report.ok) return 1;
  if (!withinCeiling) {
    std::fprintf(stderr,
                 "FAIL: peak RSS %.1f MiB exceeds the %.1f MiB ceiling\n",
                 peakRss, rssCeilingMb);
    return 1;
  }
  return 0;
}

/// Strictly parses a positive, finite MiB ceiling; false on anything
/// else ("", "abc", "12x", "0", "-5", "inf", "nan").
bool parseCeilingMb(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  if (!std::isfinite(value) || value <= 0.0) return false;
  *out = value;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_engine_gates --check OUT.json\n"
               "       bench_engine_gates --spool-gate OUT.json "
               "[--rss-ceiling-mb N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string checkPath;
  std::string spoolGatePath;
  double rssCeilingMb = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      checkPath = argv[++i];
    } else if (arg == "--spool-gate" && i + 1 < argc) {
      spoolGatePath = argv[++i];
    } else if (arg == "--rss-ceiling-mb" && i + 1 < argc) {
      const char* value = argv[++i];
      if (!parseCeilingMb(value, &rssCeilingMb)) {
        std::fprintf(stderr,
                     "bench_engine_gates: --rss-ceiling-mb needs a positive "
                     "number of MiB (got \"%s\")\n",
                     value);
        return 2;
      }
    } else {
      return usage();
    }
  }
  // Exactly one mode; the ceiling only applies to the spool gate.
  if (checkPath.empty() == spoolGatePath.empty()) return usage();
  if (rssCeilingMb > 0.0 && spoolGatePath.empty()) return usage();
  try {
    if (!spoolGatePath.empty()) return runSpoolGate(spoolGatePath, rssCeilingMb);
    return runCheck(checkPath);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_engine_gates: %s\n", e.what());
    return 2;
  }
}
