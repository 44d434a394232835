// The sweep-grid workload: the calls `ammb_sweep run` makes, with one
// worker, over the benchmark's own copies of two spec files:
//
//   parseSpec -> buildSweep -> enumerateRuns -> executeRun per point
//   -> aggregateRecords -> toJson + cellsCsv + runsCsv -> journal lines
//
// Hundreds of runs of a few milliseconds each, so per-run setup,
// small-trace checking, aggregation and emit dominate and the engine
// loop is a minority.  runner::SweepRunner's thread pool is not used.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/golden.h"
#include "ledger.h"
#include "runner/emit.h"
#include "runner/spec_io.h"
#include "runner/sweep_runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ammb;
namespace json = runner::json;

struct Grid {
  const char* file;
  Layer executeLayer;  ///< where the traced run charges its executeRun calls
};

// fig1_checked.json is sweeps/fig1_standard.json with check: full (648
// runs); csma_small.json is sweeps/csma_grid.json (16 CSMA/CA runs,
// check: mac), the phys layer's share of the sweep.
const Grid kGrids[] = {{"fig1_checked.json", Layer::kRunnerExecute},
                       {"csma_small.json", Layer::kPhysCsma}};
constexpr std::size_t kGridCount = sizeof kGrids / sizeof kGrids[0];

// Parsing and building both specs takes well under a millisecond, so
// the untraced sample repeats it and reports the median.
constexpr int kSetupRepeats = 15;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string hex(std::uint64_t h) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(h));
  return text;
}

double secondsBetween(std::int64_t fromNs, std::int64_t toNs) {
  return static_cast<double>(toNs - fromNs) * 1e-9;
}

/// The committed seed range shifted by whole ranges, so every benchmark
/// seed draws its own topologies and schedules.
runner::SpecDoc seeded(runner::SpecDoc doc, std::uint64_t seed) {
  const std::uint64_t span = doc.seedEnd - doc.seedBegin;
  doc.seedBegin += (seed % (std::uint64_t{1} << 32)) * span;
  doc.seedEnd = doc.seedBegin + span;
  return doc;
}

/// Runs `body` inside a span when the sample is traced.
template <typename Body>
auto timed(Ledger* ledger, Layer layer, Body&& body) {
  if (ledger == nullptr) return body();
  Span span(*ledger, layer);
  return body();
}

}  // namespace

Sample runSweepWorkload(const std::string& specDir, std::uint64_t seed,
                        bool traced) {
  Sample sample;
  std::vector<std::string> texts;
  for (const Grid& grid : kGrids) {
    texts.push_back(readFile(specDir + "/" + grid.file));
    const runner::SpecDoc doc = runner::parseSpec(texts.back());
    json::Object prints;
    prints.emplace_back("committed", runner::specFingerprint(doc));
    prints.emplace_back("seeded", runner::specFingerprint(seeded(doc, seed)));
    sample.info.emplace_back("spec " + doc.name, std::move(prints));
  }

  Ledger ledger;
  Ledger* const timing = traced ? &ledger : nullptr;
  std::vector<runner::SweepSpec> specs(kGridCount);
  if (traced) {
    ledger.open(Layer::kEngine, Ledger::nowNs());
    for (std::size_t g = 0; g < kGridCount; ++g) {
      const runner::SpecDoc doc = timed(timing, Layer::kRunnerParse, [&] {
        return seeded(runner::parseSpec(texts[g]), seed);
      });
      specs[g] = timed(timing, Layer::kRunnerBuild,
                       [&] { return runner::buildSweep(doc); });
      for (runner::TopologySpec& topology : specs[g].topologies) {
        topology.make = [&ledger, make = std::move(topology.make)](
                            std::uint64_t topologySeed) {
          Span span(ledger, Layer::kGraph);
          return make(topologySeed);
        };
      }
    }
  } else {
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const std::int64_t t0 = Ledger::nowNs();
      for (std::size_t g = 0; g < kGridCount; ++g) {
        specs[g] = runner::buildSweep(seeded(runner::parseSpec(texts[g]), seed));
      }
      setup.push_back(secondsBetween(t0, Ledger::nowNs()));
    }
    std::sort(setup.begin(), setup.end());
    sample.setupS = median(setup);
  }

  std::vector<std::vector<runner::RunRecord>> records(kGridCount);
  std::vector<double> executeMs;
  const std::int64_t tExecute = Ledger::nowNs();
  for (std::size_t g = 0; g < kGridCount; ++g) {
    for (const runner::RunPoint& point : runner::enumerateRuns(specs[g])) {
      if (!traced) {
        records[g].push_back(runner::executeRun(specs[g], point));
        continue;
      }
      ledger.open(kGrids[g].executeLayer, Ledger::nowNs());
      records[g].push_back(runner::executeRun(specs[g], point));
      const std::int64_t ns = ledger.close(Ledger::nowNs());
      if (kGrids[g].executeLayer == Layer::kRunnerExecute) {
        executeMs.push_back(static_cast<double>(ns) * 1e-6);
      }
    }
  }
  const std::int64_t tAggregate = Ledger::nowNs();
  std::vector<runner::SweepResult> results;
  for (std::size_t g = 0; g < kGridCount; ++g) {
    results.push_back(timed(timing, Layer::kRunnerAggregate, [&] {
      return runner::aggregateRecords(specs[g], std::move(records[g]));
    }));
  }
  std::size_t emitted = 0;
  for (const runner::SweepResult& result : results) {
    emitted += timed(timing, Layer::kRunnerEmit, [&] {
      return runner::toJson(result).size() + runner::cellsCsv(result).size() +
             runner::runsCsv(result).size();
    });
  }
  for (const runner::SweepResult& result : results) {
    emitted += timed(timing, Layer::kRunnerJournal, [&] {
      std::size_t bytes = 0;
      for (const runner::RunRecord& record : result.runs) {
        bytes += runner::journalRecordLine(record).size();
      }
      return bytes;
    });
  }
  const std::int64_t tEnd = Ledger::nowNs();
  const std::int64_t wallNs = traced ? ledger.close(Ledger::nowNs()) : 0;

  std::uint64_t cells = 0;
  mac::EngineStats stats;
  for (const runner::SweepResult& result : results) {
    cells += result.cells.size();
    for (const runner::RunRecord& record : result.runs) {
      if (record.failed()) {
        sample.problems.push_back(result.name + ": a run threw: " +
                                  record.error);
        break;
      }
    }
    if (result.checkViolationCount() != 0) {
      sample.problems.push_back(
          result.name + ": " + std::to_string(result.checkViolationCount()) +
          " oracle violations");
    }
    for (const runner::CellAggregate& cell : result.cells) {
      if (cell.solved != cell.runs || cell.checkedRuns != cell.runs) {
        sample.problems.push_back(result.name + ": cell " + cell.topology +
                                  "/" + cell.scheduler + "/k=" +
                                  std::to_string(cell.k) +
                                  " has unsolved or unchecked runs");
      }
      stats.bcasts += cell.stats.bcasts;
      stats.rcvs += cell.stats.rcvs;
      stats.forcedRcvs += cell.stats.forcedRcvs;
      stats.aborts += cell.stats.aborts;
    }
    sample.fingerprint += result.name + "=" +
                          hex(check::fnv1a(runner::cellsCsv(result))) + " ";
  }
  sample.fingerprint += "rcvs=" + std::to_string(stats.rcvs);
  sample.rcvs = stats.rcvs;
  sample.runS = secondsBetween(tExecute, tAggregate);
  sample.cellMs = secondsBetween(tExecute, tEnd) * 1e3 /
                  static_cast<double>(std::max<std::uint64_t>(cells, 1));
  sample.info.emplace_back("emitted_bytes", emitted);
  if (!traced) return sample;

  const std::int64_t engineSelfNs = ledger.selfNs(Layer::kEngine);
  if (!ledger.idle() || ledger.totalSelfNs() != wallNs || engineSelfNs < 0) {
    sample.problems.push_back(
        "span closure: self times do not sum to the traced wall time");
  }
  std::sort(executeMs.begin(), executeMs.end());
  const TailPercentile tail = tailPercentile(executeMs);
  const double rcvs = static_cast<double>(stats.rcvs);
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  auto& L = sample.layers;
  L.emplace_back("graph.build_s", ledger.selfSeconds(Layer::kGraph));
  L.emplace_back("runner.parse_s", ledger.selfSeconds(Layer::kRunnerParse));
  L.emplace_back("runner.build_s", ledger.selfSeconds(Layer::kRunnerBuild));
  L.emplace_back("runner.runs", executeMs.size());
  L.emplace_back("runner.execute_s",
                 ledger.selfSeconds(Layer::kRunnerExecute));
  L.emplace_back("runner.execute_p50_ms", median(executeMs));
  L.emplace_back("runner.execute_tail_pct", tail.percent);
  L.emplace_back("runner.execute_tail_ms", tail.value);
  L.emplace_back("runner.aggregate_s",
                 ledger.selfSeconds(Layer::kRunnerAggregate));
  L.emplace_back("runner.emit_s", ledger.selfSeconds(Layer::kRunnerEmit));
  L.emplace_back("runner.journal_s",
                 ledger.selfSeconds(Layer::kRunnerJournal));
  L.emplace_back("phys.csma_runs", ledger.spans(Layer::kPhysCsma));
  L.emplace_back("phys.csma_execute_s", ledger.selfSeconds(Layer::kPhysCsma));
  L.emplace_back("engine.self_s", static_cast<double>(engineSelfNs) * 1e-9);
  L.emplace_back("engine.self_ns_per_rcv", share(engineSelfNs, rcvs));
  L.emplace_back("engine.bcasts", stats.bcasts);
  L.emplace_back("engine.rcvs", stats.rcvs);
  L.emplace_back("engine.forced_rcvs", stats.forcedRcvs);
  L.emplace_back("engine.forced_share", share(stats.forcedRcvs, rcvs));
  L.emplace_back("engine.aborts", stats.aborts);
  L.emplace_back("tracing.wall_s", static_cast<double>(wallNs) * 1e-9);
  return sample;
}

}  // namespace perfbench
