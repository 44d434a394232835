// ammb_sweep — the sharded sweep service CLI.
//
//   ammb_sweep run SPEC.json [--shard I/N] [--threads T]
//              [--mac abstract|csma[:slot,cwMin,cwMax,maxRetries,pCapture]]
//              [--reaction none|retransmit|retransmit+remis[,...]]
//              [--journal PATH [--resume]] [--shard-json PATH]
//              [--json PATH] [--csv PATH] [--runs-csv PATH]
//              [--allow-errors] [--allow-violations]
//   ammb_sweep merge SPEC.json SHARD.json... [--json PATH] [--csv PATH]
//   ammb_sweep report SPEC.json SHARD.json...
//   ammb_sweep compare RESULT.json --baseline BASELINE.json
//              [--rel-tol R] [--abs-tol A]
//   ammb_sweep print SPEC.json
//
// `run` executes a spec file's grid (or the deterministic 1/N slice
// selected by --shard) on the SweepRunner worker pool.  With --journal
// every completed run is appended as one JSONL line and flushed, and
// --resume skips the already-journaled runs of a killed sweep —
// reproducing the exact aggregate bytes the uninterrupted run would
// have written.  `merge` re-aggregates N shard outputs bit-identically
// to an unsharded run of the same spec; `report` reads the same shard
// outputs back as the paper's tables, one Markdown row per cell with
// each run checked against the theorem that covers it (runner/report.h);
// `compare` diffs a result document against a committed baseline with
// explicit tolerances and exits nonzero on any regression (the CI
// gate); `print` validates a spec file and writes its canonical form.
//
// Exit codes: 0 success, 1 failed runs / merge mismatch / comparison
// difference / a run over its theorem's bound, 2 usage or input
// errors.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "runner/axis_codec.h"
#include "runner/compare.h"
#include "runner/emit.h"
#include "runner/report.h"
#include "runner/spec_io.h"
#include "tools/cli.h"

namespace {

using namespace ammb;
using tools::Args;
using tools::parseDoubleFlag;
using tools::parseIntFlag;
using tools::readFile;
using tools::writeFile;

int usage() {
  std::cerr
      << "usage: ammb_sweep run SPEC.json [--shard I/N] [--threads T]\n"
         "                  [--mac abstract|csma[:slot,cwMin,cwMax,"
         "maxRetries,pCapture]]\n"
         "                  [--reaction none|retransmit|retransmit+remis"
         "[,...]]\n"
         "                  [--backend sim|net[:basePort,loss,tickUs,"
         "gPrimeAttempts,ackDelayTicks,jitterUs]]\n"
         "                  [--trace-mode mem|spool[:bufRecords]]\n"
         "                  [--journal PATH [--resume]] [--shard-json PATH]\n"
         "                  [--json PATH] [--csv PATH] [--runs-csv PATH]\n"
         "                  [--allow-errors] [--allow-violations]\n"
         "       ammb_sweep merge SPEC.json SHARD.json... [--json PATH] "
         "[--csv PATH]\n"
         "       ammb_sweep report SPEC.json SHARD.json...\n"
         "       ammb_sweep compare RESULT.json --baseline BASELINE.json\n"
         "                  [--rel-tol R] [--abs-tol A] [--ignore-key K[,...]]\n"
         "       ammb_sweep print SPEC.json\n";
  return 2;
}

// --- run --------------------------------------------------------------------

int cmdRun(int argc, char** argv) {
  const Args args = Args::parse(
      argc, argv, 2,
      {"--shard", "--threads", "--mac", "--reaction", "--backend",
       "--trace-mode", "--journal", "--shard-json", "--json", "--csv",
       "--runs-csv"},
      {"--resume", "--allow-errors", "--allow-violations"});
  if (args.positional.size() != 1) return usage();
  const std::string specPath = args.positional[0];

  runner::SpecDoc doc = runner::loadSpecFile(specPath);
  // Result-bearing axis overrides (--mac, --reaction, --backend) apply
  // before the fingerprint is taken: they change results, so an
  // overridden run belongs to a different campaign than the file's and
  // can only journal/merge against shards of that same campaign.
  for (const runner::AxisCodec& codec : runner::axisCodecs()) {
    if (!codec.resultBearing) continue;
    if (const std::string* value = args.flag(codec.cliFlag)) {
      runner::applyAxisOverride(doc, codec, *value);
    }
  }
  const std::string fingerprint = runner::specFingerprint(doc);
  // The pure storage knob (--trace-mode) applies after the fingerprint
  // is taken: spooled traces commit the same record sequence as
  // in-memory ones, so a shard run with the override still
  // journals/merges against shards produced with any other setting.
  for (const runner::AxisCodec& codec : runner::axisCodecs()) {
    if (codec.resultBearing) continue;
    if (const std::string* value = args.flag(codec.cliFlag)) {
      runner::applyAxisOverride(doc, codec, *value);
    }
  }
  runner::SweepSpec spec = runner::buildSweep(doc);

  runner::Shard shard;
  if (const std::string* s = args.flag("--shard")) {
    shard = runner::parseShard(*s);
  }
  if (!shard.isWholeGrid()) {
    AMMB_REQUIRE(!args.has("--json") && !args.has("--csv") &&
                     !args.has("--runs-csv"),
                 "a sharded run covers only 1/" + std::to_string(shard.count) +
                     " of the grid; write --shard-json and use `ammb_sweep "
                     "merge` for aggregates");
    // The journal is a checkpoint, not an output format: merge only
    // reads shard JSON, so --shard-json is the one way a shard's work
    // reaches the merged result.
    AMMB_REQUIRE(args.has("--shard-json"),
                 "a sharded run needs --shard-json so `ammb_sweep merge` "
                 "can consume its output");
  }
  AMMB_REQUIRE(!args.has("--resume") || args.has("--journal"),
               "--resume needs --journal");

  const std::vector<runner::RunPoint> points =
      runner::shardRuns(spec, shard);

  // Resume: collect the intact records of an interrupted journal and
  // drop their points from the work list.  Without --resume an
  // existing journal is refused, not silently truncated — it is the
  // checkpoint of an interrupted sweep.
  std::vector<runner::RunRecord> journaled;
  if (const std::string* journalPath = args.flag("--journal")) {
    std::ifstream probe(*journalPath, std::ios::binary);
    if (probe.good()) {
      std::ostringstream buffer;
      buffer << probe.rdbuf();
      const std::string text = buffer.str();
      AMMB_REQUIRE(args.has("--resume") || text.empty(),
                   *journalPath + " already exists; pass --resume to "
                                  "continue it or delete it to start over");
      if (args.has("--resume") && !text.empty()) {
        const runner::JournalDoc journal = runner::parseJournal(text);
        AMMB_REQUIRE(journal.header.sweep == spec.name &&
                         journal.header.specFingerprint == fingerprint,
                     *journalPath + " was written for a different spec; "
                                   "delete it or drop --resume");
        AMMB_REQUIRE(journal.header.shard.index == shard.index &&
                         journal.header.shard.count == shard.count,
                     *journalPath + " was written for shard " +
                         journal.header.shard.toString() + ", not " +
                         shard.toString());
        std::unordered_set<std::size_t> seen;
        for (const runner::RunRecord& record : journal.records) {
          AMMB_REQUIRE(record.point.runIndex < spec.runCount() &&
                           shard.ownsRun(record.point.runIndex),
                       *journalPath + " contains run " +
                           std::to_string(record.point.runIndex) +
                           " which does not belong to shard " +
                           shard.toString());
          if (seen.insert(record.point.runIndex).second) {
            journaled.push_back(record);
          }
        }
        if (journal.truncatedTail) {
          std::cerr << "note: dropped a truncated trailing journal line\n";
        }
      }
    }
  }
  std::unordered_set<std::size_t> done;
  for (const runner::RunRecord& record : journaled) {
    done.insert(record.point.runIndex);
  }
  std::vector<runner::RunPoint> remaining;
  for (const runner::RunPoint& p : points) {
    if (done.count(p.runIndex) == 0) remaining.push_back(p);
  }

  // Journal sink: append (and flush) each record as it completes.  The
  // file is rewritten from the header plus the intact resumed records
  // first — never appended after a truncated trailing line, which would
  // corrupt the next record.  The rewrite goes through a temp file and
  // an atomic rename so a second kill mid-rewrite cannot destroy the
  // checkpointed progress it is recovering.
  std::ofstream journalOut;
  if (const std::string* journalPath = args.flag("--journal")) {
    const std::string tmpPath = *journalPath + ".tmp";
    {
      std::ofstream rewrite(tmpPath, std::ios::binary | std::ios::trunc);
      AMMB_REQUIRE(rewrite.good(), "cannot write " + tmpPath);
      runner::JournalHeader header{spec.name, fingerprint, shard,
                                   spec.runCount()};
      rewrite << runner::journalHeaderLine(header);
      for (const runner::RunRecord& record : journaled) {
        runner::appendJournalRecord(rewrite, record);
      }
      AMMB_REQUIRE(rewrite.good(), "write to " + tmpPath + " failed");
    }
    AMMB_REQUIRE(std::rename(tmpPath.c_str(), journalPath->c_str()) == 0,
                 "cannot replace " + *journalPath);
    journalOut.open(*journalPath, std::ios::binary | std::ios::app);
    AMMB_REQUIRE(journalOut.good(), "cannot write " + *journalPath);
  }

  runner::SweepRunner::Options options;
  if (const std::string* threads = args.flag("--threads")) {
    options.threads = parseIntFlag("--threads", *threads);
  }
  std::mutex journalMutex;
  if (journalOut.is_open()) {
    // Serialize off-lock (workers in parallel), write+flush under it.
    options.onRecord = [&journalOut,
                        &journalMutex](const runner::RunRecord& record) {
      const std::string line = runner::journalRecordLine(record);
      std::lock_guard<std::mutex> lock(journalMutex);
      journalOut << line;
      journalOut.flush();
    };
  }

  const auto started = std::chrono::steady_clock::now();
  std::vector<runner::RunRecord> fresh =
      runner::SweepRunner(options).runPoints(spec, remaining);
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  std::vector<runner::RunRecord> records = std::move(journaled);
  records.insert(records.end(), std::make_move_iterator(fresh.begin()),
                 std::make_move_iterator(fresh.end()));

  const std::size_t totalRuns = records.size();
  std::size_t failed = 0;
  std::size_t violations = 0;
  for (const runner::RunRecord& record : records) {
    if (record.failed()) {
      ++failed;
      std::cerr << "run " << record.point.runIndex
                << " failed: " << record.error << "\n";
    }
    for (const std::string& v : record.checkViolations) {
      ++violations;
      std::cerr << "run " << record.point.runIndex
                << " oracle violation: " << v << "\n";
    }
  }

  if (const std::string* path = args.flag("--shard-json")) {
    runner::ShardDoc shardDoc{spec.name, fingerprint, shard, spec.runCount(),
                              {}};
    // Whole-grid runs still need the records for aggregation below; a
    // sharded run hands them over (per-message samples and canonical
    // traces dominate memory on big campaigns).
    if (shard.isWholeGrid()) shardDoc.records = records;
    else shardDoc.records = std::move(records);
    writeFile(*path, runner::shardJson(shardDoc));
  }
  if (shard.isWholeGrid()) {
    runner::AggregateOptions aggregate;
    aggregate.threads = runner::effectiveThreads(options.threads, totalRuns);
    const runner::SweepResult result =
        runner::aggregateRecords(spec, std::move(records), aggregate);
    if (const std::string* path = args.flag("--json")) {
      writeFile(*path, runner::toJson(result));
    }
    if (const std::string* path = args.flag("--csv")) {
      writeFile(*path, runner::cellsCsv(result));
    }
    if (const std::string* path = args.flag("--runs-csv")) {
      writeFile(*path, runner::runsCsv(result));
    }
  }

  std::cout << "sweep " << spec.name << " [shard " << shard.toString()
            << "]: " << totalRuns << " runs (" << done.size()
            << " from journal), " << failed << " failed, " << violations
            << " oracle violations, " << wallSeconds << "s\n";
  if (failed > 0 && !args.has("--allow-errors")) {
    std::cerr << failed << " runs failed (pass --allow-errors to tolerate)\n";
    return 1;
  }
  // CheckMode sweeps double as model-checking campaigns: a trace that
  // fails an oracle must fail the CLI (and therefore CI), exactly like
  // a thrown run.
  if (violations > 0 && !args.has("--allow-violations")) {
    std::cerr << violations
              << " oracle violations (pass --allow-violations to tolerate)\n";
    return 1;
  }
  return 0;
}

// --- merge ------------------------------------------------------------------

/// The records of the shard files named after the spec
/// (positional[1..]), validated against it as one full grid.
std::vector<runner::RunRecord> readShards(const Args& args,
                                          const runner::SpecDoc& doc,
                                          const runner::SweepSpec& spec) {
  std::vector<runner::ShardDoc> shards;
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    const std::string& path = args.positional[i];
    try {
      shards.push_back(runner::parseShardJson(readFile(path)));
    } catch (const std::exception& e) {
      throw Error(path + ": " + e.what());
    }
  }
  return runner::mergeShardRecords(spec, runner::specFingerprint(doc),
                                   std::move(shards));
}

int cmdMerge(int argc, char** argv) {
  const Args args =
      Args::parse(argc, argv, 2, {"--json", "--csv"}, {"--allow-errors"});
  if (args.positional.size() < 2) return usage();

  const runner::SpecDoc doc = runner::loadSpecFile(args.positional[0]);
  const runner::SweepSpec spec = runner::buildSweep(doc);
  const std::size_t shardCount = args.positional.size() - 1;
  std::vector<runner::RunRecord> records = readShards(args, doc, spec);
  std::size_t failed = 0;
  for (const runner::RunRecord& record : records) {
    if (record.failed()) ++failed;
  }

  runner::AggregateOptions aggregate;
  const runner::SweepResult result =
      runner::aggregateRecords(spec, std::move(records), aggregate);
  const std::string json = runner::toJson(result);
  if (const std::string* path = args.flag("--json")) {
    writeFile(*path, json);
  } else {
    std::cout << json;
  }
  if (const std::string* path = args.flag("--csv")) {
    writeFile(*path, runner::cellsCsv(result));
  }
  std::cerr << "merged " << shardCount << " shards: " << result.cells.size()
            << " cells, " << failed << " failed runs\n";
  if (failed > 0 && !args.has("--allow-errors")) {
    std::cerr << failed << " runs failed (pass --allow-errors to tolerate)\n";
    return 1;
  }
  return 0;
}

// --- report -----------------------------------------------------------------

int cmdReport(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, 2, {}, {});
  if (args.positional.size() < 2) return usage();

  const runner::SpecDoc doc = runner::loadSpecFile(args.positional[0]);
  const runner::SweepSpec spec = runner::buildSweep(doc);
  const std::vector<runner::RunRecord> records = readShards(args, doc, spec);
  const runner::Report report = runner::buildReport(spec, records);
  std::cout << runner::reportMarkdown(spec, report);
  for (const std::string& v : report.violations) {
    std::cerr << "report: " << v << "\n";
  }
  std::cerr << "report " << spec.name << ": " << report.rows.size()
            << " cells, " << records.size() << " runs, "
            << report.boundedRuns << " under a theorem, "
            << report.violations.size()
            << " failed, unsolved or over their bound\n";
  return report.violations.empty() ? 0 : 1;
}

// --- compare ----------------------------------------------------------------

int cmdCompare(int argc, char** argv) {
  const Args args = Args::parse(
      argc, argv, 2, {"--baseline", "--rel-tol", "--abs-tol", "--ignore-key"},
      {});
  if (args.positional.size() != 1 || !args.has("--baseline")) return usage();

  runner::CompareOptions options;
  if (const std::string* tol = args.flag("--rel-tol")) {
    options.relTol = parseDoubleFlag("--rel-tol", *tol);
  }
  if (const std::string* tol = args.flag("--abs-tol")) {
    options.absTol = parseDoubleFlag("--abs-tol", *tol);
  }
  if (const std::string* keys = args.flag("--ignore-key")) {
    std::string remaining = *keys;
    while (true) {
      const std::size_t comma = remaining.find(',');
      const std::string key = remaining.substr(0, comma);
      AMMB_REQUIRE(!key.empty(), "--ignore-key: empty key");
      options.ignoreKeys.push_back(key);
      if (comma == std::string::npos) break;
      remaining = remaining.substr(comma + 1);
    }
  }
  // A NaN/inf tolerance would silently disable the gate (every
  // comparison against NaN slack is false); a negative one would fail
  // identical documents.
  AMMB_REQUIRE(std::isfinite(options.relTol) && options.relTol >= 0.0,
               "--rel-tol must be finite and non-negative");
  AMMB_REQUIRE(std::isfinite(options.absTol) && options.absTol >= 0.0,
               "--abs-tol must be finite and non-negative");
  const runner::json::Value baseline =
      runner::json::parse(readFile(*args.flag("--baseline")));
  const runner::json::Value candidate =
      runner::json::parse(readFile(args.positional[0]));

  const std::vector<runner::Difference> differences =
      runner::compareResults(baseline, candidate, options);
  if (differences.empty()) {
    std::cout << "compare: " << args.positional[0]
              << " matches the baseline\n";
    return 0;
  }
  std::cerr << "compare: " << differences.size()
            << " difference(s) vs baseline " << *args.flag("--baseline")
            << ":\n";
  for (const runner::Difference& d : differences) {
    std::cerr << "  " << d.path << ": " << d.detail << "\n";
  }
  return 1;
}

// --- print ------------------------------------------------------------------

int cmdPrint(int argc, char** argv) {
  const Args args = Args::parse(argc, argv, 2, {}, {});
  if (args.positional.size() != 1) return usage();
  const runner::SpecDoc doc = runner::loadSpecFile(args.positional[0]);
  runner::buildSweep(doc);  // full semantic validation
  std::cout << runner::writeSpec(doc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "run") return cmdRun(argc, argv);
    if (command == "merge") return cmdMerge(argc, argv);
    if (command == "report") return cmdReport(argc, argv);
    if (command == "compare") return cmdCompare(argc, argv);
    if (command == "print") return cmdPrint(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ammb_sweep " << command << ": " << e.what() << "\n";
    return 2;
  }
  std::cerr << "unknown command \"" << command << "\"\n";
  return usage();
}
