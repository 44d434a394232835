// Shard determinism and mergeable-record tests: the ISSUE-4 acceptance
// properties.  The partition must cover every RunPoint exactly once
// for any shard count; merging shard outputs (through their JSON
// serialization) must reproduce the unsharded aggregate document byte
// for byte at any worker-thread count; and resuming from a
// kill-truncated journal must converge to the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <sstream>

#include "runner/emit.h"
#include "runner/spec_io.h"

namespace ammb {
namespace {

using runner::RunPoint;
using runner::RunRecord;
using runner::Shard;
using runner::SweepRunner;
using runner::SweepSpec;

/// A small mixed grid driven through the spec-file schema (so these
/// tests double as end-to-end coverage of buildSweep): 108 runs over
/// 3 topologies x 3 schedulers x 2 ks x 3 workloads x 2 seeds.
const char* kGridSpec = R"({
  "name": "shard-grid",
  "protocol": "bmmb",
  "topologies": [
    {"kind": "line", "n": 10},
    {"kind": "line-r", "n": 12, "r": 2, "edge_prob": 0.5},
    {"kind": "grey-field", "n": 24, "avg_degree": 6.0, "c": 1.5,
     "p_grey": 0.4}],
  "schedulers": ["fast", "random", "adversarial"],
  "ks": [1, 4],
  "macs": [{"fack": 32, "fprog": 4}],
  "workloads": [
    {"kind": "all-at-node", "node": 0},
    {"kind": "round-robin"},
    {"kind": "poisson", "mean_gap": 8.0}],
  "seed_begin": 1,
  "seed_end": 3
})";

SweepSpec gridSpec() { return runner::buildSweep(runner::parseSpec(kGridSpec)); }

std::string gridFingerprint() {
  return runner::specFingerprint(runner::parseSpec(kGridSpec));
}

/// The unsharded reference document at a given thread count.
std::string referenceJson(const SweepSpec& spec, int threads) {
  SweepRunner::Options options;
  options.threads = threads;
  return runner::toJson(SweepRunner(options).run(spec));
}

TEST(Shard, ParseAndValidate) {
  const Shard shard = runner::parseShard("2/8");
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.count, 8u);
  EXPECT_EQ(shard.toString(), "2/8");
  EXPECT_TRUE(runner::parseShard("0/1").isWholeGrid());
  for (const char* bad : {"", "3", "/4", "3/", "a/4", "3/b", "4/4", "5/4",
                          "-1/4", "1/0"}) {
    EXPECT_THROW(runner::parseShard(bad), Error) << bad;
  }
}

TEST(Shard, PartitionCoversEveryRunExactlyOnce) {
  const SweepSpec spec = gridSpec();
  const std::vector<RunPoint> all = runner::enumerateRuns(spec);
  for (std::size_t count : {1u, 2u, 3u, 8u}) {
    std::multiset<std::size_t> covered;
    for (std::size_t index = 0; index < count; ++index) {
      for (const RunPoint& p :
           runner::shardPoints(all, Shard{index, count})) {
        covered.insert(p.runIndex);
      }
    }
    ASSERT_EQ(covered.size(), all.size()) << "shard count " << count;
    for (const RunPoint& p : all) {
      EXPECT_EQ(covered.count(p.runIndex), 1u)
          << "run " << p.runIndex << " at shard count " << count;
    }
  }
}

TEST(Shard, AssignmentInterleavesCells) {
  // Round-robin assignment: consecutive runs land on consecutive
  // shards, so no shard inherits a whole expensive cell.
  const SweepSpec spec = gridSpec();
  const std::vector<RunPoint> owned =
      runner::shardRuns(spec, Shard{1, 4});
  ASSERT_FALSE(owned.empty());
  for (const RunPoint& p : owned) EXPECT_EQ(p.runIndex % 4, 1u);
}

TEST(RecordIo, RoundTripsThroughJson) {
  SweepSpec spec = gridSpec();
  spec.check = runner::CheckMode::kMac;  // populate checked/traceHash
  const std::vector<RunPoint> all = runner::enumerateRuns(spec);
  const RunRecord record = runner::executeRun(spec, all[17]);
  ASSERT_TRUE(record.checked);

  const RunRecord back = runner::recordFromJson(
      runner::json::parse(runner::json::dump(runner::recordToJson(record))));
  EXPECT_EQ(back.point.runIndex, record.point.runIndex);
  EXPECT_EQ(back.point.seed, record.point.seed);
  EXPECT_EQ(back.error, record.error);
  EXPECT_EQ(back.checked, record.checked);
  EXPECT_EQ(back.traceHash, record.traceHash);
  EXPECT_EQ(back.checkViolations, record.checkViolations);
  EXPECT_EQ(back.result.solved, record.result.solved);
  EXPECT_EQ(back.result.solveTime, record.result.solveTime);
  EXPECT_EQ(back.result.endTime, record.result.endTime);
  EXPECT_EQ(back.result.status, record.result.status);
  EXPECT_EQ(back.result.stats.bcasts, record.result.stats.bcasts);
  EXPECT_EQ(back.result.stats.delivers, record.result.stats.delivers);
  EXPECT_EQ(back.result.messages.completed, record.result.messages.completed);
  EXPECT_EQ(back.result.messages.meanLatency,
            record.result.messages.meanLatency);
  ASSERT_EQ(back.result.messages.perMessage.size(),
            record.result.messages.perMessage.size());
  for (std::size_t i = 0; i < back.result.messages.perMessage.size(); ++i) {
    EXPECT_EQ(back.result.messages.perMessage[i].arriveAt,
              record.result.messages.perMessage[i].arriveAt);
    EXPECT_EQ(back.result.messages.perMessage[i].completeAt,
              record.result.messages.perMessage[i].completeAt);
  }
}

TEST(RecordIo, RemovedKernelKeyParsesAndIsDropped) {
  // A journal record line as written before the intra-run kernel axis
  // was removed, when every record carried a "kernel" key.  It must
  // still parse (resuming an old journal), and re-serialize to the
  // same bytes minus that key.
  const std::string kernelField = R"("kernel":"parallel:4",)";
  const std::string keyFree =
      R"({"run_index":0,"cell_index":0,"topo_idx":0,"sched_idx":0,)"
      R"("k_idx":0,"mac_idx":0,"wl_idx":0,"dyn_idx":0,"seed":1,)"
      R"("error":"","solved":true,"solve_time":15,"end_time":15,)"
      R"("status":"stopped","stats":{"bcasts":16,"rcvs":29,)"
      R"("forced_rcvs":0,"acks":14,"aborts":0,"delivers":16,)"
      R"("arrives":1},"messages":{"arrived":1,"completed":1,)"
      R"("p50_latency":15,"p95_latency":15,"max_latency":15,)"
      R"("mean_latency":15.0,"per_message":[[0,0,15]]},"checked":false,)"
      R"("trace_hash":"0000000000000000","check_violations":[],)"
      R"("canonical_trace":""})";
  std::string parentLine = keyFree;
  parentLine.insert(keyFree.find(R"("error")"), kernelField);
  ASSERT_NE(parentLine, keyFree);

  const RunRecord record =
      runner::recordFromJson(runner::json::parse(parentLine), "record");
  EXPECT_EQ(record.point.seed, 1u);
  EXPECT_EQ(record.result.solveTime, 15);
  EXPECT_EQ(runner::journalRecordLine(record), keyFree + "\n");
}

TEST(RecordIo, FullyPopulatedJournalLineIsPinned) {
  // Every optional key present: a reaction coordinate, all three
  // execution-axis labels, a realized block, retransmits, violations
  // and a canonical trace (string escapes included), plus an
  // uncompleted message.  The bytes are what journals and shard files
  // already on disk hold, so they must never move.
  RunRecord record;
  record.point = {5, 2, 1, 0, 1, 0, 0, 1, 1, 3};
  record.realization = "csma:2,4,32,5,0.25";
  record.backend = "net:19000,0.1,200,3,0,0";
  record.traceMode = "spool:64";
  record.realized = {3, 5, 7, 11, 13, 17, 7, 17, 40, 90};
  record.result.solved = true;
  record.result.solveTime = 120;
  record.result.endTime = 128;
  record.result.status = sim::RunStatus::kStopped;
  record.result.retransmits = 6;
  record.result.stats = {16, 29, 2, 14, 1, 16, 2};
  core::MessageMetrics& mm = record.result.messages;
  mm.arrived = 2;
  mm.completed = 1;
  mm.p50Latency = mm.p95Latency = mm.maxLatency = 100;
  mm.meanLatency = 100.5;
  mm.perMessage = {{0, 4, 104}, {1, 20, kTimeNever}};
  record.checked = true;
  record.traceHash = 0x0123456789abcdefULL;
  record.checkViolations = {"mac: late ack", "mmb: \"quoted\""};
  record.canonicalTrace = "header\nline\t1\n";

  const std::string line =
      R"({"run_index":5,"cell_index":2,"topo_idx":1,"sched_idx":0,)"
      R"("k_idx":1,"mac_idx":0,"wl_idx":0,"dyn_idx":1,"react_idx":1,)"
      R"("seed":3,"mac_realization":"csma:2,4,32,5,0.25",)"
      R"("backend":"net:19000,0.1,200,3,0,0","trace_mode":"spool:64",)"
      R"("realized":{"fprog_p50":3,"fprog_p95":5,"fprog_max":7,)"
      R"("fack_p50":11,"fack_p95":13,"fack_max":17,"fitted_fprog":7,)"
      R"("fitted_fack":17,"ack_samples":40,"prog_samples":90},)"
      R"("error":"","solved":true,"solve_time":120,"end_time":128,)"
      R"("status":"stopped","retransmits":6,"stats":{"bcasts":16,)"
      R"("rcvs":29,"forced_rcvs":2,"acks":14,"aborts":1,"delivers":16,)"
      R"("arrives":2},"messages":{"arrived":2,"completed":1,)"
      R"("p50_latency":100,"p95_latency":100,"max_latency":100,)"
      R"("mean_latency":100.5,"per_message":[[0,4,104],)"
      R"([1,20,9223372036854775807]]},"checked":true,)"
      R"("trace_hash":"0123456789abcdef","check_violations":)"
      R"(["mac: late ack","mmb: \"quoted\""],)"
      R"("canonical_trace":"header\nline\t1\n"})";
  EXPECT_EQ(runner::journalRecordLine(record), line + "\n");
  const RunRecord back =
      runner::recordFromJson(runner::json::parse(line), "record");
  EXPECT_EQ(runner::journalRecordLine(back), line + "\n");
}

std::string recordErrorOf(const std::string& line) {
  try {
    runner::recordFromJson(runner::json::parse(line), "record");
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected recordFromJson to throw for: " << line;
  return "";
}

/// A valid reaction-free journal record line with `from` replaced by `to`.
std::string corruptedLine(const std::string& from, const std::string& to) {
  std::string line =
      R"({"run_index":0,"cell_index":0,"topo_idx":0,"sched_idx":0,)"
      R"("k_idx":0,"mac_idx":0,"wl_idx":0,"dyn_idx":0,"seed":1,)"
      R"("error":"","solved":true,"solve_time":15,"end_time":15,)"
      R"("status":"stopped","stats":{"bcasts":16,"rcvs":29,)"
      R"("forced_rcvs":0,"acks":14,"aborts":0,"delivers":16,)"
      R"("arrives":1},"messages":{"arrived":1,"completed":1,)"
      R"("p50_latency":15,"p95_latency":15,"max_latency":15,)"
      R"("mean_latency":15.0,"per_message":[[0,0,15]]},"checked":false,)"
      R"("trace_hash":"0000000000000000","check_violations":[],)"
      R"("canonical_trace":""})";
  const std::size_t at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return line.replace(at, from.size(), to);
}

TEST(RecordIo, RejectsOutOfRangeValuesNamingTheField) {
  // Negative counts used to wrap to 2^64 - k, and any int64 was a time.
  const std::pair<std::pair<const char*, const char*>, const char*> cases[] = {
      {{R"("bcasts":16)", R"("bcasts":-3)"}, "record.stats.bcasts"},
      {{R"("arrived":1)", R"("arrived":-1)"}, "record.messages.arrived"},
      {{R"("seed":1)", R"("seed":-1)"}, "record.seed"},
      {{R"("run_index":0)", R"("run_index":-2)"}, "record.run_index"},
      {{R"("end_time":15)", R"("end_time":-9000000000000000000)"},
       "record.end_time"},
      {{R"("solve_time":15)", R"("solve_time":-1)"}, "record.solve_time"},
      {{R"("p95_latency":15)", R"("p95_latency":-1)"},
       "record.messages.p95_latency"},
      {{"[[0,0,15]]", "[[0,-9000000000000000000,9000000000000000000]]"},
       "record.messages.per_message[0]"},
      {{"[[0,0,15]]", "[[0,20,15]]"}, "record.messages.per_message[0]"},
      {{"[[0,0,15]]", "[[-1,0,15]]"}, "record.messages.per_message[0]"},
  };
  for (const auto& [edit, path] : cases) {
    const std::string error =
        recordErrorOf(corruptedLine(edit.first, edit.second));
    EXPECT_NE(error.find(path), std::string::npos) << error;
  }
  // A message that never completed keeps kTimeNever, and an unsolved
  // run's solve time is kTimeNever too: both stay accepted.
  EXPECT_NO_THROW(runner::recordFromJson(runner::json::parse(corruptedLine(
      R"("solve_time":15)", R"("solve_time":9223372036854775807)"))));
  EXPECT_NO_THROW(runner::recordFromJson(runner::json::parse(
      corruptedLine("[[0,0,15]]", "[[0,9223372036854775807,"
                                  "9223372036854775807]]"))));
}

TEST(Journal, RejectsANegativeCountNamingTheLine) {
  const std::string journal =
      runner::journalHeaderLine({"x", "0000000000000000", Shard{0, 1}, 1}) +
      corruptedLine(R"("acks":14)", R"("acks":-14)") + "\n";
  try {
    runner::parseJournal(journal);
    FAIL() << "expected parseJournal to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("journal line 2.stats.acks"),
              std::string::npos)
        << e.what();
  }
}

/// Executes `shard` of the grid and serializes it the way
/// `ammb_sweep run --shard-json` does, at the given thread count.
runner::ShardDoc runShard(const SweepSpec& spec, const Shard& shard,
                          int threads) {
  SweepRunner::Options options;
  options.threads = threads;
  runner::ShardDoc doc;
  doc.sweep = spec.name;
  doc.specFingerprint = gridFingerprint();
  doc.shard = shard;
  doc.runCount = spec.runCount();
  doc.records =
      SweepRunner(options).runPoints(spec, runner::shardRuns(spec, shard));
  return doc;
}

TEST(Merge, ShardsReproduceUnshardedJsonByteForByte) {
  const SweepSpec spec = gridSpec();
  const std::string reference = referenceJson(spec, 1);
  // The aggregate document must not depend on the worker-pool size...
  EXPECT_EQ(referenceJson(spec, 4), reference);
  EXPECT_EQ(referenceJson(spec, 8), reference);

  // ...nor on how the grid was sharded, nor on the shard outputs'
  // serialization round trip, nor on merge order.
  for (std::size_t count : {2u, 4u}) {
    std::vector<runner::ShardDoc> shards;
    for (std::size_t index = 0; index < count; ++index) {
      const runner::ShardDoc doc =
          runShard(spec, Shard{index, count}, 1 + static_cast<int>(index));
      shards.push_back(runner::parseShardJson(runner::shardJson(doc)));
    }
    std::rotate(shards.begin(), shards.begin() + 1, shards.end());
    const std::vector<RunRecord> merged =
        runner::mergeShardRecords(spec, gridFingerprint(), shards);
    EXPECT_EQ(runner::toJson(runner::aggregateRecords(spec, merged)),
              reference)
        << "shard count " << count;
  }
}

TEST(Merge, RejectsMismatchedOrIncompleteShards) {
  const SweepSpec spec = gridSpec();
  std::vector<runner::ShardDoc> shards = {runShard(spec, Shard{0, 2}, 2),
                                          runShard(spec, Shard{1, 2}, 2)};

  // Missing shard.
  EXPECT_THROW(runner::mergeShardRecords(spec, gridFingerprint(), {shards[0]}),
               Error);
  // Duplicate shard.
  EXPECT_THROW(runner::mergeShardRecords(spec, gridFingerprint(),
                                         {shards[0], shards[0]}),
               Error);
  // Foreign spec fingerprint.
  std::vector<runner::ShardDoc> foreign = shards;
  foreign[0].specFingerprint = "0000000000000000";
  EXPECT_THROW(runner::mergeShardRecords(spec, gridFingerprint(), foreign),
               Error);
  // A record smuggled into the wrong shard.
  std::vector<runner::ShardDoc> stolen = shards;
  stolen[0].records.push_back(stolen[1].records.back());
  EXPECT_THROW(runner::mergeShardRecords(spec, gridFingerprint(), stolen),
               Error);
  // A dropped record.
  std::vector<runner::ShardDoc> incomplete = shards;
  incomplete[1].records.pop_back();
  EXPECT_THROW(runner::mergeShardRecords(spec, gridFingerprint(), incomplete),
               Error);
}

TEST(Merge, RejectsACorruptGridCoordinate) {
  // A record's self-reported cell index must never be trusted: a
  // corrupt shard file would otherwise silently pollute another cell's
  // aggregates.
  const SweepSpec spec = gridSpec();
  std::vector<runner::ShardDoc> shards = {runShard(spec, Shard{0, 2}, 2),
                                          runShard(spec, Shard{1, 2}, 2)};
  shards[0].records[0].point.cellIndex ^= 1;
  const std::vector<RunRecord> merged =
      runner::mergeShardRecords(spec, gridFingerprint(), shards);
  EXPECT_THROW(runner::aggregateRecords(spec, merged), Error);

  std::vector<runner::ShardDoc> wrongSeed = {runShard(spec, Shard{0, 2}, 2),
                                             runShard(spec, Shard{1, 2}, 2)};
  wrongSeed[1].records[0].point.seed += 7;
  EXPECT_THROW(
      runner::aggregateRecords(
          spec, runner::mergeShardRecords(spec, gridFingerprint(), wrongSeed)),
      Error);

  // Duplicated records must be rejected, not double-counted.
  std::vector<RunRecord> duplicated =
      SweepRunner().runPoints(spec, runner::shardRuns(spec, Shard{0, 8}));
  duplicated.push_back(duplicated.front());
  EXPECT_THROW(runner::aggregateRecords(spec, duplicated), Error);
}

TEST(Merge, RejectsTimesWhoseCellSumOverflows) {
  // Each time is in range on its own, but two of them in one cell used
  // to overflow the cell's int64 sum; merge must fail cleanly instead.
  const SweepSpec spec = gridSpec();
  for (const std::string key : {"end_time", "solve_time"}) {
    SCOPED_TRACE(key);
    std::vector<runner::ShardDoc> shards;
    for (std::size_t index : {0u, 1u}) {
      runner::ShardDoc doc = runShard(spec, Shard{index, 2}, 2);
      // Runs 0 and 1 (the first record of each shard) share cell 0.
      RunRecord& record = doc.records.front();
      record.result.solved = true;
      (key == "end_time" ? record.result.endTime : record.result.solveTime) =
          9'000'000'000'000'000'000;
      shards.push_back(runner::parseShardJson(runner::shardJson(doc)));
    }
    const std::vector<RunRecord> merged =
        runner::mergeShardRecords(spec, gridFingerprint(), shards);
    try {
      runner::aggregateRecords(spec, merged);
      FAIL() << "expected the aggregation to throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(Journal, HeaderAndRecordsRoundTrip) {
  const SweepSpec spec = gridSpec();
  SweepRunner::Options options;
  options.threads = 4;
  std::ostringstream journal;
  std::mutex journalMutex;
  journal << runner::journalHeaderLine(
      {spec.name, gridFingerprint(), Shard{0, 1}, spec.runCount()});
  // onRecord fires concurrently; serialize off-lock, append under it.
  options.onRecord = [&journal, &journalMutex](const RunRecord& record) {
    const std::string line = runner::journalRecordLine(record);
    std::lock_guard<std::mutex> lock(journalMutex);
    journal << line;
  };
  SweepRunner(options).runPoints(spec, runner::enumerateRuns(spec));

  const runner::JournalDoc doc = runner::parseJournal(journal.str());
  EXPECT_EQ(doc.header.sweep, spec.name);
  EXPECT_EQ(doc.header.specFingerprint, gridFingerprint());
  EXPECT_EQ(doc.header.runCount, spec.runCount());
  EXPECT_FALSE(doc.truncatedTail);
  ASSERT_EQ(doc.records.size(), spec.runCount());
  EXPECT_EQ(runner::toJson(runner::aggregateRecords(spec, doc.records)),
            referenceJson(spec, 1));
}

TEST(Journal, ResumeAfterTruncationReproducesTheSameBytes) {
  const SweepSpec spec = gridSpec();
  const std::string reference = referenceJson(spec, 1);

  // Journal the full sweep, then kill it mid-append: keep the header
  // plus the first 40 records and a damaged 41st line.
  std::ostringstream journal;
  std::mutex journalMutex;
  journal << runner::journalHeaderLine(
      {spec.name, gridFingerprint(), Shard{0, 1}, spec.runCount()});
  SweepRunner::Options options;
  options.onRecord = [&journal, &journalMutex](const RunRecord& record) {
    const std::string line = runner::journalRecordLine(record);
    std::lock_guard<std::mutex> lock(journalMutex);
    journal << line;
  };
  SweepRunner(options).runPoints(spec, runner::enumerateRuns(spec));

  const std::string full = journal.str();
  std::size_t cut = 0;
  for (int newlines = 0; newlines < 41; ++cut) {
    if (full[cut] == '\n') ++newlines;
  }
  const std::string truncated = full.substr(0, cut + 57);  // partial line 42

  const runner::JournalDoc doc = runner::parseJournal(truncated);
  EXPECT_TRUE(doc.truncatedTail);
  ASSERT_EQ(doc.records.size(), 40u);

  // Resume: re-run exactly the runs the journal does not cover, then
  // aggregate the union — the CLI's --resume path in library form.
  std::set<std::size_t> done;
  for (const RunRecord& record : doc.records) {
    done.insert(record.point.runIndex);
  }
  std::vector<RunPoint> remaining;
  for (const RunPoint& p : runner::enumerateRuns(spec)) {
    if (done.count(p.runIndex) == 0) remaining.push_back(p);
  }
  EXPECT_EQ(remaining.size(), spec.runCount() - 40u);

  SweepRunner::Options resumeOptions;
  resumeOptions.threads = 4;
  std::vector<RunRecord> records = doc.records;
  for (RunRecord& record :
       SweepRunner(resumeOptions).runPoints(spec, remaining)) {
    records.push_back(std::move(record));
  }
  EXPECT_EQ(runner::toJson(runner::aggregateRecords(spec, records)),
            reference);
}

TEST(Journal, RejectsCorruptionOutsideTheTail) {
  const SweepSpec spec = gridSpec();
  std::ostringstream journal;
  journal << runner::journalHeaderLine(
      {spec.name, gridFingerprint(), Shard{0, 1}, spec.runCount()});
  journal << "{\"run_index\": definitely not json\n";
  journal << runner::journalHeaderLine(
      {spec.name, gridFingerprint(), Shard{0, 1}, spec.runCount()});
  EXPECT_THROW(runner::parseJournal(journal.str()), Error);
  // A truncated *header* is unrecoverable, not a tolerable tail.
  EXPECT_THROW(runner::parseJournal("{\"journal\": \"x"), Error);
}

}  // namespace
}  // namespace ammb
