// Sweep result emitters and their inverses.
//
// One format for everything downstream: benches print these tables,
// regression tooling diffs the CSV, and the JSON document carries the
// full per-cell aggregate for dashboards.  Emitters write only
// deterministic fields (simulated quantities and grid labels) into data
// rows, so two equal sweeps produce byte-identical output regardless of
// thread count or wall-clock.
//
// The sharded sweep service adds *mergeable* per-run representations:
// a RunRecord serializes losslessly to JSON (including the per-message
// latency samples that pooled percentiles are computed from, and the
// checked_runs/check_violations bookkeeping), so a shard output file or
// a run journal can be parsed back and re-aggregated through
// aggregateRecords() bit-identically to a never-serialized run.
#pragma once

#include <iosfwd>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "runner/json.h"
#include "runner/shard.h"
#include "runner/sweep_runner.h"

namespace ammb::runner {

/// Per-cell aggregates as CSV (header + one row per cell).
void emitCellsCsv(const SweepResult& result, std::ostream& out);

/// Per-run outcomes as CSV (requires keepRunRecords).
void emitRunsCsv(const SweepResult& result, std::ostream& out);

/// The whole sweep (metadata + cells) as a JSON document.
void emitJson(const SweepResult& result, std::ostream& out);

/// Convenience: emitCellsCsv into a string (test/regression diffing).
std::string cellsCsv(const SweepResult& result);

/// Convenience: emitRunsCsv into a string.
std::string runsCsv(const SweepResult& result);

/// Convenience: emitJson into a string.
std::string toJson(const SweepResult& result);

/// Inverse of sim::toString(RunStatus) for the record codec.
sim::RunStatus runStatusFromString(const std::string& name);

// --- mergeable per-run records ----------------------------------------------

/// One numeric field of a run-record sub-object: its key (in record
/// JSON, and for stats and realized bounds also in cell JSON and CSV
/// headers) and the member it names.  Counters and ticks read back as
/// non-negative integers (kTimeNever included); reals as any number.
template <class S>
struct RecordField {
  const char* key;
  std::variant<std::uint64_t S::*, Time S::*, double S::*> member;
  bool elideZero = false;  ///< written only when non-zero; reads as 0
};

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "RunPoint coordinates are declared as std::uint64_t fields");

/// Grid coordinates, which aggregation checks against the grid.
/// react_idx is elided at 0, so record files written before the
/// reaction axis existed keep their exact bytes.
inline const RecordField<RunPoint> kPointFields[] = {
    {"run_index", &RunPoint::runIndex}, {"cell_index", &RunPoint::cellIndex},
    {"topo_idx", &RunPoint::topoIdx},   {"sched_idx", &RunPoint::schedIdx},
    {"k_idx", &RunPoint::kIdx},         {"mac_idx", &RunPoint::macIdx},
    {"wl_idx", &RunPoint::wlIdx},       {"dyn_idx", &RunPoint::dynIdx},
    {"react_idx", &RunPoint::reactIdx, true}, {"seed", &RunPoint::seed}};

/// Engine counters, summed per cell.
inline const RecordField<mac::EngineStats> kStatsFields[] = {
    {"bcasts", &mac::EngineStats::bcasts},
    {"rcvs", &mac::EngineStats::rcvs},
    {"forced_rcvs", &mac::EngineStats::forcedRcvs},
    {"acks", &mac::EngineStats::acks},
    {"aborts", &mac::EngineStats::aborts},
    {"delivers", &mac::EngineStats::delivers},
    {"arrives", &mac::EngineStats::arrives}};

/// Realized bounds: per cell, tick fields fold by max, counters by sum.
inline const RecordField<phys::RealizedBounds> kRealizedFields[] = {
    {"fprog_p50", &phys::RealizedBounds::fprogP50},
    {"fprog_p95", &phys::RealizedBounds::fprogP95},
    {"fprog_max", &phys::RealizedBounds::fprogMax},
    {"fack_p50", &phys::RealizedBounds::fackP50},
    {"fack_p95", &phys::RealizedBounds::fackP95},
    {"fack_max", &phys::RealizedBounds::fackMax},
    {"fitted_fprog", &phys::RealizedBounds::fittedFprog},
    {"fitted_fack", &phys::RealizedBounds::fittedFack},
    {"ack_samples", &phys::RealizedBounds::ackSamples},
    {"prog_samples", &phys::RealizedBounds::progSamples}};

/// Lossless JSON form of one RunRecord (grid coordinate, outcome,
/// engine counters, per-message latency samples, checking results).
json::Value recordToJson(const RunRecord& record);

/// Inverse of recordToJson; throws ammb::Error on schema violations,
/// naming `context` in the message.
RunRecord recordFromJson(const json::Value& value,
                         const std::string& context = "record");

/// One shard's complete output: enough metadata to refuse a merge of
/// mismatched inputs, plus every record the shard executed.
struct ShardDoc {
  std::string sweep;            ///< SweepSpec::name
  std::string specFingerprint;  ///< specFingerprint() of the spec file
  Shard shard;
  std::size_t runCount = 0;  ///< full-grid run count (all shards)
  std::vector<RunRecord> records;
};

/// Shard output document (records one-per-line for diffable files).
void emitShardJson(const ShardDoc& doc, std::ostream& out);
std::string shardJson(const ShardDoc& doc);
ShardDoc parseShardJson(const std::string& text);

/// Validates shard outputs against the spec (matching fingerprints and
/// shard counts, distinct shard indices, every record owned by its
/// shard, full grid covered exactly once) and returns the union of
/// their records.  aggregateRecords() over the result is bit-identical
/// to an unsharded run of the same spec.  Takes the docs by value so
/// records (per-message samples, canonical traces) move, not copy.
std::vector<RunRecord> mergeShardRecords(const SweepSpec& spec,
                                         const std::string& fingerprint,
                                         std::vector<ShardDoc> shards);

// --- run journal (JSONL) ----------------------------------------------------

/// First line of a journal file: identifies the spec (by fingerprint)
/// and the shard the journal belongs to.
struct JournalHeader {
  std::string sweep;
  std::string specFingerprint;
  Shard shard;
  std::size_t runCount = 0;
};

/// Parsed journal: header plus every intact record line.  A journal
/// killed mid-append ends in a partial line; `truncatedTail` reports
/// (and parseJournal tolerates) exactly one such trailing fragment.
struct JournalDoc {
  JournalHeader header;
  std::vector<RunRecord> records;
  bool truncatedTail = false;
};

/// The header line (newline-terminated).
std::string journalHeaderLine(const JournalHeader& header);

/// One record as a single JSONL line (newline-terminated).  Concurrent
/// journal writers serialize with this off-lock and append under one.
std::string journalRecordLine(const RunRecord& record);

/// Appends one record as a single JSONL line and flushes, so a killed
/// process loses at most the line being written.
void appendJournalRecord(std::ostream& out, const RunRecord& record);

/// Parses a journal's full text.  Throws on a malformed header or a
/// malformed line in the middle; a single truncated final line is
/// dropped (that is the crash the journal exists to survive).
JournalDoc parseJournal(const std::string& text);

}  // namespace ammb::runner
