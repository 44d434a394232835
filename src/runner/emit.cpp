#include "runner/emit.h"

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "runner/axis_codec.h"

namespace ammb::runner {

namespace {

/// Fixed-precision decimal for CSV/JSON doubles; identical input bits
/// give identical text, keeping emitted files diffable.
std::string fixed(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

std::string csvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

/// Per-cell outcome columns, in the order both the cells CSV and the
/// cells JSON emit them.
using Cell = CellAggregate;
const RecordField<Cell> kCellFields[] = {
    {"runs", &Cell::runs},           {"solved", &Cell::solved},
    {"errors", &Cell::errors},       {"min_solve", &Cell::minSolve},
    {"median_solve", &Cell::medianSolve},
    {"mean_solve", &Cell::meanSolve}, {"p95_solve", &Cell::p95Solve},
    {"max_solve", &Cell::maxSolve},  {"mean_end_time", &Cell::meanEndTime},
    {"messages", &Cell::messages},   {"mean_latency", &Cell::meanLatency},
    {"p50_latency", &Cell::p50Latency}, {"p95_latency", &Cell::p95Latency},
    {"max_latency", &Cell::maxLatency}};

/// Streams `fields` of `s` as comma-prefixed CSV cells or, given the
/// text that leads the first member, as JSON members `"key": value`
/// (later members are led by ", ").  Doubles print fixed-point.
template <class S, std::size_t N>
void streamFields(std::ostream& out, const S& s,
                  const RecordField<S> (&fields)[N],
                  const char* firstLead = nullptr) {
  for (std::size_t i = 0; i < N; ++i) {
    if (firstLead == nullptr) {
      out << ',';
    } else {
      out << (i == 0 ? firstLead : ", ") << '"' << fields[i].key << "\": ";
    }
    std::visit(
        [&](auto m) {
          if constexpr (std::is_same_v<decltype(m), double S::*>) {
            out << fixed(s.*m);
          } else {
            out << s.*m;
          }
        },
        fields[i].member);
  }
}

/// The header cells naming `fields`, comma-prefixed.
template <class S, std::size_t N>
void streamKeys(std::ostream& out, const RecordField<S> (&fields)[N]) {
  for (const RecordField<S>& f : fields) out << ',' << f.key;
}

}  // namespace

sim::RunStatus runStatusFromString(const std::string& name) {
  for (sim::RunStatus status :
       {sim::RunStatus::kDrained, sim::RunStatus::kStopped,
        sim::RunStatus::kTimeLimit, sim::RunStatus::kEventLimit}) {
    if (name == sim::toString(status)) return status;
  }
  throw Error("unknown run status \"" + name + "\"");
}

namespace {

/// Realized-bound CSV cells: nine comma-prefixed fields, empty when the
/// bounds were never measured so abstract rows don't print zeros that
/// look like data.
void emitRealizedCsv(std::uint64_t measuredRuns,
                     const phys::RealizedBounds& r, std::ostream& out) {
  if (measuredRuns == 0 && !r.measured()) {
    out << ",,,,,,,,,";
    return;
  }
  out << ',' << measuredRuns << ',' << r.fprogP50 << ',' << r.fprogP95 << ','
      << r.fprogMax << ',' << r.fackP50 << ',' << r.fackP95 << ','
      << r.fackMax << ',' << r.fittedFprog << ',' << r.fittedFack;
}

}  // namespace

void emitCellsCsv(const SweepResult& result, std::ostream& out) {
  out << "sweep,protocol,workload,topology,scheduler,k,mac,dynamics,"
         "reaction,seed_begin,seed_end";
  streamKeys(out, kCellFields);
  streamKeys(out, kStatsFields);
  out << ",retransmits,checked_runs,check_violations,realization,"
         "measured_runs,realized_fprog_p50,realized_fprog_p95,"
         "realized_fprog_max,realized_fack_p50,realized_fack_p95,"
         "realized_fack_max,fitted_fprog,fitted_fack,backend\n";
  for (const CellAggregate& c : result.cells) {
    out << csvEscape(result.name) << ',' << core::toString(result.protocol)
        << ',' << csvEscape(c.workload) << ',' << csvEscape(c.topology)
        << ',' << csvEscape(c.scheduler) << ',' << c.k << ','
        << csvEscape(c.mac) << ',' << csvEscape(c.dynamics) << ','
        << csvEscape(c.reaction) << ',' << result.seedBegin << ','
        << result.seedEnd;
    streamFields(out, c, kCellFields);
    streamFields(out, c.stats, kStatsFields);
    out << ',' << c.retransmits << ',' << c.checkedRuns << ','
        << c.checkViolations << ',' << csvEscape(result.realization);
    emitRealizedCsv(c.measuredRuns, c.realized, out);
    out << ',' << csvEscape(result.backend) << '\n';
  }
}

void emitRunsCsv(const SweepResult& result, std::ostream& out) {
  out << "run_index,cell_index,topology,scheduler,k,mac,workload,dynamics,"
         "reaction,seed,solved,"
         "solve_time,end_time,status,messages,p50_latency,p95_latency,"
         "max_latency,retransmits,error,checked,check_violations,trace_hash,"
         "realization,measured_samples,realized_fprog_p50,realized_fprog_p95,"
         "realized_fprog_max,realized_fack_p50,realized_fack_p95,"
         "realized_fack_max,fitted_fprog,fitted_fack,backend\n";
  for (const RunRecord& r : result.runs) {
    const CellAggregate& c = result.cell(r.point.cellIndex);
    out << r.point.runIndex << ',' << r.point.cellIndex << ','
        << csvEscape(c.topology) << ',' << csvEscape(c.scheduler) << ','
        << c.k << ',' << csvEscape(c.mac) << ',' << csvEscape(c.workload)
        << ',' << csvEscape(c.dynamics) << ',' << csvEscape(c.reaction)
        << ',' << r.point.seed << ','
        << (r.result.solved ? 1 : 0) << ',';
    // kTimeNever would print as a 19-digit integer; unsolved runs emit
    // an empty solve-time field instead.
    if (r.result.solved) out << r.result.solveTime;
    out << ',' << r.result.endTime << ',' << sim::toString(r.result.status)
        << ',' << r.result.messages.completed << ','
        << r.result.messages.p50Latency << ','
        << r.result.messages.p95Latency << ','
        << r.result.messages.maxLatency << ','
        << r.result.retransmits << ',' << csvEscape(r.error) << ','
        << (r.checked ? 1 : 0) << ',' << r.checkViolations.size() << ',';
    // The hash only means something for checked runs; keep unchecked
    // rows' columns empty so diffs don't churn on mode changes.
    if (r.checked) out << r.traceHash;
    out << ',' << csvEscape(r.realization);
    emitRealizedCsv(r.realized.measured() ? r.realized.ackSamples : 0,
                    r.realized, out);
    out << ',' << csvEscape(r.backend) << '\n';
  }
}

void emitJson(const SweepResult& result, std::ostream& out) {
  out << "{\n"
      << "  \"sweep\": \"" << json::escape(result.name) << "\",\n"
      << "  \"protocol\": \"" << core::toString(result.protocol) << "\",\n";
  // Emitted only for realized sweeps so every pre-existing abstract
  // baseline stays byte-identical.
  if (result.realization != "abstract") {
    out << "  \"realization\": \"" << json::escape(result.realization)
        << "\",\n";
  }
  // Likewise only for net-backend sweeps.
  if (result.backend != "sim") {
    out << "  \"backend\": \"" << json::escape(result.backend) << "\",\n";
  }
  out << "  \"seed_begin\": " << result.seedBegin << ",\n"
      << "  \"seed_end\": " << result.seedEnd << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellAggregate& c = result.cells[i];
    out << "    {\"topology\": \"" << json::escape(c.topology)
        << "\", \"scheduler\": \"" << json::escape(c.scheduler)
        << "\", \"k\": " << c.k << ", \"mac\": \"" << json::escape(c.mac)
        << "\", \"workload\": \"" << json::escape(c.workload)
        << "\", \"dynamics\": \"" << json::escape(c.dynamics) << "\"";
    // The reaction axis (and its work counter) is emitted only for
    // reactive cells so every pre-existing reaction-free baseline
    // stays byte-identical.
    if (!c.reaction.empty() && c.reaction != "none") {
      out << ", \"reaction\": \"" << json::escape(c.reaction)
          << "\", \"retransmits\": " << c.retransmits;
    }
    streamFields(out, c, kCellFields, ", ");
    out << ", \"checked_runs\": " << c.checkedRuns
        << ", \"check_violations\": " << c.checkViolations;
    if (c.measuredRuns > 0) {
      out << ", \"measured_runs\": " << c.measuredRuns << ", \"realized\": ";
      streamFields(out, c.realized, kRealizedFields, "{");
      out << '}';
    }
    out << ", \"stats\": ";
    streamFields(out, c.stats, kStatsFields, "{");
    out << "}}" << (i + 1 < result.cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

std::string cellsCsv(const SweepResult& result) {
  std::ostringstream out;
  emitCellsCsv(result, out);
  return out.str();
}

std::string runsCsv(const SweepResult& result) {
  std::ostringstream out;
  emitRunsCsv(result, out);
  return out.str();
}

std::string toJson(const SweepResult& result) {
  std::ostringstream out;
  emitJson(result, out);
  return out.str();
}

// --- mergeable per-run records ----------------------------------------------

namespace {

using json::Array;
using json::Object;
using json::Value;

std::string hexU64(std::uint64_t v) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

std::uint64_t parseHexU64(const std::string& text,
                          const std::string& context) {
  AMMB_REQUIRE(!text.empty() && text.size() <= 16,
               context + " must be 1-16 hex digits");
  std::uint64_t v = 0;
  for (char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else throw Error(context + " must be hex (got \"" + text + "\")");
  }
  return v;
}

const Value& member(const Value& object, const std::string& key,
                    const std::string& context) {
  if (!object.isObject()) {
    throw Error(context + " must be a JSON object");
  }
  const Value* v = object.find(key);
  if (v == nullptr) {
    throw Error(context + " is missing field \"" + key + "\"");
  }
  return *v;
}

/// Every count, index and tick a record carries is non-negative
/// (kTimeNever included), so aggregation never sees a wrapped counter
/// or a negative latency.
std::int64_t nonNegative(const Value& value, const std::string& path) {
  const std::int64_t v = value.asInt(path);
  AMMB_REQUIRE(v >= 0, path + " must be non-negative");
  return v;
}

std::size_t memberSize(const Value& object, const std::string& key,
                       const std::string& context) {
  return static_cast<std::size_t>(
      nonNegative(member(object, key, context), context + "." + key));
}

/// Per-run latency summary (the per_message samples ride beside it).
const RecordField<core::MessageMetrics> kMessageFields[] = {
    {"arrived", &core::MessageMetrics::arrived},
    {"completed", &core::MessageMetrics::completed},
    {"p50_latency", &core::MessageMetrics::p50Latency},
    {"p95_latency", &core::MessageMetrics::p95Latency},
    {"max_latency", &core::MessageMetrics::maxLatency},
    {"mean_latency", &core::MessageMetrics::meanLatency}};

template <class S, std::size_t N>
void writeFields(const S& s, const RecordField<S> (&fields)[N], Object& out) {
  for (const RecordField<S>& f : fields) {
    std::visit(
        [&](auto m) {
          if (f.elideZero && s.*m == 0) return;
          if constexpr (std::is_same_v<decltype(m), double S::*>) {
            out.emplace_back(f.key, s.*m);
          } else {
            out.emplace_back(f.key, static_cast<std::int64_t>(s.*m));
          }
        },
        f.member);
  }
}

template <class S, std::size_t N>
void readFields(S& s, const RecordField<S> (&fields)[N], const Value& object,
                const std::string& context) {
  for (const RecordField<S>& f : fields) {
    if (f.elideZero && object.isObject() && object.find(f.key) == nullptr) {
      continue;
    }
    const Value& v = member(object, f.key, context);
    const std::string path = context + "." + f.key;
    std::visit(
        [&](auto m) {
          using T = std::remove_reference_t<decltype(s.*m)>;
          if constexpr (std::is_same_v<T, double>) {
            s.*m = v.asDouble(path);
          } else {
            s.*m = static_cast<T>(nonNegative(v, path));
          }
        },
        f.member);
  }
}

}  // namespace

json::Value recordToJson(const RunRecord& record) {
  Object o;
  writeFields(record.point, kPointFields, o);
  // Execution-axis provenance (mac_realization, backend, trace_mode)
  // via the shared codec table, elided at the defaults so record files
  // written before each field existed — and every abstract/sim/mem
  // shard or journal — keep their exact bytes.
  emitRecordAxes(o, record);
  if (record.realized.measured()) {
    Object realized;
    writeFields(record.realized, kRealizedFields, realized);
    o.emplace_back("realized", std::move(realized));
  }
  o.emplace_back("error", record.error);
  o.emplace_back("solved", record.result.solved);
  o.emplace_back("solve_time", record.result.solveTime);
  o.emplace_back("end_time", record.result.endTime);
  o.emplace_back("status", sim::toString(record.result.status));
  // Churn-reaction work counter, elided when zero (the universal case
  // for reaction-free runs) for the same byte-compatibility reason as
  // react_idx.
  if (record.result.retransmits != 0) {
    o.emplace_back("retransmits",
                   static_cast<std::int64_t>(record.result.retransmits));
  }
  Object stats;
  writeFields(record.result.stats, kStatsFields, stats);
  o.emplace_back("stats", std::move(stats));

  const core::MessageMetrics& mm = record.result.messages;
  Object messages;
  writeFields(mm, kMessageFields, messages);
  Array perMessage;
  for (const core::MessageMetric& pm : mm.perMessage) {
    Array entry;
    entry.emplace_back(static_cast<std::int64_t>(pm.msg));
    entry.emplace_back(pm.arriveAt);
    entry.emplace_back(pm.completeAt);
    perMessage.emplace_back(std::move(entry));
  }
  messages.emplace_back("per_message", std::move(perMessage));
  o.emplace_back("messages", std::move(messages));

  o.emplace_back("checked", record.checked);
  o.emplace_back("trace_hash", hexU64(record.traceHash));
  Array violations;
  for (const std::string& v : record.checkViolations) {
    violations.emplace_back(v);
  }
  o.emplace_back("check_violations", std::move(violations));
  o.emplace_back("canonical_trace", record.canonicalTrace);
  return Value(std::move(o));
}

RunRecord recordFromJson(const json::Value& value,
                         const std::string& context) {
  RunRecord record;
  readFields(record.point, kPointFields, value, context);
  // Every execution-axis key is optional for compatibility with record
  // files written before that axis existed; absent keys keep the
  // RunRecord defaults ("mem" / "abstract" / "sim").  Unknown keys are
  // ignored, so records carrying the removed "kernel" key still parse.
  parseRecordAxes(record, value, context);
  if (const Value* realized = value.find("realized"); realized != nullptr) {
    readFields(record.realized, kRealizedFields, *realized,
               context + ".realized");
  }
  record.error = member(value, "error", context).asString(context + ".error");
  record.result.solved =
      member(value, "solved", context).asBool(context + ".solved");
  record.result.solveTime = nonNegative(member(value, "solve_time", context),
                                        context + ".solve_time");
  record.result.endTime = nonNegative(member(value, "end_time", context),
                                      context + ".end_time");
  record.result.status = runStatusFromString(
      member(value, "status", context).asString(context + ".status"));
  if (const Value* retransmits = value.find("retransmits");
      retransmits != nullptr) {
    record.result.retransmits = static_cast<std::uint64_t>(
        nonNegative(*retransmits, context + ".retransmits"));
  }
  readFields(record.result.stats, kStatsFields,
             member(value, "stats", context), context + ".stats");

  const Value& messages = member(value, "messages", context);
  const std::string mmContext = context + ".messages";
  core::MessageMetrics& mm = record.result.messages;
  readFields(mm, kMessageFields, messages, mmContext);
  const Array& entries = member(messages, "per_message", mmContext)
                             .asArray(mmContext + ".per_message");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string path =
        mmContext + ".per_message[" + std::to_string(i) + "]";
    const Array& triple = entries[i].asArray(path);
    AMMB_REQUIRE(triple.size() == 3,
                 path + " must be a [msg, arrive_at, complete_at] triple");
    const std::int64_t msg = nonNegative(triple[0], path);
    AMMB_REQUIRE(msg <= INT32_MAX, path + " message id out of range");
    core::MessageMetric pm;
    pm.msg = static_cast<MsgId>(msg);
    pm.arriveAt = nonNegative(triple[1], path);
    pm.completeAt = nonNegative(triple[2], path);
    AMMB_REQUIRE(!pm.completed() || pm.arriveAt <= pm.completeAt,
                 path + " completes before it arrives");
    mm.perMessage.push_back(pm);
  }

  record.checked =
      member(value, "checked", context).asBool(context + ".checked");
  record.traceHash = parseHexU64(
      member(value, "trace_hash", context).asString(context + ".trace_hash"),
      context + ".trace_hash");
  for (const Value& v : member(value, "check_violations", context)
                            .asArray(context + ".check_violations")) {
    record.checkViolations.push_back(
        v.asString(context + ".check_violations[]"));
  }
  record.canonicalTrace = member(value, "canonical_trace", context)
                              .asString(context + ".canonical_trace");
  return record;
}

// --- shard documents --------------------------------------------------------

void emitShardJson(const ShardDoc& doc, std::ostream& out) {
  doc.shard.validate();
  out << "{\n"
      << "  \"sweep\": \"" << json::escape(doc.sweep) << "\",\n"
      << "  \"spec_fingerprint\": \"" << json::escape(doc.specFingerprint)
      << "\",\n"
      << "  \"shard_index\": " << doc.shard.index << ",\n"
      << "  \"shard_count\": " << doc.shard.count << ",\n"
      << "  \"run_count\": " << doc.runCount << ",\n"
      << "  \"runs\": [";
  for (std::size_t i = 0; i < doc.records.size(); ++i) {
    out << (i == 0 ? "\n    " : ",\n    ");
    json::dump(recordToJson(doc.records[i]), out);
  }
  out << "\n  ]\n}\n";
}

std::string shardJson(const ShardDoc& doc) {
  std::ostringstream out;
  emitShardJson(doc, out);
  return out.str();
}

ShardDoc parseShardJson(const std::string& text) {
  const Value root = json::parse(text);
  const std::string context = "shard document";
  ShardDoc doc;
  doc.sweep = member(root, "sweep", context).asString(context + ".sweep");
  doc.specFingerprint = member(root, "spec_fingerprint", context)
                            .asString(context + ".spec_fingerprint");
  doc.shard.index = memberSize(root, "shard_index", context);
  doc.shard.count = memberSize(root, "shard_count", context);
  doc.shard.validate();
  doc.runCount = memberSize(root, "run_count", context);
  const Array& runs =
      member(root, "runs", context).asArray(context + ".runs");
  doc.records.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    doc.records.push_back(
        recordFromJson(runs[i], "runs[" + std::to_string(i) + "]"));
  }
  return doc;
}

std::vector<RunRecord> mergeShardRecords(const SweepSpec& spec,
                                         const std::string& fingerprint,
                                         std::vector<ShardDoc> shards) {
  AMMB_REQUIRE(!shards.empty(), "merge needs at least one shard document");
  const std::size_t runCount = spec.runCount();
  const std::size_t shardCount = shards.front().shard.count;
  AMMB_REQUIRE(shards.size() == shardCount,
               "merge needs all " + std::to_string(shardCount) +
                   " shard documents (got " + std::to_string(shards.size()) +
                   ")");

  std::vector<bool> seenShard(shardCount, false);
  std::vector<bool> seenRun(runCount, false);
  std::vector<RunRecord> merged;
  merged.reserve(runCount);
  for (ShardDoc& doc : shards) {
    AMMB_REQUIRE(doc.sweep == spec.name,
                 "shard document is for sweep \"" + doc.sweep +
                     "\", expected \"" + spec.name + "\"");
    AMMB_REQUIRE(doc.specFingerprint == fingerprint,
                 "shard document spec fingerprint " + doc.specFingerprint +
                     " does not match the spec (" + fingerprint +
                     ") — regenerate the shard outputs");
    AMMB_REQUIRE(doc.shard.count == shardCount,
                 "shard documents disagree on the shard count");
    AMMB_REQUIRE(doc.runCount == runCount,
                 "shard document was produced from a grid of " +
                     std::to_string(doc.runCount) + " runs, expected " +
                     std::to_string(runCount));
    AMMB_REQUIRE(!seenShard[doc.shard.index],
                 "duplicate shard " + doc.shard.toString());
    seenShard[doc.shard.index] = true;
    for (RunRecord& record : doc.records) {
      const std::size_t i = record.point.runIndex;
      AMMB_REQUIRE(i < runCount, "shard record run index " +
                                     std::to_string(i) + " out of range");
      AMMB_REQUIRE(doc.shard.ownsRun(i),
                   "run " + std::to_string(i) + " does not belong to shard " +
                       doc.shard.toString());
      AMMB_REQUIRE(!seenRun[i],
                   "run " + std::to_string(i) + " appears twice");
      seenRun[i] = true;
      merged.push_back(std::move(record));
    }
  }
  for (std::size_t i = 0; i < runCount; ++i) {
    AMMB_REQUIRE(seenRun[i], "run " + std::to_string(i) +
                                 " is missing from the shard outputs");
  }
  return merged;
}

// --- run journal ------------------------------------------------------------

std::string journalHeaderLine(const JournalHeader& header) {
  Object o;
  o.emplace_back("journal", header.sweep);
  o.emplace_back("spec_fingerprint", header.specFingerprint);
  o.emplace_back("shard_index", header.shard.index);
  o.emplace_back("shard_count", header.shard.count);
  o.emplace_back("run_count", header.runCount);
  return json::dump(Value(std::move(o))) + "\n";
}

std::string journalRecordLine(const RunRecord& record) {
  return json::dump(recordToJson(record)) + "\n";
}

void appendJournalRecord(std::ostream& out, const RunRecord& record) {
  out << journalRecordLine(record);
  out.flush();
}

JournalDoc parseJournal(const std::string& text) {
  JournalDoc doc;
  std::size_t pos = 0;
  std::size_t lineNo = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const bool terminated = eol != std::string::npos;
    const std::string line =
        text.substr(pos, terminated ? eol - pos : std::string::npos);
    pos = terminated ? eol + 1 : text.size();
    ++lineNo;
    if (line.empty()) continue;

    Value value;
    try {
      value = json::parse(line);
    } catch (const std::exception& e) {
      // Only the final, unterminated line may be damaged — that is the
      // in-flight append a kill interrupts.  Anything else (including a
      // broken header) is corruption the caller must know about.
      if (!terminated && pos == text.size() && lineNo > 1) {
        doc.truncatedTail = true;
        break;
      }
      throw Error("journal line " + std::to_string(lineNo) +
                  " is malformed: " + e.what());
    }
    const std::string context = "journal line " + std::to_string(lineNo);
    if (lineNo == 1) {
      doc.header.sweep =
          member(value, "journal", context).asString(context + ".journal");
      doc.header.specFingerprint =
          member(value, "spec_fingerprint", context)
              .asString(context + ".spec_fingerprint");
      doc.header.shard.index = memberSize(value, "shard_index", context);
      doc.header.shard.count = memberSize(value, "shard_count", context);
      doc.header.shard.validate();
      doc.header.runCount = memberSize(value, "run_count", context);
      continue;
    }
    doc.records.push_back(recordFromJson(value, context));
  }
  AMMB_REQUIRE(lineNo >= 1, "journal is empty (no header line)");
  return doc;
}

}  // namespace ammb::runner
