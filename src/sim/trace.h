// Execution traces.
//
// Every observable event of a run — environment arrivals, MAC-layer
// bcast/rcv/ack/abort, and protocol-level deliver outputs — is appended
// to a Trace in execution order.  The trace is the ground truth for the
// trace checker (mac/trace_checker.h): event *order* in the stream
// resolves same-tick precedence questions (the model's "precedes"
// relation), while timestamps feed the Fack/Fprog bound checks.
//
// The trace stores its records itself, in one of two places: the
// default in-memory vector keeps `records()` random access for tests
// and tools, while the disk spool (trace_sink.h) bounds resident memory
// to a small write buffer so checked runs scale with the topology, not
// the event count.  Consumers attached via attachConsumer() observe
// every record as it is added — the streaming oracles ride this and
// never need the stored trace at all.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/trace_sink.h"

namespace ammb::sim {

/// Kind of a trace record.
enum class TraceKind : std::uint8_t {
  kWake,     ///< node woke up (start of execution)
  kArrive,   ///< environment injected MMB message `msg` at `node`
  kBcast,    ///< `node` initiated broadcast instance `instance`
  kRcv,      ///< `node` received instance `instance` (from its sender)
  kAck,      ///< instance `instance` acknowledged at its sender `node`
  kAbort,    ///< instance `instance` aborted by its sender `node`
  kDeliver,  ///< protocol performed deliver(msg) output at `node`
  kEpoch,    ///< topology epoch `msg` took effect (dynamic runs only)
};

/// One observable event.
struct TraceRecord {
  Time t = 0;
  TraceKind kind = TraceKind::kWake;
  NodeId node = kNoNode;             ///< the node the event happened at
  InstanceId instance = kNoInstance; ///< for bcast/rcv/ack/abort
  MsgId msg = kNoMsg;                ///< for arrive/deliver
};

/// Human-readable one-liner for debugging and the example binaries.
std::string toString(const TraceRecord& record);

/// Where a run's trace records live.
///
///   mem        — in-memory vector (default; random access, O(events))
///   spool[:N]  — bounded-buffer disk spool (N-record write buffer,
///                sequential replay, O(buffer) resident)
///
/// The label round-trips through spec files, the --trace-mode flag and
/// RunRecord provenance; the default buffer size is elided so "spool"
/// and "spool:16384" are the same mode with the same canonical label.
struct TraceMode {
  enum class Kind { kMem, kSpool };

  static constexpr std::size_t kDefaultSpoolBuf = 16384;

  Kind kind = Kind::kMem;
  std::size_t bufRecords = kDefaultSpoolBuf;

  static TraceMode mem() { return {}; }
  static TraceMode spool(std::size_t bufRecords = kDefaultSpoolBuf) {
    TraceMode m;
    m.kind = Kind::kSpool;
    m.bufRecords = bufRecords == 0 ? 1 : bufRecords;
    return m;
  }

  /// Canonical label: "mem", "spool", or "spool:N" for non-default N.
  std::string label() const;
  /// Parses a label; throws ammb::Error on anything else.
  static TraceMode fromLabel(const std::string& label);

  friend bool operator==(const TraceMode& a, const TraceMode& b) {
    return a.kind == b.kind &&
           (a.kind == Kind::kMem || a.bufRecords == b.bufRecords);
  }
  friend bool operator!=(const TraceMode& a, const TraceMode& b) {
    return !(a == b);
  }
};

/// Observer of records as they are added to a Trace.
class TraceConsumer {
 public:
  virtual ~TraceConsumer() = default;
  virtual void onRecord(const TraceRecord& record) = 0;
};

/// An append-only event log.  Recording can be disabled for large
/// benchmark runs (bounds are still enforced online by the engine).
/// Move-only: a spool trace owns an open spool file.
class Trace {
 public:
  explicit Trace(bool enabled = true, TraceMode mode = {});
  ~Trace();
  Trace(Trace&& other) noexcept;
  Trace& operator=(Trace&& other) noexcept;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// True when records are being kept.
  bool enabled() const { return enabled_; }

  /// The storage mode this trace was built with.
  const TraceMode& mode() const { return mode_; }

  /// Stores a record, then hands it to every attached consumer in
  /// attach order (no-op when disabled).
  void add(const TraceRecord& record) {
    if (!enabled_) return;
    if (spool_ != nullptr) {
      spool_->append(record);
    } else {
      records_.push_back(record);
    }
    for (TraceConsumer* consumer : consumers_) consumer->onRecord(record);
  }

  /// All records in execution order.  Only the in-memory mode supports
  /// random access; throws ammb::Error for spool-backed traces (use
  /// forEach), and returns an empty vector when recording is disabled.
  const std::vector<TraceRecord>& records() const;

  /// Number of records kept.
  std::size_t size() const;

  /// Timestamp of the last record appended (0 when empty) — the
  /// default checking horizon, available without replaying a spool.
  Time lastTime() const;

  /// Replays every stored record in execution order.  A spool flushes
  /// its write buffer and streams from disk.
  void forEach(const std::function<void(const TraceRecord&)>& fn) const;

  /// Registers a live observer of every subsequently added record (not
  /// owned).  No-op when recording is disabled.
  void attachConsumer(TraceConsumer* consumer);

 private:
  bool enabled_;
  TraceMode mode_;
  /// The records of an enabled mem trace.
  std::vector<TraceRecord> records_;
  /// The spool of an enabled spool trace, else null.
  std::unique_ptr<SpoolTraceSink> spool_;
  std::vector<TraceConsumer*> consumers_;
};

}  // namespace ammb::sim
