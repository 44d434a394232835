// The disk spool behind spool-mode traces (sim::Trace, trace.h).
//
// SpoolTraceSink stores records in a fixed 25-byte little-endian
// encoding, buffers appends, and replays them sequentially from the
// file.  Resident memory is the write buffer, independent of the event
// count.
//
// Replay tolerates a truncated tail record — the same crashed-mid-write
// semantics as the sweep journal's parseJournal — but rejects
// mid-record corruption (an invalid kind byte) loudly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"

namespace ammb::sim {

struct TraceRecord;

/// Bounded-buffer disk spool.
///
/// Records are encoded to a fixed 25-byte little-endian layout
/// (t:8 instance:8 node:4 msg:4 kind:1) and flushed to the backing
/// file every `bufRecords` appends.  The anonymous constructor spools
/// to a std::tmpfile() that the OS unlinks automatically; the path
/// constructor attaches to a named file (tests, offline inspection)
/// and keeps whatever complete records it already holds.
class SpoolTraceSink {
 public:
  static constexpr std::size_t kRecordBytes = 25;

  explicit SpoolTraceSink(std::size_t bufRecords);
  SpoolTraceSink(const std::string& path, std::size_t bufRecords);
  ~SpoolTraceSink();

  SpoolTraceSink(const SpoolTraceSink&) = delete;
  SpoolTraceSink& operator=(const SpoolTraceSink&) = delete;

  /// Stores one record (records arrive in execution order).
  void append(const TraceRecord& record);
  /// Number of records stored.
  std::size_t size() const { return count_; }
  /// Timestamp of the last appended record (0 when empty).
  Time lastTime() const { return lastT_; }
  /// Flushes pending appends, then streams the file front to back.  A
  /// truncated tail record (fewer than kRecordBytes bytes) is ignored,
  /// mirroring parseJournal's crashed-mid-write tolerance; a corrupt
  /// kind byte inside a complete record throws ammb::Error.
  void replay(const std::function<void(const TraceRecord&)>& fn) const;

  /// Writes buffered records through to the file.
  void flush() const;

  static void encodeRecord(const TraceRecord& record, unsigned char* out);
  /// Throws ammb::Error when the kind byte is not a valid TraceKind.
  static TraceRecord decodeRecord(const unsigned char* in);

 private:
  std::FILE* file_ = nullptr;
  std::size_t bufBytes_ = 0;
  /// Pending encoded records; mutable so const replay() can flush.
  mutable std::vector<unsigned char> buf_;
  std::size_t count_ = 0;
  Time lastT_ = 0;
};

}  // namespace ammb::sim
