// The tagged-label axis table.
//
// Four execution axes share the same tagged-label shape — a value type
// with a canonical label()/fromLabel() round-trip, a default whose
// label is elided from canonical serializations, a spec-file key, an
// `ammb_sweep run` override flag, and (for the per-run ones) a
// provenance key in run records, likewise elided at the default:
//
//   axis      spec key      CLI flag      record key         default
//   mac       "mac"         --mac         "mac_realization"  "abstract"
//   reaction  "reactions"   --reaction    (react_idx coord)  "none"
//   backend   "backend"     --backend     "backend"          "sim"
//   trace     "trace_mode"  --trace-mode  "trace_mode"       "mem"
//
// Before this table existed, each of those cells was a hand-rolled
// copy in spec_io.cpp (parse + canonical writer), sweep_main.cpp
// (override plumbing and fingerprint ordering), and emit.cpp (record
// codec).  Adding the backend axis would have been another copy-paste
// sweep; instead the table is the single place an axis declares its
// spellings, and the call sites loop.
//
// One classification matters: resultBearing — whether the axis changes
// results.  Result-bearing overrides (mac, reaction, backend) are
// applied to the SpecDoc BEFORE the spec fingerprint is taken, so an
// overridden campaign can never merge/resume against the base spec's
// shards.  The trace storage knob commits the same record sequence
// either way and applies after.
//
// Record keys elide at the default so every record file written before
// an axis existed parses and re-serializes byte-identically.  Readers
// ignore unknown keys, so records that still carry the removed
// "kernel" provenance key parse too (and re-serialize without it).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "runner/json.h"
#include "runner/spec_io.h"
#include "runner/sweep_runner.h"

namespace ammb::runner {

struct AxisCodec {
  const char* axis;          ///< short name ("mac", "backend", ...)
  const char* specKey;       ///< spec-file JSON key
  const char* cliFlag;       ///< `ammb_sweep run` override flag
  const char* recordKey;     ///< run-record JSON key (nullptr: none)
  const char* defaultLabel;  ///< canonical default; elided when equal
  bool resultBearing;        ///< override applies before fingerprinting
  bool multi;                ///< list axis (JSON array / comma CLI)

  /// Canonical labels of the axis in `doc` (exactly one for single
  /// axes, the axis points in order for multi).
  std::vector<std::string> (*get)(const SpecDoc& doc);
  /// Parses one label into `doc`; `first` resets a multi axis before
  /// its first point.  Throws ammb::Error on a malformed label —
  /// callers wrap with the spec/CLI context.
  void (*parseInto)(SpecDoc& doc, const std::string& label, bool first);
  /// Per-run provenance label, or nullptr for axes recorded as a grid
  /// coordinate instead (reaction).
  std::string RunRecord::* recordField;
};

/// The table, in canonical (spec-key emission and record-key) order.
const std::array<AxisCodec, 4>& axisCodecs();

/// Lookup by axis name; throws on unknown names.
const AxisCodec& axisCodec(const std::string& axis);

/// Applies one CLI override value (comma-separated for multi axes).
/// Error messages name the flag.
void applyAxisOverride(SpecDoc& doc, const AxisCodec& codec,
                       const std::string& value);

/// Appends the axis's spec key to a canonical-writer object unless it
/// holds the default — the one elision rule every axis shares, so a
/// pre-axis spec's canonical bytes (and fingerprint) never change.
void emitSpecAxis(json::Object& root, const SpecDoc& doc,
                  const AxisCodec& codec);

/// Record-codec halves: write the provenance keys of every axis with a
/// recordField (in table order, elided at the default), and read them
/// back (all optional, defaulting, so pre-axis record files parse).
void emitRecordAxes(json::Object& o, const RunRecord& record);
void parseRecordAxes(RunRecord& record, const json::Value& value,
                     const std::string& context);

}  // namespace ammb::runner
