// Sweep spec files: a declarative JSON schema for SweepSpec.
//
// A SweepSpec holds callables (topology generators, arrival-stream
// factories), so it cannot itself round-trip through a file.  SpecDoc
// is the declarative twin: every axis point is named by kind +
// parameters drawn from the canonical builder families in
// sweep_spec.h, and `buildSweep()` instantiates the real SweepSpec.
// Spec files under sweeps/*.json are the canonical campaign
// definitions the `ammb_sweep` CLI and CI consume.
//
// spec_io.cpp declares the schema once, as tables: one row per family
// (its "kind", its keys in canonical order with their required/default
// flag and range, and the sweep_spec.h builder it calls), plus one
// table each for "macs", "fmmb" and the root keys.  Parsing, writing
// and building loop over the rows, so a new family is one table row.
// Ranges are checked at parse time; counts and tick-valued keys are at
// most INT32_MAX, so any count x ticks product stays below 2^62.
//
// The writer is canonical — fixed key order, shortest round-trip
// numbers — so parse(write(doc)) == doc and write(parse(text)) is a
// fixpoint after one round trip.  `specFingerprint()` hashes the
// canonical form; shard outputs and journals embed it so `merge` and
// `--resume` can refuse inputs produced from a different spec.
//
// Schema (see README "Sweeps" for a walkthrough):
//
//   {
//     "name": "ci-smoke",
//     "protocol": "bmmb" | "fmmb",
//     "topologies": [
//       {"kind": "line", "n": 24},
//       {"kind": "line-r", "n": 24, "r": 2, "edge_prob": 0.5},
//       {"kind": "line-arb", "n": 24, "extra_edges": 8},
//       {"kind": "grey-field", "n": 40, "avg_degree": 6.0, "c": 1.5,
//        "p_grey": 0.4},
//       {"kind": "network-c", "d": 4}],
//     "schedulers": ["fast", "random", "slow-ack", "adversarial",
//                    "adversarial+stuff", "lower-bound"],
//     "ks": [1, 4],
//     "macs": [{"name": "std", "fack": 32, "fprog": 4, "eps_abort": 0,
//               "msg_capacity": 1, "variant": "standard"}],
//     "workloads": [
//       {"kind": "all-at-node", "node": 0},
//       {"kind": "round-robin"},
//       {"kind": "spread"},
//       {"kind": "random"},
//       {"kind": "online", "interval": 8},
//       {"kind": "poisson", "mean_gap": 10.0},
//       {"kind": "bursty", "batch": 4, "gap": 50},
//       {"kind": "staggered", "sources": 3, "interval": 20}],
//     // Optional topology-dynamics axis (defaults to one static point):
//     "dynamics": [
//       {"kind": "static"},
//       {"kind": "crash", "crashes": 2, "period": 64, "down_for": 24},
//       {"kind": "grey-drift", "epochs": 4, "period": 64, "churn": 0.25}],
//     // Optional churn-reaction axis (defaults to ["none"]):
//     "reactions": ["none", "retransmit", "retransmit+remis"],
//     "seed_begin": 1, "seed_end": 4,
//     // Optional (defaults shown):
//     "stop_on_solve": true, "record_trace": false, "check": "off",
//     "max_time": null, "max_events": 100000000,
//     "discipline": "fifo", "lower_bound_line_length": 0,
//     "mac": "abstract" | "csma" |
//            "csma:<slot>,<cwMin>,<cwMax>,<maxRetries>,<pCapture>",
//     "backend": "sim" | "net" | "net:<basePort>,<loss>,<tickUs>,
//                <gPrimeAttempts>,<ackDelayTicks>,<jitterUs>",
//     "trace_mode": "mem" | "spool" | "spool:<bufRecords>",
//     // Required iff protocol == "fmmb":
//     "fmmb": {"c": 1.5, "mode": "interleaved" | "sequential",
//              "strict_paper_phases": false}
//   }
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/json.h"
#include "runner/sweep_spec.h"

namespace ammb::runner {

/// Declarative topology axis point (one of the canonical families).
struct TopologyDoc {
  enum class Kind : std::uint8_t {
    kLine,       ///< lineTopology(n)
    kLineR,      ///< rRestrictedLineTopology(n, r, edgeProb)
    kLineArb,    ///< arbitraryNoiseLineTopology(n, extraEdges)
    kGreyField,  ///< greyZoneFieldTopology(n, avgDegree, c, pGrey)
    kNetworkC,   ///< lowerBoundNetworkCTopology(d)
  };
  Kind kind = Kind::kLine;
  NodeId n = 2;
  int r = 1;
  double edgeProb = 1.0;
  std::int64_t extraEdges = 0;
  double avgDegree = 6.0;
  double c = 1.5;
  double pGrey = 0.5;
  int d = 1;
};

/// Declarative workload axis point.
struct WorkloadDoc {
  enum class Kind : std::uint8_t {
    kAllAtNode,   ///< allAtNodeWorkload(node)
    kRoundRobin,  ///< roundRobinWorkload()
    kSpread,      ///< spreadWorkload()
    kRandom,      ///< randomWorkload()
    kOnline,      ///< onlineWorkload(interval)
    kPoisson,     ///< poissonWorkload(meanGap)
    kBursty,      ///< burstyWorkload(batch, gap)
    kStaggered,   ///< staggeredWorkload(sources, interval)
  };
  Kind kind = Kind::kAllAtNode;
  NodeId node = 0;
  Time interval = 1;
  double meanGap = 1.0;
  int batch = 1;
  Time gap = 1;
  int sources = 1;
};

/// Declarative MacParams axis point.
struct MacDoc {
  std::string name;  ///< defaults to "f<fprog>a<fack>" when omitted
  mac::MacParams params;
};

/// Declarative topology-dynamics axis point; `name` defaults to the
/// DynamicsSpec label ("static", "crash2p64d24", ...).
struct DynamicsDoc {
  std::string name;
  core::DynamicsSpec spec;
};

/// Declarative FmmbParamsFactory: FmmbParams::make /
/// FmmbParams::makeSequential per generated network.
struct FmmbDoc {
  double c = 1.5;
  core::FmmbParams::Mode mode = core::FmmbParams::Mode::kInterleaved;
  bool strictPaperPhases = false;
};

/// The declarative twin of SweepSpec (everything a spec file can say).
struct SpecDoc {
  std::string name = "sweep";
  core::ProtocolKind protocol = core::ProtocolKind::kBmmb;
  std::vector<TopologyDoc> topologies;
  std::vector<core::SchedulerKind> schedulers;
  std::vector<int> ks;
  std::vector<MacDoc> macs;
  std::vector<WorkloadDoc> workloads;
  /// Defaults to one static point when the spec file omits the key.
  std::vector<DynamicsDoc> dynamics = {DynamicsDoc{"static", {}}};
  /// Churn-reaction axis; defaults to one reaction-free point when the
  /// spec file omits the key.  Serialized only when non-default, so
  /// pre-existing specs keep their canonical form; like "mac" a
  /// reaction changes results, so when present it *is* part of the
  /// fingerprint.
  std::vector<core::ReactionSpec> reactions = {core::ReactionSpec{}};
  std::uint64_t seedBegin = 1;
  std::uint64_t seedEnd = 2;
  bool stopOnSolve = true;
  bool recordTrace = false;
  CheckMode check = CheckMode::kOff;
  Time maxTime = kTimeNever;  ///< kTimeNever serializes as null
  std::uint64_t maxEvents = 100'000'000;
  core::QueueDiscipline discipline = core::QueueDiscipline::kFifo;
  int lowerBoundLineLength = 0;
  bool hasFmmb = false;  ///< required iff protocol == kFmmb
  FmmbDoc fmmb;
  /// Physical MAC realization, the "mac" key ("abstract" when the file
  /// omits it; serialized only when non-abstract, keeping existing
  /// fingerprints stable).  This changes results, so the
  /// `ammb_sweep --mac` override is applied to the document
  /// *before* fingerprinting — a realized campaign can never merge or
  /// resume against abstract shards.
  mac::MacRealization realization;
  /// Execution backend, the "backend" key ("sim" when the file omits
  /// it; serialized only when non-sim, keeping existing fingerprints
  /// stable).  Like "mac" it changes results — real UDP executions
  /// have measured, not scheduled, timing — so the `--backend`
  /// override is likewise applied before fingerprinting.
  core::ExecutionBackend backend;
  /// Trace storage backend, the "trace_mode" key ("mem" when the file
  /// omits it; serialized only when non-mem, keeping existing
  /// fingerprints stable).  It is a pure storage knob — the committed
  /// record sequence, trace hashes, verdicts and fitted bounds are
  /// identical either way — so the `--trace-mode` override applies
  /// after fingerprinting.
  sim::TraceMode traceMode;
};

/// Parses and validates a spec document.  Throws ammb::Error naming
/// the offending field on schema violations (unknown keys included —
/// a typoed axis must not silently vanish from a campaign).
SpecDoc parseSpec(const std::string& jsonText);

/// parseSpec over the contents of `path` (errors name the file).
SpecDoc loadSpecFile(const std::string& path);

/// Canonical serialization: fixed key order, two-space indent,
/// defaults written out explicitly.  parse(writeSpec(doc)) == doc.
std::string writeSpec(const SpecDoc& doc);

/// Instantiates the executable SweepSpec (named generators built from
/// the canonical families) and validates it.
SweepSpec buildSweep(const SpecDoc& doc);

/// FNV-1a 64 over writeSpec(doc), rendered as 16 hex digits.  Embedded
/// in shard outputs and journals to pin them to their spec.
std::string specFingerprint(const SpecDoc& doc);

// Enum spellings shared with the CLI and emitters.
std::string toString(TopologyDoc::Kind kind);
std::string toString(WorkloadDoc::Kind kind);
core::SchedulerKind schedulerFromString(const std::string& name);
CheckMode checkModeFromString(const std::string& name);
core::QueueDiscipline disciplineFromString(const std::string& name);
std::string toString(core::QueueDiscipline discipline);

}  // namespace ammb::runner
