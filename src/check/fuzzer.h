// Seed-deterministic adversarial execution fuzzing.
//
// The paper's guarantees are quantified over every topology, workload
// and scheduler the model admits; hand-written tests sample that space
// at a handful of points.  The fuzzer samples it at scale: every
// iteration derives a fully materialized FuzzCase (protocol, topology
// family + size, MacParams, arrival stream shape, scheduler kind,
// execution limits, run seed) from (masterSeed, iteration) alone, runs
// it through core::Experiment with trace recording on, and pipes the
// recorded execution through every oracle in check/oracles.h.  On a
// violation the case is handed to check/shrink.h, and the *minimal*
// reproducing case is reported — re-runnable from its printed fields.
//
// Determinism contract: runFuzz(spec) is a pure function of the spec.
// Two runs of the same spec visit identical cases and produce identical
// trace hashes, which is what makes "fuzz" a regression suite rather
// than a lottery.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/mutation.h"
#include "check/oracles.h"
#include "mac/realization.h"

namespace ammb::check {

/// Topology families the fuzzer samples (graph/generators.h).
enum class TopologyFamily : std::uint8_t {
  kLine,               ///< G' = G path
  kRing,               ///< G' = G cycle
  kRandomTree,         ///< G' = G uniform random tree
  kRRestrictedLine,    ///< line + r-restricted unreliable noise
  kArbitraryNoiseLine, ///< line + arbitrary long-range unreliable edges
  kGreyZoneField,      ///< connected grey-zone unit-disk field
};
std::string toString(TopologyFamily family);

/// Arrival stream shapes the fuzzer samples (core/arrival.h).
enum class WorkloadShape : std::uint8_t {
  kAllAtZero,   ///< all k messages at node 0 at t = 0
  kRoundRobin,  ///< message i at node i mod n at t = 0
  kRandom,      ///< each message at an independently random node, t = 0
  kPoisson,     ///< streaming: exponential gaps, random nodes
  kBursty,      ///< streaming: simultaneous batches, gap ticks apart
  kStaggered,   ///< streaming: phase-shifted multi-source emitters
};
std::string toString(WorkloadShape shape);

/// One fully materialized random execution.  Every field is explicit
/// (nothing hides in derived state), so a case can be shrunk field by
/// field and re-run from a printed report.
struct FuzzCase {
  core::ProtocolKind protocol = core::ProtocolKind::kBmmb;
  TopologyFamily topology = TopologyFamily::kLine;
  NodeId n = 8;
  WorkloadShape workload = WorkloadShape::kAllAtZero;
  core::SchedulerKind scheduler = core::SchedulerKind::kRandom;
  int k = 1;
  core::QueueDiscipline discipline = core::QueueDiscipline::kFifo;
  mac::MacParams mac;

  // Topology-family knobs (ignored by families that don't use them).
  int noiseR = 2;                ///< r of kRRestrictedLine
  double noiseEdgeProb = 0.5;    ///< edge prob of kRRestrictedLine
  std::size_t noiseExtraEdges = 4;  ///< extra edges of kArbitraryNoiseLine
  double greyAvgDegree = 5.0;    ///< kGreyZoneField target G-degree
  double greyC = 1.5;            ///< grey-zone constant
  double greyP = 0.3;            ///< grey-zone edge probability

  /// Topology dynamics of the run (static by default; the sampler
  /// turns a slice of the campaign into crash / grey-drift runs so the
  /// epoch-aware engine reconciliation and oracles get fuzz coverage).
  core::DynamicsSpec dynamics;

  /// MAC realization.  The sampler rotates a slice of the BMMB campaign
  /// onto the physical CSMA/CA layer, so the contention scheduler and
  /// its analytic envelope get adversarial-workload coverage; the
  /// oracles then check those runs under the envelope params the
  /// engine actually enforced.
  mac::MacRealization realization;

  /// Churn reaction of the protocol under test (kNone by default; the
  /// sampler arms it on a slice of the dynamic cases so the
  /// retransmit-on-recovery and remis layers — and the scoped liveness
  /// oracle that polices them — get fuzz coverage).
  core::ReactionSpec reaction;

  /// Trace storage backend.  The sampler rotates a slice of the
  /// campaign onto the disk spool; since the committed record sequence
  /// is identical to in-memory recording, every oracle verdict and
  /// trace hash doubles as a parity check of the spool encode/replay
  /// path under adversarial workloads.
  sim::TraceMode traceMode;

  // Execution limits.
  bool stopOnSolve = true;
  Time maxTime = kTimeNever;
  std::uint64_t maxEvents = 5'000'000;

  std::uint64_t seed = 1;  ///< run seed (topology, workload, scheduler, nodes)
};

/// One-line description, sufficient to reconstruct the case by hand.
std::string toString(const FuzzCase& fuzzCase);

/// The sampling domain and iteration budget of one fuzz campaign.
struct FuzzSpec {
  std::uint64_t masterSeed = 1;
  int iterations = 200;

  std::vector<core::ProtocolKind> protocols = {core::ProtocolKind::kBmmb,
                                               core::ProtocolKind::kFmmb};
  std::vector<TopologyFamily> topologies = {
      TopologyFamily::kLine,           TopologyFamily::kRing,
      TopologyFamily::kRandomTree,     TopologyFamily::kRRestrictedLine,
      TopologyFamily::kArbitraryNoiseLine, TopologyFamily::kGreyZoneField};
  std::vector<WorkloadShape> workloads = {
      WorkloadShape::kAllAtZero, WorkloadShape::kRoundRobin,
      WorkloadShape::kRandom,    WorkloadShape::kPoisson,
      WorkloadShape::kBursty,    WorkloadShape::kStaggered};
  std::vector<core::SchedulerKind> schedulers = {
      core::SchedulerKind::kFast, core::SchedulerKind::kRandom,
      core::SchedulerKind::kSlowAck, core::SchedulerKind::kAdversarial,
      core::SchedulerKind::kAdversarialStuffing};

  NodeId minN = 4;
  NodeId maxN = 20;
  /// FMMB cases are capped at this size (lock-step rounds make large
  /// fields expensive for a smoke budget).
  NodeId maxFmmbN = 12;
  int maxK = 6;

  /// Fraction of cases sampled with non-static topology dynamics
  /// (crash episodes for BMMB, grey-zone drift for either protocol).
  /// Set to 0 to restrict a campaign to the classic static model.
  double dynamicsFraction = 0.3;

  /// Broken-scheduler fixture: every case runs under this mutation
  /// (kNone for honest fuzzing).  Mutation campaigns are the negative
  /// test OF the oracles: zero violations found means a checker bug.
  SchedulerMutation mutation = SchedulerMutation::kNone;

  /// Re-executions the shrinker may spend per counterexample.
  int shrinkBudget = 128;

  /// Throws ammb::Error on an ill-formed spec (empty axis, bad sizes).
  void validate() const;
};

/// Everything one executed case produced.
struct ExecutionOutcome {
  core::RunResult result;
  OracleReport report;
  std::string error;         ///< non-empty iff the run threw
  std::uint64_t traceHash = 0;  ///< check::traceHash record fingerprint
  std::string canonicalTrace;   ///< kept only when requested

  /// A violation or a crash: either way the case is a counterexample.
  bool failed() const { return !error.empty() || !report.ok; }
};

/// The BMMB fuzz time budget 8 (n + k) Fack + 4096 — Theorem 3.1's
/// (D + k) Fack with D <= n plus slack — computed with overflow-checked
/// arithmetic.  Shrinking and hand-run reproductions can feed extreme
/// (n, k, fack) corners where the naive product wraps Time negative,
/// which would truncate the run at t=0 and mask real violations; the
/// budget saturates to kTimeNever (no time limit; maxEvents still
/// bounds the run) instead.
Time bmmbFuzzTimeBudget(NodeId n, int k, Time fack);

/// The case sampled for one iteration — a pure function of
/// (spec.masterSeed, spec axes, iteration).
FuzzCase sampleCase(const FuzzSpec& spec, int iteration);

/// Builds the case's topology (seed-deterministic).
graph::DualGraph buildTopology(const FuzzCase& fuzzCase);

/// Builds a fresh arrival stream for the case (seed-deterministic).
std::unique_ptr<core::ArrivalProcess> buildArrivals(const FuzzCase& fuzzCase,
                                                    NodeId n);

/// The RunConfig of a case (trace recording always on).
core::RunConfig runConfigFor(const FuzzCase& fuzzCase);

/// The ProtocolSpec of a case on an n-node network.
core::ProtocolSpec protocolSpecFor(const FuzzCase& fuzzCase, NodeId n);

/// Executes one case under `mutation` and checks every oracle.  Pass
/// keepCanonicalTrace to also retain the golden-format serialization.
ExecutionOutcome runCase(const FuzzCase& fuzzCase,
                         SchedulerMutation mutation = SchedulerMutation::kNone,
                         bool keepCanonicalTrace = false);

/// A failing case together with its shrunk minimal form.
struct Counterexample {
  int iteration = 0;
  FuzzCase original;
  FuzzCase shrunk;
  /// Oracle report (or crash message) of the *shrunk* case.
  OracleReport report;
  std::string error;
  int shrinkAttempts = 0;  ///< re-executions spent shrinking
  int shrinkWins = 0;      ///< accepted shrink steps

  /// Multi-line human-readable report (shrunk case + violations).
  std::string describe() const;
};

/// Campaign summary.
struct FuzzResult {
  int executions = 0;
  int violations = 0;  ///< failing iterations (before shrinking)
  std::vector<Counterexample> counterexamples;
  /// Executions per axis label ("protocol:bmmb", "topology:line", ...),
  /// for coverage assertions and the BENCH_fuzz.json summary.
  std::map<std::string, int> coverage;
  /// Each iteration's ExecutionOutcome::traceHash (0 if the run threw),
  /// so the summary pins what every case executed, not just sampled.
  std::vector<std::uint64_t> traceHashes;

  bool ok() const { return violations == 0; }
};

/// Runs the whole campaign; deterministic in `spec`.
FuzzResult runFuzz(const FuzzSpec& spec);

}  // namespace ammb::check
