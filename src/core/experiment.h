// Experiment harness: one-call wiring of topology + scheduler +
// protocol + arrival stream, with solve detection, per-message latency
// metrics, and the paper's explicit bound formulas for test/bench
// assertions.
//
// The v2 API is protocol-polymorphic: a single core::Experiment facade
// runs either protocol, with everything protocol-specific carried by a
// ProtocolSpec tagged union (BMMB queue discipline, FMMB parameters)
// and everything shared split into SchedulerSpec + ExecutionLimits
// inside RunConfig.  Workloads are streaming ArrivalProcess inputs,
// injected lazily by the engine during the run; eager MmbWorkload
// vectors are adapted transparently.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/arrival.h"
#include "core/backend.h"
#include "core/bmmb.h"
#include "core/fmmb.h"
#include "core/mmb.h"
#include "graph/dual_graph.h"
#include "graph/dynamics.h"
#include "mac/engine.h"
#include "mac/lower_bound_scheduler.h"
#include "mac/realization.h"
#include "mac/schedulers.h"

namespace ammb::net {
class NetEngine;
}

namespace ammb::core {

/// Which scheduler drives the execution.
enum class SchedulerKind : std::uint8_t {
  kFast,                 ///< immediate delivery everywhere
  kRandom,               ///< uniform legal delays
  kSlowAck,              ///< Fprog deliveries, Fack acks, no G'-extras
  kAdversarial,          ///< late deliveries + useless progress fillers
  kAdversarialStuffing,  ///< adversarial + early G'-only stuffing
  kLowerBound,           ///< the Figure-2 network-C adversary
};

/// Human-readable scheduler name (for bench tables).
std::string toString(SchedulerKind kind);

/// Instantiates a scheduler.  `lowerBoundLineLength` is required for
/// kLowerBound (the D of lowerBoundNetworkC).
std::unique_ptr<mac::Scheduler> makeScheduler(SchedulerKind kind,
                                              int lowerBoundLineLength = 0);

/// Which protocol an experiment executes.
enum class ProtocolKind : std::uint8_t {
  kBmmb,  ///< Section 3, standard or enhanced model
  kFmmb,  ///< Section 4, enhanced model only
};

/// Human-readable protocol name (for sweep tables and emitters).
std::string toString(ProtocolKind kind);

/// BMMB-specific knobs (Section 3).
struct BmmbSpec {
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  /// Churn reaction (kNone runs the paper's protocol verbatim; see
  /// core/reaction.h).  Part of the protocol: it changes results.
  ReactionSpec reaction;
};

/// FMMB-specific knobs (Section 4; enhanced model only).
struct FmmbSpec {
  FmmbParams params;
  /// Churn reaction; only kRetransmitRemis has FMMB meaning (the
  /// epoch-aware schedule rebase).
  ReactionSpec reaction;
};

/// Tagged union of protocol choice + protocol-specific knobs.  The
/// shared RunConfig stays protocol-agnostic: everything BMMB- or
/// FMMB-specific lives here, so neither protocol's options leak into
/// the other's runs.
class ProtocolSpec {
 public:
  ProtocolSpec() : spec_(BmmbSpec{}) {}
  /*implicit*/ ProtocolSpec(BmmbSpec spec) : spec_(spec) {}
  /*implicit*/ ProtocolSpec(FmmbSpec spec) : spec_(std::move(spec)) {}

  ProtocolKind kind() const {
    return std::holds_alternative<FmmbSpec>(spec_) ? ProtocolKind::kFmmb
                                                   : ProtocolKind::kBmmb;
  }

  /// The BMMB knobs (requires kind() == kBmmb).
  const BmmbSpec& bmmb() const;
  /// The FMMB knobs (requires kind() == kFmmb).
  const FmmbSpec& fmmb() const;

 private:
  std::variant<BmmbSpec, FmmbSpec> spec_;
};

/// Convenience factories.
ProtocolSpec bmmbProtocol(QueueDiscipline discipline = QueueDiscipline::kFifo,
                          ReactionSpec reaction = {});
ProtocolSpec fmmbProtocol(FmmbParams params, ReactionSpec reaction = {});

/// Scheduler choice plus its knobs.  Implicitly constructible from a
/// bare SchedulerKind, so `config.scheduler = SchedulerKind::kRandom`
/// reads naturally.
struct SchedulerSpec {
  using Factory = std::function<std::unique_ptr<mac::Scheduler>()>;

  SchedulerSpec() = default;
  /*implicit*/ SchedulerSpec(SchedulerKind k) : kind(k) {}

  SchedulerKind kind = SchedulerKind::kRandom;
  /// Line length for SchedulerKind::kLowerBound.
  int lowerBoundLineLength = 0;
  /// Custom scheduler builder; overrides `kind` when set.  This is how
  /// the fuzzing subsystem injects its mutation fixtures — hand-built
  /// schedulers outside the SchedulerKind family.
  Factory factory;
  /// Online plan validation (mac::MacEngine::setPlanValidation).  Leave
  /// on except for mutation fixtures that must reach the offline
  /// checker with an illegal execution.
  bool validatePlans = true;
  /// Epoch-change notifications (mac::MacEngine::setEpochNotification).
  /// Leave on; only the kDropOnRecovery mutation fixture turns this
  /// off, modelling a protocol that silently loses its churn reaction.
  bool notifyEpochChanges = true;
};

/// When a run stops.
struct ExecutionLimits {
  bool stopOnSolve = true;
  Time maxTime = kTimeNever;
  std::uint64_t maxEvents = 100'000'000;
};

/// Declarative topology-dynamics recipe.  The default (kStatic) keeps
/// the classic fixed-topology execution; the dynamic kinds derive a
/// seed-deterministic graph::TopologyDynamics schedule from the run's
/// base topology via the graph::gen generators, so a run with
/// dynamics is reproducible from (topology, spec, seed) exactly like
/// a static one.
struct DynamicsSpec {
  enum class Kind : std::uint8_t {
    kStatic,     ///< no epochs; the topology never changes
    kCrash,      ///< sequential node crash/recovery episodes
    kGreyDrift,  ///< the E' \ E fringe churns; E stays untouched
  };
  Kind kind = Kind::kStatic;

  /// Ticks between episodes (kCrash) or drift epochs (kGreyDrift).
  Time period = 64;
  // kCrash knobs.
  int crashes = 1;     ///< crash/recovery episodes
  Time downFor = 24;   ///< outage length (must stay < period)
  // kGreyDrift knobs.
  int epochs = 4;      ///< drift epochs
  double churn = 0.25; ///< per-edge per-epoch toggle probability

  bool isStatic() const { return kind == Kind::kStatic; }

  /// Emitter/debug label ("static", "crash2p64d24", "drift4p64c0.25").
  std::string label() const;

  /// The materialized schedule for one run (empty when static).  Draws
  /// from the rngstream::kDynamics child of `seed`.
  graph::TopologyDynamics build(const graph::DualGraph& base,
                                std::uint64_t seed) const;
};

/// Shared, protocol-agnostic run configuration.
struct RunConfig {
  mac::MacParams mac;
  SchedulerSpec scheduler;
  ExecutionLimits limits;
  DynamicsSpec dynamics;
  std::uint64_t seed = 1;
  bool recordTrace = true;
  /// Trace storage backend (sim::TraceMode — in-memory vector by
  /// default, or a bounded-buffer disk spool).  Pure storage knob: the
  /// committed record sequence is identical either way, so hashes,
  /// goldens and checker verdicts never depend on it.
  sim::TraceMode traceMode;
  /// Ignored; see sim::KernelSpec in mac/engine.h.
  sim::KernelSpec kernel;
  /// Physical MAC realization (abstract by default).  A non-abstract
  /// realization replaces the scheduler axis — phys::PhysScheduler
  /// derives delivery/ack timing from simulated contention instead of
  /// drawing it from the `mac` windows — and the engine runs under
  /// effectiveMacParams() (the realization's analytic envelope) so
  /// every physically-derived plan passes online validation.  A custom
  /// scheduler factory (mutation fixtures) takes precedence: those
  /// fixtures *are* the scheduler under test.
  mac::MacRealization realization;
  /// Execution backend (the simulator by default).  A net backend runs
  /// the same protocol code over real UDP sockets and threads
  /// (net::NetEngine); it requires a static topology and an abstract
  /// realization, and replaces the scheduler axis — real message
  /// timing decides.  Check traces of net runs against
  /// phys::measureRealized fitted bounds, never against `mac`.
  ExecutionBackend backend;
};

/// The MacParams the engine actually runs under: `config.mac` as
/// given, raised to the realization's analytic plan envelope when a
/// physical MAC is active.  Offline checkers of realized runs must
/// check against these (or against measured fitted bounds), never
/// against the raw cell params.
mac::MacParams effectiveMacParams(const RunConfig& config);

/// Outcome of one run.
struct RunResult {
  bool solved = false;
  Time solveTime = kTimeNever;  ///< completing delivery (kTimeNever if unsolved)
  Time endTime = 0;             ///< simulation time when the run stopped
  sim::RunStatus status = sim::RunStatus::kDrained;
  mac::EngineStats stats;
  /// Per-message arrival-to-last-required-delivery latencies and their
  /// p50/p95/max aggregates, tracked online by SolveTracker.
  MessageMetrics messages;
  /// Churn-reaction work: BMMB re-arm enqueues / FMMB schedule rebases,
  /// summed over all nodes.  0 whenever ReactionSpec is kNone.
  std::uint64_t retransmits = 0;
};

/// A fully wired execution of either protocol; keeps engine / protocol
/// suite / tracker alive for post-run inspection (trace checking,
/// per-node state).  Arrivals are injected lazily: the engine pulls
/// the next arrival from the stream only after the previous one fired.
class Experiment {
 public:
  /// Streaming form.  `arrivals` must outlive the experiment.
  Experiment(const graph::DualGraph& topology, const ProtocolSpec& protocol,
             ArrivalProcess& arrivals, const RunConfig& config);

  /// Eager convenience: adapts `workload` to an internal stream.
  Experiment(const graph::DualGraph& topology, const ProtocolSpec& protocol,
             const MmbWorkload& workload, const RunConfig& config);

  // The engine holds this-capturing hooks into the tracker and the
  // arrival stream; the experiment must stay where it was built.
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;
  ~Experiment();

  /// Runs to completion (or limits) and reports.
  RunResult run();

  /// The simulator engine (requires a sim backend).
  mac::MacEngine& engine() {
    AMMB_REQUIRE(engine_ != nullptr,
                 "this experiment runs on the net backend, which has no "
                 "simulator engine — use trace()/netEngine()");
    return *engine_;
  }
  /// The UDP backend engine (requires a net backend).
  net::NetEngine& netEngine();
  /// The recorded execution trace, whichever backend produced it.
  const sim::Trace& trace() const;
  /// Mutable trace access (whichever backend) — the attachment point
  /// for streaming consumers (sim::Trace::attachConsumer) before run().
  sim::Trace& mutableTrace();
  const SolveTracker& tracker() const { return tracker_; }
  ProtocolKind protocol() const { return protocol_.kind(); }

  /// The epoch-indexed topology view this run executes over (a single
  /// epoch unless RunConfig::dynamics says otherwise).  Offline
  /// checkers take this, not the base DualGraph, so dynamic runs are
  /// validated against what each delivery's epoch actually looked like.
  const graph::TopologyView& view() const { return view_; }

  /// The BMMB process registry (requires protocol() == kBmmb).
  const BmmbSuite& bmmbSuite() const;
  /// The FMMB process registry (requires protocol() == kFmmb).
  const FmmbSuite& fmmbSuite() const;

 private:
  Experiment(const graph::DualGraph& topology, const ProtocolSpec& protocol,
             std::unique_ptr<ArrivalProcess> owned, ArrivalProcess* external,
             const RunConfig& config);

  const graph::DualGraph& topology_;
  ProtocolSpec protocol_;
  RunConfig config_;
  graph::TopologyView view_;
  std::unique_ptr<ArrivalProcess> ownedArrivals_;
  ArrivalProcess* arrivals_ = nullptr;
  std::variant<BmmbSuite, FmmbSuite> suite_;
  /// Exactly one of these is live, per config_.backend.
  std::unique_ptr<mac::MacEngine> engine_;
  std::unique_ptr<net::NetEngine> netEngine_;
  SolveTracker tracker_;
};

/// Convenience one-shot runners.
RunResult runExperiment(const graph::DualGraph& topology,
                        const ProtocolSpec& protocol, ArrivalProcess& arrivals,
                        const RunConfig& config);
RunResult runExperiment(const graph::DualGraph& topology,
                        const ProtocolSpec& protocol,
                        const MmbWorkload& workload, const RunConfig& config);

// --- sweep entry points -----------------------------------------------------

/// Seed-deterministic arrival-stream recipe: one fresh stream per run.
using ArrivalFactory =
    std::function<std::unique_ptr<ArrivalProcess>(std::uint64_t seed)>;

/// Sequential seed sweep over [seedBegin, seedEnd): one run per seed on
/// a shared topology, with config.seed overridden per run and a fresh
/// arrival stream built per seed.  Results are indexed by
/// seed - seedBegin.  runner::SweepRunner does not call it: this is the
/// sequential reference that SweepRunner.MatchesCoreRunSeedSweep checks
/// the worker pool against.
std::vector<RunResult> runSeedSweep(const graph::DualGraph& topology,
                                    const ProtocolSpec& protocol,
                                    const ArrivalFactory& arrivals,
                                    const RunConfig& config,
                                    std::uint64_t seedBegin,
                                    std::uint64_t seedEnd);

// --- the paper's explicit bound formulas ------------------------------------

/// Theorem 3.16: with an r-restricted G', every message is received
/// everywhere by t1 = (D + (r+1)k - 2) Fprog + r (k-1) Fack.
/// G' = G is the r = 1 special case.
Time bmmbRRestrictedBound(int diameter, int k, int r,
                          const mac::MacParams& params);

/// Theorem 3.1: with arbitrary G', BMMB solves MMB within (D + k) Fack.
Time bmmbArbitraryBound(int diameter, int k, const mac::MacParams& params);

/// Theorem 4.1 shape (constants are implementation-defined): an upper
/// envelope for FMMB's solve time used by tests, expressed through the
/// configured FmmbParams stage lengths.
Time fmmbBoundEnvelope(int diameter, int k, const FmmbParams& fmmb,
                       const mac::MacParams& params);

}  // namespace ammb::core
