#include "check/fuzzer.h"

#include <algorithm>
#include <sstream>

#include "check/golden.h"
#include "check/shrink.h"
#include "graph/generators.h"
#include "phys/csma.h"

namespace ammb::check {

namespace {

namespace gen = graph::gen;

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& xs) {
  return xs[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(xs.size()) - 1))];
}

/// Topology-generator RNG of a run seed — the same stream the runner's
/// TopologySpecs use, so a case reproduces its network exactly.
Rng topologyRng(std::uint64_t seed) {
  return SeedSequence(seed).childRng(rngstream::kTopology, 0);
}

}  // namespace

std::string toString(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::kLine: return "line";
    case TopologyFamily::kRing: return "ring";
    case TopologyFamily::kRandomTree: return "random-tree";
    case TopologyFamily::kRRestrictedLine: return "r-restricted-line";
    case TopologyFamily::kArbitraryNoiseLine: return "arbitrary-noise-line";
    case TopologyFamily::kGreyZoneField: return "grey-zone-field";
  }
  return "?";
}

std::string toString(WorkloadShape shape) {
  switch (shape) {
    case WorkloadShape::kAllAtZero: return "all-at-zero";
    case WorkloadShape::kRoundRobin: return "round-robin";
    case WorkloadShape::kRandom: return "random";
    case WorkloadShape::kPoisson: return "poisson";
    case WorkloadShape::kBursty: return "bursty";
    case WorkloadShape::kStaggered: return "staggered";
  }
  return "?";
}

std::string toString(const FuzzCase& fuzzCase) {
  std::ostringstream out;
  out << core::toString(fuzzCase.protocol) << " " << toString(fuzzCase.topology)
      << " n=" << fuzzCase.n << " k=" << fuzzCase.k << " workload="
      << toString(fuzzCase.workload) << " scheduler="
      << core::toString(fuzzCase.scheduler) << " fprog=" << fuzzCase.mac.fprog
      << " fack=" << fuzzCase.mac.fack << " epsAbort=" << fuzzCase.mac.epsAbort
      << " variant="
      << (fuzzCase.mac.variant == mac::ModelVariant::kEnhanced ? "enhanced"
                                                               : "standard")
      << " maxTime=" << fuzzCase.maxTime << " seed=" << fuzzCase.seed;
  // Appended only for dynamic cases, so static descriptions (and the
  // golden snapshot headers built from them) stay byte-identical.
  if (!fuzzCase.dynamics.isStatic()) {
    out << " dynamics=" << fuzzCase.dynamics.label();
  }
  // Same default-omission rule for the MAC realization: abstract cases
  // print as they always did, realized cases name the full CSMA
  // parameter vector.
  if (!fuzzCase.realization.abstract()) {
    out << " mac=" << fuzzCase.realization.label();
  }
  // And for the churn reaction: reaction-free cases (the entire
  // pre-reaction corpus) keep their historical description.
  if (!fuzzCase.reaction.none()) {
    out << " reaction=" << fuzzCase.reaction.label();
  }
  // And for the trace backend: in-memory cases (the entire pre-spool
  // corpus) keep their historical description.
  if (fuzzCase.traceMode != sim::TraceMode::mem()) {
    out << " trace=" << fuzzCase.traceMode.label();
  }
  return out.str();
}

Time bmmbFuzzTimeBudget(NodeId n, int k, Time fack) {
  // 8 (n + k) fack + 4096, saturating to kTimeNever on overflow: a
  // wrapped-negative budget would truncate the run at t=0 and hide
  // violations behind a kTimeLimit status.
  Time budget = 0;
  if (__builtin_mul_overflow(static_cast<Time>(8),
                             static_cast<Time>(n) + static_cast<Time>(k),
                             &budget) ||
      __builtin_mul_overflow(budget, fack, &budget) ||
      __builtin_add_overflow(budget, static_cast<Time>(4096), &budget)) {
    return kTimeNever;
  }
  return budget;
}

void FuzzSpec::validate() const {
  AMMB_REQUIRE(iterations >= 1, "fuzz spec needs a positive iteration count");
  AMMB_REQUIRE(!protocols.empty(), "fuzz spec needs at least one protocol");
  AMMB_REQUIRE(!topologies.empty(), "fuzz spec needs at least one topology");
  AMMB_REQUIRE(!workloads.empty(), "fuzz spec needs at least one workload");
  AMMB_REQUIRE(!schedulers.empty(), "fuzz spec needs at least one scheduler");
  AMMB_REQUIRE(minN >= 2 && minN <= maxN, "fuzz spec needs 2 <= minN <= maxN");
  AMMB_REQUIRE(maxK >= 1, "fuzz spec needs maxK >= 1");
  for (core::SchedulerKind s : schedulers) {
    AMMB_REQUIRE(s != core::SchedulerKind::kLowerBound,
                 "the lower-bound adversary needs its network-C topology and "
                 "is not fuzzable");
  }
}

FuzzCase sampleCase(const FuzzSpec& spec, int iteration) {
  Rng rng = SeedSequence(spec.masterSeed)
                .childRng(rngstream::kFuzz,
                          static_cast<std::uint64_t>(iteration));
  FuzzCase c;
  c.protocol = pick(rng, spec.protocols);
  c.topology = pick(rng, spec.topologies);
  c.workload = pick(rng, spec.workloads);
  c.scheduler = pick(rng, spec.schedulers);
  c.n = static_cast<NodeId>(rng.uniformInt(spec.minN, spec.maxN));
  c.k = static_cast<int>(rng.uniformInt(1, spec.maxK));

  c.mac.fprog = rng.uniformInt(2, 6);
  c.mac.fack = c.mac.fprog * rng.uniformInt(2, 8);
  c.mac.epsAbort = rng.uniformInt(0, c.mac.fprog);
  // A quarter of the BMMB cases run under the enhanced model, so the
  // enhanced-only code paths (timers armed but unused, epsAbort grace)
  // get standard-protocol coverage too.
  c.mac.variant = rng.bernoulli(0.25) ? mac::ModelVariant::kEnhanced
                                      : mac::ModelVariant::kStandard;
  const int disciplineDraw = static_cast<int>(rng.uniformInt(0, 2));
  c.discipline = static_cast<core::QueueDiscipline>(disciplineDraw);

  c.noiseR = static_cast<int>(rng.uniformInt(2, 3));
  c.noiseEdgeProb = 0.25 * rng.uniformInt(1, 3);
  c.noiseExtraEdges = static_cast<std::size_t>(rng.uniformInt(1, 6));
  c.greyP = 0.2 * rng.uniformInt(1, 3);

  if (c.protocol == core::ProtocolKind::kFmmb) {
    // FMMB assumes the enhanced model on a grey-zone G'; lock-step
    // rounds make big fields expensive, so cap the size.
    c.topology = TopologyFamily::kGreyZoneField;
    c.n = std::min(c.n, spec.maxFmmbN);
    c.k = std::min(c.k, 3);
    c.mac.variant = mac::ModelVariant::kEnhanced;
    const core::FmmbParams fmmb = core::FmmbParams::make(c.n, c.greyC);
    c.maxTime = 4 * core::fmmbBoundEnvelope(c.n, c.k, fmmb, c.mac);
  } else {
    // Theorem 3.1's (D + k) Fack with D <= n, with slack for online
    // arrival tails and adversarial stuffing.
    c.maxTime = bmmbFuzzTimeBudget(c.n, c.k, c.mac.fack);
  }
  c.seed = rng.randomBits(64);

  // Topology dynamics, drawn last so every earlier field keeps the
  // exact value a pre-dynamics sampler produced for the same seed.
  if (rng.bernoulli(spec.dynamicsFraction)) {
    // Crash episodes isolate nodes entirely; keep them to BMMB, whose
    // relaying makes partial progress meaningful.  Grey drift (E'-only
    // churn) applies to both protocols.
    const bool crash = c.protocol == core::ProtocolKind::kBmmb &&
                       rng.bernoulli(0.5);
    core::DynamicsSpec dyn;
    if (crash) {
      dyn.kind = core::DynamicsSpec::Kind::kCrash;
      dyn.crashes = static_cast<int>(rng.uniformInt(1, 2));
      dyn.period = c.mac.fack;
      dyn.downFor = std::max<Time>(1, c.mac.fack / 2);
    } else {
      dyn.kind = core::DynamicsSpec::Kind::kGreyDrift;
      dyn.epochs = static_cast<int>(rng.uniformInt(2, 4));
      dyn.period = c.mac.fack;
      dyn.churn = 0.25 * rng.uniformInt(1, 3);
    }
    c.dynamics = dyn;
  }

  // Reaction rotation: a third of the *dynamic* honest cases arm the
  // churn-reaction layer (retransmit-on-recovery for BMMB, the remis
  // schedule rebase for FMMB).  Like the realization and trace-backend
  // rotations below this is a pure function of already-sampled fields
  // plus the iteration index — no case-RNG draws — so every other field
  // keeps its pre-reaction value.  Static cases stay reaction-free: without
  // epoch boundaries the layer is dead code and the sampled corpus
  // (and its golden headers) should not change.
  if (spec.mutation == SchedulerMutation::kNone && !c.dynamics.isStatic() &&
      iteration % 3 == 1) {
    c.reaction.kind = c.protocol == core::ProtocolKind::kFmmb
                          ? core::ReactionSpec::Kind::kRetransmitRemis
                          : core::ReactionSpec::Kind::kRetransmit;
  }

  // MAC-realization rotation: also a pure function of the iteration
  // index (no case-RNG draws), so every other field keeps its
  // pre-phys value.  A fifth of the BMMB campaign runs over the
  // CSMA/CA contention layer with a rotating window/retry budget; the
  // time budget is re-derived from the envelope the engine will
  // actually enforce (which dwarfs the sampled cell's Fack).
  // Mutation campaigns are excluded: their injected scheduler factory
  // overrides the realization anyway, and mutants run to their limits,
  // which the envelope-sized budget would inflate for nothing.
  if (iteration % 5 == 2 && c.protocol == core::ProtocolKind::kBmmb &&
      spec.mutation == SchedulerMutation::kNone) {
    mac::CsmaParams csma;
    csma.cwMax = 8 << (iteration % 3);
    csma.maxRetries = 4 + iteration % 3;
    c.realization = mac::MacRealization::csmaWith(csma);
    c.maxTime = bmmbFuzzTimeBudget(c.n, c.k,
                                   phys::csmaEnvelopeParams(csma, c.mac).fack);
  }

  // Trace-backend rotation: a quarter of the campaign records through
  // the disk spool (small buffer, so replay/flush seams are exercised
  // even on short runs).  This is a pure storage knob — every other
  // field, each oracle verdict, and the trace hash are unchanged — so
  // the rotation is a spool parity sweep for free.
  if (iteration % 4 == 1) {
    c.traceMode = sim::TraceMode::spool(4096);
  }

  // Stale-topology campaigns need a grey zone to drift: pin the family
  // to the fully-noised r-restricted line (every G^2 pair unreliable)
  // so each case has base-G' edges for the mutant to keep using after
  // they churn away.  runCase() forces the drift schedule itself.
  if (spec.mutation == SchedulerMutation::kStaleTopology) {
    c.protocol = core::ProtocolKind::kBmmb;
    c.topology = TopologyFamily::kRRestrictedLine;
    c.noiseEdgeProb = 1.0;
    c.n = std::max<NodeId>(c.n, 6);
    // The pin may override a sampled FMMB case (whose maxTime came
    // from the FMMB envelope and whose n was capped); re-derive the
    // BMMB budget for the final protocol and size so the horizon
    // always spans the forced drift schedule.
    c.maxTime = bmmbFuzzTimeBudget(c.n, c.k, c.mac.fack);
  }

  // Drop-on-recovery campaigns need a run that *strands* without the
  // reaction layer: a directional BMMB flood on a line, all messages
  // at node 0, with one crash early enough that the flood has not
  // passed the victim and an outage long enough that the relay
  // frontier finishes (and is acked) while the victim is down.  The
  // protocol is armed with retransmit-on-recovery; runCase suppresses
  // the epoch notifications, so the re-arm never happens and the
  // scoped liveness oracle must flag the drained unsolved run.
  if (spec.mutation == SchedulerMutation::kDropOnRecovery) {
    c.protocol = core::ProtocolKind::kBmmb;
    c.topology = TopologyFamily::kLine;
    c.workload = WorkloadShape::kAllAtZero;
    c.scheduler = core::SchedulerKind::kFast;
    c.reaction.kind = core::ReactionSpec::Kind::kRetransmit;
    c.n = std::max<NodeId>(c.n, 8);
    core::DynamicsSpec dyn;
    dyn.kind = core::DynamicsSpec::Kind::kCrash;
    dyn.crashes = 1;
    dyn.period = 6;
    dyn.downFor = 5;
    c.dynamics = dyn;
    c.maxTime = bmmbFuzzTimeBudget(c.n, c.k, c.mac.fack);
  }
  return c;
}

graph::DualGraph buildTopology(const FuzzCase& c) {
  AMMB_REQUIRE(c.n >= 2, "fuzz cases need at least two nodes");
  switch (c.topology) {
    case TopologyFamily::kLine:
      return gen::identityDual(gen::line(c.n));
    case TopologyFamily::kRing:
      return gen::identityDual(gen::ring(std::max<NodeId>(c.n, 3)));
    case TopologyFamily::kRandomTree: {
      Rng rng = topologyRng(c.seed);
      return gen::identityDual(gen::randomTree(c.n, rng));
    }
    case TopologyFamily::kRRestrictedLine: {
      Rng rng = topologyRng(c.seed);
      return gen::withRRestrictedNoise(gen::line(c.n), c.noiseR,
                                       c.noiseEdgeProb, rng);
    }
    case TopologyFamily::kArbitraryNoiseLine: {
      Rng rng = topologyRng(c.seed);
      // A line of n nodes has (n-1)(n-2)/2 non-adjacent pairs; clamp so
      // small (and shrunk) cases stay generable.
      const auto available = static_cast<std::size_t>(
          (c.n - 1) * (c.n - 2) / 2);
      return gen::withArbitraryNoise(
          gen::line(c.n), std::min(c.noiseExtraEdges, available), rng);
    }
    case TopologyFamily::kGreyZoneField: {
      Rng rng = topologyRng(c.seed);
      return gen::greyZoneField(c.n, c.greyAvgDegree, c.greyC, c.greyP, rng);
    }
  }
  throw Error("unknown topology family");
}

std::unique_ptr<core::ArrivalProcess> buildArrivals(const FuzzCase& c,
                                                    NodeId n) {
  switch (c.workload) {
    case WorkloadShape::kAllAtZero:
      return core::streamWorkload(core::workloadAllAtNode(c.k, 0));
    case WorkloadShape::kRoundRobin:
      return core::streamWorkload(core::workloadRoundRobin(c.k, n));
    case WorkloadShape::kRandom: {
      Rng rng = core::workloadRng(c.seed);
      return core::streamWorkload(core::workloadRandom(c.k, n, rng));
    }
    case WorkloadShape::kPoisson:
      return std::make_unique<core::PoissonArrivalProcess>(
          c.k, n, 2.0 * static_cast<double>(c.mac.fprog), c.seed);
    case WorkloadShape::kBursty:
      return std::make_unique<core::BurstyArrivalProcess>(
          c.k, n, 2, c.mac.fack / 2 + 1, c.seed);
    case WorkloadShape::kStaggered:
      return std::make_unique<core::StaggeredArrivalProcess>(
          c.k, n, std::min<int>(3, n), 2 * c.mac.fprog);
  }
  throw Error("unknown workload shape");
}

core::RunConfig runConfigFor(const FuzzCase& c) {
  core::RunConfig config;
  config.mac = c.mac;
  config.scheduler = c.scheduler;
  config.dynamics = c.dynamics;
  config.seed = c.seed;
  config.recordTrace = true;
  config.limits.stopOnSolve = c.stopOnSolve;
  config.limits.maxTime = c.maxTime;
  config.limits.maxEvents = c.maxEvents;
  config.traceMode = c.traceMode;
  config.realization = c.realization;
  return config;
}

core::ProtocolSpec protocolSpecFor(const FuzzCase& c, NodeId n) {
  if (c.protocol == core::ProtocolKind::kFmmb) {
    return core::fmmbProtocol(core::FmmbParams::make(n, c.greyC), c.reaction);
  }
  return core::bmmbProtocol(c.discipline, c.reaction);
}

ExecutionOutcome runCase(const FuzzCase& fuzzCase, SchedulerMutation mutation,
                         bool keepCanonicalTrace) {
  ExecutionOutcome out;
  try {
    const graph::DualGraph topology = buildTopology(fuzzCase);
    const std::unique_ptr<core::ArrivalProcess> arrivals =
        buildArrivals(fuzzCase, topology.n());
    const core::MmbWorkload workload = core::materializeWorkload(*arrivals);
    core::RunConfig config = runConfigFor(fuzzCase);
    if (mutation != SchedulerMutation::kNone) {
      applyMutation(config.scheduler, mutation);
      // Mutants must reach the trace: run to the limits instead of
      // stopping at the solving delivery (a tiny case can solve before
      // the first broken ack ever fires).
      config.limits.stopOnSolve = false;
      // The stale-topology mutant is only wrong when the topology
      // actually changes under it; force a heavy grey drift on cases
      // that sampled a static (or crash-only) schedule.  Full churn
      // over an odd epoch count leaves every base grey edge down for
      // good after the last boundary, so any late bcast (BMMB relays
      // arrive one ack apart) delivers over a vanished edge.
      if (mutation == SchedulerMutation::kStaleTopology &&
          config.dynamics.kind != core::DynamicsSpec::Kind::kGreyDrift) {
        core::DynamicsSpec dyn;
        dyn.kind = core::DynamicsSpec::Kind::kGreyDrift;
        dyn.epochs = 7;
        dyn.period = std::max<Time>(2, config.mac.fprog);
        dyn.churn = 1.0;
        config.dynamics = dyn;
      }
    }
    const core::ProtocolSpec protocol =
        protocolSpecFor(fuzzCase, topology.n());
    core::Experiment experiment(topology, protocol, *arrivals, config);
    out.result = experiment.run();
    const sim::Trace& trace = experiment.engine().trace();
    // Check under the params the engine enforced: the cell's for
    // abstract (or mutated — the injected factory overrides the
    // realization) cases, the CSMA envelope for realized ones.
    out.report = checkExecution(experiment.view(), protocol,
                                core::effectiveMacParams(config), workload,
                                trace, out.result);
    out.traceHash = traceHash(trace);
    if (keepCanonicalTrace) out.canonicalTrace = canonicalTrace(trace);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

std::string Counterexample::describe() const {
  std::ostringstream out;
  out << "counterexample (iteration " << iteration << "):\n";
  out << "  original: " << toString(original) << "\n";
  out << "  shrunk:   " << toString(shrunk) << " (" << shrinkWins
      << " shrink steps, " << shrinkAttempts << " re-executions)\n";
  if (!error.empty()) out << "  crash: " << error << "\n";
  for (const std::string& v : report.violations) out << "  " << v << "\n";
  return out.str();
}

FuzzResult runFuzz(const FuzzSpec& spec) {
  spec.validate();
  FuzzResult result;
  for (int i = 0; i < spec.iterations; ++i) {
    const FuzzCase fuzzCase = sampleCase(spec, i);
    ++result.executions;
    ++result.coverage["protocol:" + core::toString(fuzzCase.protocol)];
    ++result.coverage["topology:" + toString(fuzzCase.topology)];
    ++result.coverage["workload:" + toString(fuzzCase.workload)];
    ++result.coverage["scheduler:" + core::toString(fuzzCase.scheduler)];
    ++result.coverage["mac:" + fuzzCase.realization.label()];
    ++result.coverage["reaction:" + fuzzCase.reaction.label()];
    ++result.coverage["trace:" + fuzzCase.traceMode.label()];
    const ExecutionOutcome outcome = runCase(fuzzCase, spec.mutation);
    result.traceHashes.push_back(outcome.traceHash);
    if (!outcome.failed()) continue;
    ++result.violations;

    Counterexample ce;
    ce.iteration = i;
    ce.original = fuzzCase;
    // Every accepted shrink step is a failing execution; remember the
    // latest so the minimal case's report needs no extra re-run.
    ExecutionOutcome minimal = outcome;
    const FailPredicate stillFails = [&spec,
                                      &minimal](const FuzzCase& candidate) {
      ExecutionOutcome candidateOutcome = runCase(candidate, spec.mutation);
      const bool failed = candidateOutcome.failed();
      if (failed) minimal = std::move(candidateOutcome);
      return failed;
    };
    const ShrinkOutcome shrunk =
        shrinkCase(fuzzCase, stillFails, spec.shrinkBudget);
    ce.shrunk = shrunk.best;
    ce.shrinkAttempts = shrunk.attempts;
    ce.shrinkWins = shrunk.wins;
    ce.report = std::move(minimal.report);
    ce.error = std::move(minimal.error);
    result.counterexamples.push_back(std::move(ce));
  }
  return result;
}

}  // namespace ammb::check
