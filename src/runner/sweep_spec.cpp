#include "runner/sweep_spec.h"

#include <cstdio>

#include "graph/generators.h"

namespace ammb::runner {

void SweepSpec::validate() const {
  AMMB_REQUIRE(!topologies.empty(), "sweep needs at least one topology");
  AMMB_REQUIRE(!schedulers.empty(), "sweep needs at least one scheduler");
  AMMB_REQUIRE(!ks.empty(), "sweep needs at least one k");
  AMMB_REQUIRE(!macs.empty(), "sweep needs at least one MacParams point");
  AMMB_REQUIRE(!workloads.empty(), "sweep needs at least one workload");
  AMMB_REQUIRE(!dynamics.empty(),
               "sweep needs at least one dynamics point (use the default "
               "static entry)");
  AMMB_REQUIRE(!reactions.empty(),
               "sweep needs at least one reaction point (use the default "
               "kNone entry)");
  AMMB_REQUIRE(seedBegin < seedEnd, "sweep needs a non-empty seed range");
  for (const DynamicsSpecNamed& d : dynamics) {
    AMMB_REQUIRE(!d.name.empty(), "dynamics spec needs a non-empty name");
  }
  for (const TopologySpec& t : topologies) {
    AMMB_REQUIRE(t.make != nullptr,
                 "topology spec '" + t.name + "' has no generator");
  }
  for (const WorkloadSpec& w : workloads) {
    AMMB_REQUIRE(w.make != nullptr,
                 "workload spec '" + w.name + "' has no generator");
  }
  for (int k : ks) {
    AMMB_REQUIRE(k >= 1, "sweep k values must be >= 1 (got " +
                             std::to_string(k) + ")");
  }
  for (const MacParamsSpec& m : macs) m.params.validate();
  AMMB_REQUIRE(!keepCanonicalTraces || check != CheckMode::kOff,
               "keepCanonicalTraces requires a CheckMode");
  if (!backend.sim()) {
    // Fail the whole campaign at validation time rather than once per
    // run: every grid point would hit the same Experiment precondition.
    AMMB_REQUIRE(realization.abstract(),
                 "the net backend realizes the MAC layer with real sockets; "
                 "it cannot be combined with a physical realization (\"mac\" "
                 "must be abstract)");
    for (const DynamicsSpecNamed& d : dynamics) {
      AMMB_REQUIRE(d.spec.isStatic(),
                   "the net backend requires static topologies; dynamics "
                   "point '" + d.name + "' is not static");
    }
  }
  if (protocol == core::ProtocolKind::kFmmb) {
    AMMB_REQUIRE(fmmbParams != nullptr,
                 "FMMB sweeps need an FmmbParamsFactory");
    for (const MacParamsSpec& m : macs) {
      AMMB_REQUIRE(m.params.variant == mac::ModelVariant::kEnhanced,
                   "FMMB sweeps require enhanced-model MacParams");
    }
  } else {
    AMMB_REQUIRE(fmmbParams == nullptr,
                 "fmmbParams is set but the sweep protocol is BMMB — the "
                 "factory would be silently ignored");
  }
}

std::vector<RunPoint> enumerateRuns(const SweepSpec& spec) {
  std::vector<RunPoint> points;
  points.reserve(spec.runCount());
  std::size_t cell = 0;
  for (std::size_t t = 0; t < spec.topologies.size(); ++t) {
    for (std::size_t s = 0; s < spec.schedulers.size(); ++s) {
      for (std::size_t k = 0; k < spec.ks.size(); ++k) {
        for (std::size_t m = 0; m < spec.macs.size(); ++m) {
          for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
            for (std::size_t d = 0; d < spec.dynamics.size(); ++d) {
              for (std::size_t r = 0; r < spec.reactions.size(); ++r) {
                for (std::uint64_t seed = spec.seedBegin; seed < spec.seedEnd;
                     ++seed) {
                  RunPoint p;
                  p.runIndex = points.size();
                  p.cellIndex = cell;
                  p.topoIdx = t;
                  p.schedIdx = s;
                  p.kIdx = k;
                  p.macIdx = m;
                  p.wlIdx = w;
                  p.dynIdx = d;
                  p.reactIdx = r;
                  p.seed = seed;
                  points.push_back(p);
                }
                ++cell;
              }
            }
          }
        }
      }
    }
  }
  return points;
}

RunPoint runPointFor(const SweepSpec& spec, std::size_t runIndex) {
  AMMB_REQUIRE(runIndex < spec.runCount(),
               "run index " + std::to_string(runIndex) +
                   " out of range for a grid of " +
                   std::to_string(spec.runCount()) + " runs");
  RunPoint p;
  p.runIndex = runIndex;
  const std::size_t seedsPerCell = spec.seedsPerCell();
  p.cellIndex = runIndex / seedsPerCell;
  p.seed = spec.seedBegin + runIndex % seedsPerCell;
  // Cells are numbered in (topology, scheduler, k, mac, workload,
  // dynamics, reaction) lexicographic order; peel the axes off
  // innermost-first.
  std::size_t cell = p.cellIndex;
  p.reactIdx = cell % spec.reactions.size();
  cell /= spec.reactions.size();
  p.dynIdx = cell % spec.dynamics.size();
  cell /= spec.dynamics.size();
  p.wlIdx = cell % spec.workloads.size();
  cell /= spec.workloads.size();
  p.macIdx = cell % spec.macs.size();
  cell /= spec.macs.size();
  p.kIdx = cell % spec.ks.size();
  cell /= spec.ks.size();
  p.schedIdx = cell % spec.schedulers.size();
  p.topoIdx = cell / spec.schedulers.size();
  return p;
}

core::RunConfig runConfigFor(const SweepSpec& spec, const RunPoint& point) {
  core::RunConfig config;
  config.mac = spec.macs[point.macIdx].params;
  config.scheduler.kind = spec.schedulers[point.schedIdx];
  const int topoD = spec.topologies[point.topoIdx].lowerBoundD;
  config.scheduler.lowerBoundLineLength =
      topoD > 0 ? topoD : spec.lowerBoundLineLength;
  config.dynamics = spec.dynamics[point.dynIdx].spec;
  config.seed = point.seed;
  config.recordTrace = spec.recordTrace || spec.check != CheckMode::kOff;
  config.limits.stopOnSolve = spec.stopOnSolve;
  config.limits.maxTime = spec.maxTime;
  config.limits.maxEvents = spec.maxEvents;
  config.traceMode = spec.traceMode;
  config.realization = spec.realization;
  config.backend = spec.backend;
  return config;
}

core::ProtocolSpec protocolSpecFor(const SweepSpec& spec, NodeId n, int k,
                                   std::size_t reactIdx) {
  AMMB_REQUIRE(reactIdx < spec.reactions.size(),
               "reaction index out of range for the sweep's reaction axis");
  const core::ReactionSpec reaction = spec.reactions[reactIdx];
  if (spec.protocol == core::ProtocolKind::kFmmb) {
    AMMB_REQUIRE(spec.fmmbParams != nullptr,
                 "FMMB sweeps need an FmmbParamsFactory");
    return core::fmmbProtocol(spec.fmmbParams(n, k), reaction);
  }
  return core::bmmbProtocol(spec.discipline, reaction);
}

namespace {
namespace gen = graph::gen;

/// Stream label for topology RNGs, distinct from run-internal streams.
Rng topologyRng(std::uint64_t seed) {
  return SeedSequence(seed).childRng(rngstream::kTopology, 0);
}

}  // namespace

TopologySpec lineTopology(NodeId n) {
  return {"line" + std::to_string(n),
          [n](std::uint64_t) { return gen::identityDual(gen::line(n)); }};
}

TopologySpec rRestrictedLineTopology(NodeId n, int r, double edgeProb) {
  return {"line" + std::to_string(n) + "-r" + std::to_string(r),
          [n, r, edgeProb](std::uint64_t seed) {
            Rng rng = topologyRng(seed);
            return gen::withRRestrictedNoise(gen::line(n), r, edgeProb, rng);
          }};
}

TopologySpec arbitraryNoiseLineTopology(NodeId n, std::size_t extraEdges) {
  return {"line" + std::to_string(n) + "-arb" + std::to_string(extraEdges),
          [n, extraEdges](std::uint64_t seed) {
            Rng rng = topologyRng(seed);
            return gen::withArbitraryNoise(gen::line(n), extraEdges, rng);
          }};
}

TopologySpec greyZoneFieldTopology(NodeId n, double avgDegree, double c,
                                   double pGrey) {
  return {"greyfield" + std::to_string(n),
          [n, avgDegree, c, pGrey](std::uint64_t seed) {
            Rng rng = topologyRng(seed);
            return gen::greyZoneField(n, avgDegree, c, pGrey, rng);
          }};
}

TopologySpec lowerBoundNetworkCTopology(int D) {
  return {"networkC-D" + std::to_string(D),
          [D](std::uint64_t) { return gen::lowerBoundNetworkC(D); }, D};
}

DynamicsSpecNamed staticDynamics() { return DynamicsSpecNamed{}; }

DynamicsSpecNamed crashDynamics(int crashes, Time period, Time downFor) {
  core::DynamicsSpec spec;
  spec.kind = core::DynamicsSpec::Kind::kCrash;
  spec.crashes = crashes;
  spec.period = period;
  spec.downFor = downFor;
  return {spec.label(), spec};
}

DynamicsSpecNamed greyDriftDynamics(int epochs, Time period, double churn) {
  core::DynamicsSpec spec;
  spec.kind = core::DynamicsSpec::Kind::kGreyDrift;
  spec.epochs = epochs;
  spec.period = period;
  spec.churn = churn;
  return {spec.label(), spec};
}

WorkloadSpec allAtNodeWorkload(NodeId node) {
  return {"all-at-" + std::to_string(node),
          [node](int k, NodeId, std::uint64_t) {
            return core::streamWorkload(core::workloadAllAtNode(k, node));
          }};
}

WorkloadSpec roundRobinWorkload() {
  return {"round-robin", [](int k, NodeId n, std::uint64_t) {
            return core::streamWorkload(core::workloadRoundRobin(k, n));
          }};
}

WorkloadSpec spreadWorkload() {
  return {"spread", [](int k, NodeId n, std::uint64_t) {
            core::MmbWorkload w;
            w.k = k;
            for (MsgId m = 0; m < k; ++m) {
              const auto node = static_cast<NodeId>(
                  (static_cast<std::int64_t>(m) * n) / k);
              w.arrivals.push_back(
                  {node < n ? node : static_cast<NodeId>(n - 1), m, 0});
            }
            return core::streamWorkload(std::move(w));
          }};
}

WorkloadSpec randomWorkload() {
  return {"random", [](int k, NodeId n, std::uint64_t seed) {
            Rng rng = core::workloadRng(seed);
            return core::streamWorkload(core::workloadRandom(k, n, rng));
          }};
}

WorkloadSpec onlineWorkload(Time interval) {
  return {"online-" + std::to_string(interval),
          [interval](int k, NodeId n, std::uint64_t seed) {
            Rng rng = core::workloadRng(seed);
            return core::streamWorkload(
                core::workloadOnline(k, n, interval, rng));
          }};
}

WorkloadSpec poissonWorkload(double meanGap) {
  char gap[32];
  std::snprintf(gap, sizeof(gap), "%g", meanGap);
  return {"poisson-" + std::string(gap),
          [meanGap](int k, NodeId n, std::uint64_t seed) {
            return std::make_unique<core::PoissonArrivalProcess>(k, n, meanGap,
                                                                 seed);
          }};
}

WorkloadSpec burstyWorkload(int batchSize, Time gap) {
  return {"bursty-" + std::to_string(batchSize) + "x" + std::to_string(gap),
          [batchSize, gap](int k, NodeId n, std::uint64_t seed) {
            return std::make_unique<core::BurstyArrivalProcess>(
                k, n, batchSize, gap, seed);
          }};
}

WorkloadSpec staggeredWorkload(int sources, Time interval) {
  return {"staggered-" + std::to_string(sources) + "x" +
              std::to_string(interval),
          [sources, interval](int k, NodeId n, std::uint64_t) {
            // Clamp sources to the generated network's size so small
            // topologies stay valid under a shared spec.
            const int s = sources > n ? static_cast<int>(n) : sources;
            return std::make_unique<core::StaggeredArrivalProcess>(
                k, n, s, interval);
          }};
}

}  // namespace ammb::runner
