// Engine workloads: one grey-zone field run per sample.
//
// The untraced sample runs core::Experiment exactly as a caller would.
// The traced sample wires the same execution by hand — mac::MacEngine
// plus core::SolveTracker, in core::Experiment's order — so that the
// timing decorators can wrap the scheduler, the process factory, the
// tracker hooks and the trace consumers.  Its fingerprint must equal
// the untraced one.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "check/golden.h"
#include "check/oracles.h"
#include "core/experiment.h"
#include "decorators.h"
#include "runner/sweep_spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ammb;

struct EngineWorkload {
  const char* name;
  core::SchedulerKind scheduler;
  /// Grey drift (3 epochs of period 48, churn 0.2), a spooled trace,
  /// and TraceHasher + ExecutionChecker attached live.
  bool checked;
};

// BMMB in the standard model on a grey-zone field.  n = 3000 keeps a
// run near 45-60 MiB; n = 10^4 fields (130-150 MiB) swung 4.3-6.6 s
// between identical runs on the same host.
constexpr NodeId kNodes = 3000;
constexpr double kAvgDegree = 13.0;
constexpr double kGreyC = 1.5;
constexpr double kPGrey = 0.3;
constexpr int kMessages = 8;
constexpr Time kFprog = 4;
constexpr Time kFack = 32;
constexpr Time kMaxTime = 200'000;  ///< far above every solve tick seen

const EngineWorkload kWorkloads[] = {
    {"bmmb-static", core::SchedulerKind::kRandom, false},
    {"bmmb-adversarial-drift-checked", core::SchedulerKind::kAdversarial,
     true},
};

const EngineWorkload& findWorkload(const std::string& name) {
  for (const EngineWorkload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw Error("unknown engine workload '" + name + "'");
}

double secondsBetween(std::int64_t fromNs, std::int64_t toNs) {
  return static_cast<double>(toNs - fromNs) * 1e-9;
}

graph::DualGraph makeTopology(std::uint64_t seed) {
  return runner::greyZoneFieldTopology(kNodes, kAvgDegree, kGreyC, kPGrey)
      .make(seed);
}

/// kMessages sources spread evenly over the id space, all at t = 0.
core::MmbWorkload spreadSources(NodeId n) {
  core::MmbWorkload workload;
  workload.k = kMessages;
  for (MsgId m = 0; m < kMessages; ++m) {
    const auto node = static_cast<NodeId>(
        static_cast<std::int64_t>(m) * n / kMessages);
    workload.arrivals.push_back({node, m, 0});
  }
  return workload;
}

core::RunConfig configFor(const EngineWorkload& w, std::uint64_t seed) {
  core::RunConfig config;
  config.mac.fprog = kFprog;
  config.mac.fack = kFack;
  config.mac.variant = mac::ModelVariant::kStandard;
  config.scheduler = w.scheduler;
  config.limits.maxTime = kMaxTime;
  config.seed = seed;
  config.recordTrace = w.checked;
  if (w.checked) {
    config.dynamics.kind = core::DynamicsSpec::Kind::kGreyDrift;
    config.dynamics.epochs = 3;
    config.dynamics.period = 48;
    config.dynamics.churn = 0.2;
    config.traceMode = sim::TraceMode::spool();
  }
  return config;
}

std::string fingerprintOf(const core::RunResult& r, std::size_t instances,
                          std::optional<std::uint64_t> traceHash) {
  const mac::EngineStats& s = r.stats;
  char text[512];
  std::snprintf(
      text, sizeof text,
      "solved=%d solve=%lld end=%lld status=%s bcasts=%llu rcvs=%llu "
      "forced=%llu acks=%llu aborts=%llu delivers=%llu arrives=%llu "
      "instances=%zu",
      r.solved ? 1 : 0, static_cast<long long>(r.solveTime),
      static_cast<long long>(r.endTime), sim::toString(r.status),
      static_cast<unsigned long long>(s.bcasts),
      static_cast<unsigned long long>(s.rcvs),
      static_cast<unsigned long long>(s.forcedRcvs),
      static_cast<unsigned long long>(s.acks),
      static_cast<unsigned long long>(s.aborts),
      static_cast<unsigned long long>(s.delivers),
      static_cast<unsigned long long>(s.arrives), instances);
  std::string out = text;
  if (traceHash.has_value()) {
    std::snprintf(text, sizeof text, " trace=%016llx",
                  static_cast<unsigned long long>(*traceHash));
    out += text;
  }
  return out;
}

void judge(const core::RunResult& result,
           const std::optional<check::OracleReport>& report, Sample& sample) {
  if (!result.solved) {
    sample.problems.push_back(std::string("unsolved, run ended ") +
                              sim::toString(result.status));
  }
  if (report.has_value() && !report->ok) {
    sample.problems.push_back("oracle: " + report->summary());
  }
}

Sample runUntraced(const EngineWorkload& w, std::uint64_t seed) {
  Sample sample;
  const std::int64_t t0 = Ledger::nowNs();
  const graph::DualGraph topology = makeTopology(seed);
  const core::MmbWorkload workload = spreadSources(topology.n());
  const core::RunConfig config = configFor(w, seed);
  const core::ProtocolSpec protocol = core::bmmbProtocol();
  core::Experiment experiment(topology, protocol, workload, config);
  check::TraceHasher hasher;
  std::optional<check::ExecutionChecker> checker;
  if (w.checked) {
    experiment.mutableTrace().attachConsumer(&hasher);
    checker.emplace(experiment.view(), protocol, config.mac, workload);
    experiment.mutableTrace().attachConsumer(&*checker);
  }
  const std::int64_t t1 = Ledger::nowNs();
  const core::RunResult result = experiment.run();
  const std::int64_t t2 = Ledger::nowNs();
  std::optional<check::OracleReport> report;
  if (checker.has_value()) report = checker->finish(result);
  const std::int64_t t3 = Ledger::nowNs();

  sample.setupS = secondsBetween(t0, t1);
  sample.runS = secondsBetween(t1, t2);
  sample.cellMs = secondsBetween(t0, t3) * 1e3;
  sample.rcvs = result.stats.rcvs;
  sample.fingerprint = fingerprintOf(
      result, experiment.engine().instances().size(),
      w.checked ? std::optional<std::uint64_t>(hasher.hash()) : std::nullopt);
  judge(result, report, sample);
  return sample;
}

Sample runTraced(const EngineWorkload& w, std::uint64_t seed) {
  Sample sample;
  Probe probe;
  Ledger& ledger = probe.ledger;

  const std::int64_t t0 = Ledger::nowNs();
  const graph::DualGraph topology = makeTopology(seed);
  const std::int64_t t1 = Ledger::nowNs();
  const core::MmbWorkload workload = spreadSources(topology.n());
  const core::RunConfig config = configFor(w, seed);
  const core::ProtocolSpec protocol = core::bmmbProtocol();

  // core::Experiment's simulator wiring, step for step.
  const graph::TopologyView view(topology,
                                 config.dynamics.build(topology, config.seed));
  core::BmmbSuite suite(protocol.bmmb().discipline, protocol.bmmb().reaction);
  const mac::MacEngine::ProcessFactory inner = suite.factory();
  const mac::MacEngine::ProcessFactory factory =
      [&probe, inner](NodeId node) -> std::unique_ptr<mac::Process> {
    return std::make_unique<TimedProcess>(inner(node), probe);
  };
  mac::MacEngine engine(
      view, config.mac,
      std::make_unique<TimedScheduler>(
          core::makeScheduler(config.scheduler.kind,
                              config.scheduler.lowerBoundLineLength),
          probe),
      factory, config.seed, config.recordTrace, config.kernel,
      config.traceMode);
  engine.setPlanValidation(config.scheduler.validatePlans);
  engine.setEpochNotification(config.scheduler.notifyEpochChanges);
  engine.setOracle(&suite);
  const std::unique_ptr<core::ArrivalProcess> arrivals =
      core::streamWorkload(workload);
  core::SolveTracker tracker(topology, arrivals->k());
  tracker.attachStop([&engine] { engine.requestStop(); },
                     config.limits.stopOnSolve);
  engine.setArriveHook([&](NodeId node, MsgId msg, Time at) {
    Span span(ledger, Layer::kTracker);
    tracker.onArrive(node, msg, at);
  });
  engine.setDeliverHook([&](NodeId node, MsgId msg, Time at) {
    Span span(ledger, Layer::kTracker);
    ++probe.delivers;
    tracker.onDeliver(node, msg, at);
  });
  engine.setArrivalSource(
      [&]() -> std::optional<mac::MacEngine::ArrivalEvent> {
        const std::optional<core::Arrival> arrival = arrivals->next();
        if (!arrival.has_value()) {
          tracker.markArrivalsComplete(engine.now());
          return std::nullopt;
        }
        return mac::MacEngine::ArrivalEvent{arrival->node, arrival->msg,
                                            arrival->at};
      });
  check::TraceHasher hasher;
  TimedConsumer timedHasher(hasher, ledger, Layer::kHash);
  std::optional<check::ExecutionChecker> checker;
  std::optional<TimedConsumer> timedChecker;
  if (w.checked) {
    engine.mutableTrace().attachConsumer(&timedHasher);
    checker.emplace(view, protocol, config.mac, workload);
    timedChecker.emplace(*checker, ledger, Layer::kCheck);
    engine.mutableTrace().attachConsumer(&*timedChecker);
  }
  const std::int64_t t2 = Ledger::nowNs();

  const double peakBefore = peakRssMb();
  ledger.open(Layer::kEngine, Ledger::nowNs());
  const sim::RunStatus status =
      engine.run(config.limits.maxTime, config.limits.maxEvents);
  const std::int64_t wallNs = ledger.close(Ledger::nowNs());
  const double runRssMb = peakRssMb() - peakBefore;

  // core::Experiment::run's result assembly.
  core::RunResult result;
  result.solved = tracker.solved();
  result.solveTime = tracker.solved() ? tracker.solveTime() : kTimeNever;
  result.endTime = engine.now();
  result.status = status;
  result.stats = engine.stats();
  result.messages = tracker.metrics();
  result.retransmits = suite.totalRetransmits();

  const std::int64_t t3 = Ledger::nowNs();
  std::optional<check::OracleReport> report;
  if (checker.has_value()) report = checker->finish(result);
  const std::int64_t t4 = Ledger::nowNs();

  const std::size_t instances = engine.instances().size();
  sample.setupS = secondsBetween(t0, t2);
  sample.runS = static_cast<double>(wallNs) * 1e-9;
  sample.rcvs = result.stats.rcvs;
  sample.fingerprint = fingerprintOf(
      result, instances,
      w.checked ? std::optional<std::uint64_t>(hasher.hash()) : std::nullopt);
  judge(result, report, sample);

  const std::int64_t engineSelfNs = ledger.selfNs(Layer::kEngine);
  if (!ledger.idle() || ledger.totalSelfNs() != wallNs || engineSelfNs < 0) {
    sample.problems.push_back(
        "span closure: self times do not sum to the traced wall time");
  }

  const mac::EngineStats& stats = result.stats;
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const double rcvs = static_cast<double>(stats.rcvs);
  const std::uint64_t checkRecords = ledger.spans(Layer::kCheck);
  auto& L = sample.layers;
  L.emplace_back("graph.build_s", secondsBetween(t0, t1));
  L.emplace_back("core.experiment_ctor_s", secondsBetween(t1, t2));
  L.emplace_back("scheduler.plan_calls", ledger.spans(Layer::kSchedulerPlan));
  L.emplace_back("scheduler.plan_s",
                 ledger.selfSeconds(Layer::kSchedulerPlan));
  L.emplace_back("scheduler.planned_rcvs", probe.plannedRcvs);
  L.emplace_back("scheduler.gprime_only_share",
                 share(probe.gPrimeOnlyRcvs, probe.plannedRcvs));
  L.emplace_back("scheduler.pick_calls", ledger.spans(Layer::kSchedulerPick));
  L.emplace_back("scheduler.pick_s",
                 ledger.selfSeconds(Layer::kSchedulerPick));
  L.emplace_back("protocol.calls.on_wake", probe.onWake);
  L.emplace_back("protocol.calls.on_arrive", probe.onArrive);
  L.emplace_back("protocol.calls.on_receive", probe.onReceive);
  L.emplace_back("protocol.calls.on_ack", probe.onAck);
  L.emplace_back("protocol.calls.on_timer", probe.onTimer);
  L.emplace_back("protocol.calls.on_epoch", probe.onEpoch);
  L.emplace_back("protocol.self_s", ledger.selfSeconds(Layer::kProtocol));
  L.emplace_back("protocol.useful_rcv_share",
                 share(probe.usefulReceives, probe.onReceive));
  L.emplace_back("tracker.deliver_calls", probe.delivers);
  L.emplace_back("tracker.s", ledger.selfSeconds(Layer::kTracker));
  L.emplace_back("check.records", checkRecords);
  L.emplace_back("check.feed_s", ledger.selfSeconds(Layer::kCheck));
  L.emplace_back("check.ns_per_record",
                 share(ledger.selfNs(Layer::kCheck), checkRecords));
  L.emplace_back("check.finish_s",
                 checker.has_value() ? secondsBetween(t3, t4) : 0.0);
  L.emplace_back("hash.feed_s", ledger.selfSeconds(Layer::kHash));
  L.emplace_back("trace.records_per_rcv", share(engine.trace().size(), rcvs));
  L.emplace_back("engine.self_s", static_cast<double>(engineSelfNs) * 1e-9);
  L.emplace_back("engine.self_ns_per_rcv", share(engineSelfNs, rcvs));
  L.emplace_back("engine.bcasts", stats.bcasts);
  L.emplace_back("engine.rcvs", stats.rcvs);
  L.emplace_back("engine.forced_rcvs", stats.forcedRcvs);
  L.emplace_back("engine.forced_share", share(stats.forcedRcvs, rcvs));
  L.emplace_back("engine.aborts", stats.aborts);
  L.emplace_back("engine.instances", instances);
  L.emplace_back("engine.run_rss_mb", runRssMb);
  L.emplace_back("engine.kib_per_instance",
                 share(runRssMb * 1024.0, static_cast<double>(instances)));
  L.emplace_back("tracing.wall_s", sample.runS);
  return sample;
}

}  // namespace

bool isEngineWorkload(const std::string& name) {
  for (const EngineWorkload& w : kWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

Sample runEngineWorkload(const std::string& name, std::uint64_t seed,
                         bool traced) {
  const EngineWorkload& w = findWorkload(name);
  return traced ? runTraced(w, seed) : runUntraced(w, seed);
}

}  // namespace perfbench
