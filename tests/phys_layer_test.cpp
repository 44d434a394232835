// The physical MAC realization layer, bottom to top: the CsmaParams /
// MacRealization label codec, the analytic plan envelope, seed
// determinism of the contention draws, the golden suite's CSMA cases,
// the measured-bounds feedback loop (checkExecution green
// under the *fitted* Fprog/Fack), the sweep/record plumbing, and a
// negative test where an impossible contention window makes the
// realized Fack blow past bounds fitted from a sane configuration.
#include <gtest/gtest.h>

#include <sstream>

#include "check/fuzzer.h"
#include "check/golden.h"
#include "check/oracles.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/realization.h"
#include "mac/trace_checker.h"
#include "phys/csma.h"
#include "phys/measurement.h"
#include "runner/emit.h"
#include "runner/spec_io.h"
#include "runner/sweep_runner.h"
#include "test_util.h"

namespace ammb {
namespace {

using check::ExecutionOutcome;
using check::FuzzCase;
using check::GoldenCase;
using check::SchedulerMutation;
using mac::CsmaParams;
using mac::MacRealization;

namespace gen = graph::gen;

// --- label codec -------------------------------------------------------------

TEST(MacRealizationUnit, LabelsAndRoundTrips) {
  EXPECT_EQ(MacRealization::abstractLayer().label(), "abstract");
  EXPECT_EQ(MacRealization::csmaWith(CsmaParams{}).label(), "csma");

  CsmaParams custom;
  custom.slot = 2;
  custom.cwMin = 4;
  custom.cwMax = 32;
  custom.maxRetries = 5;
  custom.pCapture = 0.25;
  EXPECT_EQ(MacRealization::csmaWith(custom).label(), "csma:2,4,32,5,0.25");

  for (const std::string label :
       {"abstract", "csma", "csma:2,4,32,5,0.25", "csma:1,2,64,4,0.3"}) {
    EXPECT_EQ(MacRealization::fromLabel(label).label(), label) << label;
  }
  // The explicit default vector is the same layer as the shorthand and
  // canonicalizes back to it.
  EXPECT_EQ(MacRealization::fromLabel("csma"),
            MacRealization::fromLabel("csma:1,2,64,8,0.3"));
  EXPECT_EQ(MacRealization::fromLabel("csma:1,2,64,8,0.3").label(), "csma");

  EXPECT_THROW(MacRealization::fromLabel(""), Error);
  EXPECT_THROW(MacRealization::fromLabel("Abstract"), Error);
  EXPECT_THROW(MacRealization::fromLabel("csma:"), Error);
  EXPECT_THROW(MacRealization::fromLabel("csma:1,2,64"), Error);
  EXPECT_THROW(MacRealization::fromLabel("csma:1,2,64,8,0.3,extra"), Error);
  EXPECT_THROW(MacRealization::fromLabel("tdma"), Error);
  // Labels that parse but violate CsmaParams::validate() must throw too.
  EXPECT_THROW(MacRealization::fromLabel("csma:0,2,64,8,0.3"), Error);
  EXPECT_THROW(MacRealization::fromLabel("csma:1,8,4,8,0.3"), Error);
  EXPECT_THROW(MacRealization::fromLabel("csma:1,2,64,8,1.5"), Error);
  // Each field is one whole, in-range token: no wrap-around of an
  // overflowing int (4294967298 is 2 mod 2^32, the default cwMin), no
  // leading whitespace or '+', no trailing junk inside a field.
  EXPECT_THROW(MacRealization::fromLabel("csma:1,4294967298,64,8,0.3"),
               Error);
  EXPECT_THROW(MacRealization::fromLabel("csma:1, 2,64,8,0.3"), Error);
  EXPECT_THROW(MacRealization::fromLabel("csma:1,+2,64,8,0.3"), Error);
  EXPECT_THROW(MacRealization::fromLabel("csma:1,2.5,64,8,0.3"), Error);
  EXPECT_THROW(MacRealization::fromLabel("csma:1,2,64,8,"), Error);
  EXPECT_THROW(
      MacRealization::fromLabel("csma:99999999999999999999,2,64,8,0.3"),
      Error);
}

// --- analytic envelope -------------------------------------------------------

TEST(CsmaEnvelopeUnit, AcquisitionEnvelopeIsTheWindowSum) {
  CsmaParams p;
  p.slot = 2;
  p.cwMin = 2;
  p.cwMax = 16;
  p.maxRetries = 4;
  // Windows of attempts 0..4: 2, 4, 8, 16, 16 -> 46 slots.
  EXPECT_EQ(phys::csmaAcquisitionEnvelope(p), 46 * 2);
}

TEST(CsmaEnvelopeUnit, EnvelopeParamsDominateEveryPlan) {
  const CsmaParams csma;  // defaults
  const mac::MacParams cell = testutil::stdParams(4, 32);
  const mac::MacParams envelope = phys::csmaEnvelopeParams(csma, cell);
  envelope.validate();
  EXPECT_GE(envelope.fack, phys::csmaAcquisitionEnvelope(csma));
  EXPECT_GE(envelope.fack, cell.fack);
  EXPECT_GE(envelope.fprog, cell.fprog);
  EXPECT_GE(envelope.fack, envelope.fprog);
  // Non-timing knobs pass through untouched.
  EXPECT_EQ(envelope.epsAbort, cell.epsAbort);
  EXPECT_EQ(envelope.msgCapacity, cell.msgCapacity);
  EXPECT_EQ(envelope.variant, cell.variant);

  // A cell that already dominates the envelope is kept verbatim.
  mac::MacParams huge = testutil::stdParams(100'000, 1'000'000);
  const mac::MacParams kept = phys::csmaEnvelopeParams(csma, huge);
  EXPECT_EQ(kept.fack, huge.fack);
  EXPECT_EQ(kept.fprog, huge.fprog);
}

// --- execution helpers -------------------------------------------------------

FuzzCase csmaCase(std::uint64_t seed, const CsmaParams& csma) {
  FuzzCase c;
  c.topology = check::TopologyFamily::kLine;
  c.n = 8;
  c.k = 4;
  c.workload = check::WorkloadShape::kAllAtZero;
  c.mac = testutil::stdParams(4, 32);
  c.maxTime = 1'000'000;
  c.seed = seed;
  c.realization = MacRealization::csmaWith(csma);
  return c;
}

// --- seed determinism --------------------------------------------------------

TEST(PhysScheduler, ContentionDrawsAreSeedDeterministic) {
  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
    const FuzzCase c = csmaCase(seed, CsmaParams{});
    const ExecutionOutcome first =
        check::runCase(c, SchedulerMutation::kNone, true);
    const ExecutionOutcome again =
        check::runCase(c, SchedulerMutation::kNone, true);
    ASSERT_TRUE(first.error.empty()) << first.error;
    ASSERT_FALSE(first.canonicalTrace.empty());
    EXPECT_EQ(first.canonicalTrace, again.canonicalTrace) << seed;
    EXPECT_EQ(first.traceHash, again.traceHash) << seed;
    EXPECT_TRUE(first.report.ok) << first.report.summary();
    EXPECT_TRUE(first.result.solved) << seed;
  }
  // Different seeds draw different backoffs: the traces must diverge.
  const ExecutionOutcome a = check::runCase(csmaCase(7, CsmaParams{}),
                                            SchedulerMutation::kNone, true);
  const ExecutionOutcome b = check::runCase(csmaCase(8, CsmaParams{}),
                                            SchedulerMutation::kNone, true);
  EXPECT_NE(a.canonicalTrace, b.canonicalTrace);
}

// --- golden suite ------------------------------------------------------------

TEST(PhysScheduler, CsmaGoldenCasesRunGreen) {
  int covered = 0;
  for (const GoldenCase& gc : check::goldenCaseSuite()) {
    if (gc.fuzzCase.realization.abstract()) continue;
    ++covered;
    const ExecutionOutcome outcome = check::runCase(
        gc.fuzzCase, SchedulerMutation::kNone, /*keepCanonicalTrace=*/true);
    ASSERT_TRUE(outcome.error.empty()) << gc.name << ": " << outcome.error;
    EXPECT_TRUE(outcome.report.ok)
        << gc.name << ": " << outcome.report.summary();
  }
  // The suite must actually pin the CSMA layer (csma-line and
  // csma-grey-field).
  EXPECT_EQ(covered, 2);
}

// --- measured-bounds feedback loop ------------------------------------------

TEST(MacMeasurement, ChecksGreenUnderFittedBoundsAndBelowEnvelope) {
  const CsmaParams csma;
  const graph::DualGraph topology = gen::identityDual(gen::line(10));
  std::unique_ptr<core::ArrivalProcess> arrivals =
      core::streamWorkload(core::workloadRoundRobin(5, topology.n()));
  const core::MmbWorkload workload = core::materializeWorkload(*arrivals);

  core::RunConfig config;
  config.mac = testutil::stdParams(4, 32);
  config.realization = MacRealization::csmaWith(csma);
  config.seed = 21;
  config.recordTrace = true;

  const mac::MacParams envelope = core::effectiveMacParams(config);
  EXPECT_GT(envelope.fack, config.mac.fack);

  core::Experiment experiment(topology, core::bmmbProtocol(), *arrivals,
                              config);
  const core::RunResult result = experiment.run();
  EXPECT_TRUE(result.solved);
  const sim::Trace& trace = experiment.engine().trace();

  const phys::RealizedBounds realized =
      phys::measureRealized(experiment.view(), envelope, trace,
                            result.endTime);
  ASSERT_TRUE(realized.measured());
  EXPECT_GT(realized.ackSamples, 0u);
  EXPECT_GT(realized.progSamples, 0u);
  EXPECT_LE(realized.fackP50, realized.fackP95);
  EXPECT_LE(realized.fackP95, realized.fackMax);
  EXPECT_LE(realized.fprogP50, realized.fprogP95);
  EXPECT_LE(realized.fprogP95, realized.fprogMax);
  EXPECT_GE(realized.fittedFack, realized.fackMax);

  // The realized constants sit far inside the analytic worst case —
  // deriving them is the point of the layer.
  EXPECT_LE(realized.fittedFack, envelope.fack);
  EXPECT_LE(realized.fittedFprog, envelope.fprog);

  // The feedback loop: the abstract axioms hold under the *measured*
  // constants, via checkTrace and the full oracle suite alike.
  const mac::MacParams fitted = phys::fittedParams(realized, envelope);
  EXPECT_EQ(fitted.fack, realized.fittedFack);
  EXPECT_EQ(fitted.fprog, realized.fittedFprog);
  const mac::CheckResult check =
      mac::checkTrace(experiment.view(), fitted, trace, result.endTime);
  EXPECT_TRUE(check.ok) << check.summary();
  const check::OracleReport report =
      check::checkExecution(experiment.view(), core::bmmbProtocol(), fitted,
                            workload, trace, result);
  EXPECT_TRUE(report.ok) << report.summary();

  // Minimality of the fitted Fprog: one tick less must be rejected
  // (otherwise the bisection surrendered too high).
  if (fitted.fprog > 1) {
    mac::MacParams tighter = fitted;
    tighter.fprog = fitted.fprog - 1;
    const mac::CheckResult rejected =
        mac::checkTrace(experiment.view(), tighter, trace, result.endTime);
    EXPECT_FALSE(rejected.ok);
  }
}

TEST(MacMeasurement, ImpossibleWindowBlowsPastSanelyFittedBounds) {
  // Fit bounds from a sane contention configuration...
  const graph::DualGraph topology = gen::identityDual(gen::line(8));
  const auto runWith = [&topology](const CsmaParams& csma,
                                   core::RunConfig& configOut)
      -> std::pair<phys::RealizedBounds, mac::MacParams> {
    std::unique_ptr<core::ArrivalProcess> arrivals =
        core::streamWorkload(core::workloadAllAtNode(4, 0));
    configOut.mac = testutil::stdParams(4, 32);
    configOut.realization = MacRealization::csmaWith(csma);
    configOut.seed = 23;
    configOut.recordTrace = true;
    core::Experiment experiment(topology, core::bmmbProtocol(), *arrivals,
                                configOut);
    const core::RunResult result = experiment.run();
    const mac::MacParams envelope = core::effectiveMacParams(configOut);
    return {phys::measureRealized(experiment.view(), envelope,
                                  experiment.engine().trace(),
                                  result.endTime),
            envelope};
  };

  core::RunConfig saneConfig;
  const auto [sane, saneEnvelope] = runWith(CsmaParams{}, saneConfig);
  ASSERT_TRUE(sane.measured());
  const mac::MacParams saneFitted = phys::fittedParams(sane, saneEnvelope);

  // ...then run under an impossible window: every backoff draw spans
  // hundreds of slots, so acquisition alone dwarfs the sane layer's
  // realized Fack.
  CsmaParams impossible;
  impossible.cwMin = 512;
  impossible.cwMax = 4096;
  impossible.maxRetries = 2;
  core::RunConfig impossibleConfig;
  const auto [wild, wildEnvelope] = runWith(impossible, impossibleConfig);
  ASSERT_TRUE(wild.measured());
  EXPECT_GT(wild.fackMax, saneFitted.fack);
  EXPECT_GT(wild.fittedFack, saneFitted.fack);

  // The sane fitted bounds must NOT absolve the impossible-window run:
  // re-running the checker on its trace under them reports ack-bound
  // violations.
  std::unique_ptr<core::ArrivalProcess> arrivals =
      core::streamWorkload(core::workloadAllAtNode(4, 0));
  core::Experiment experiment(topology, core::bmmbProtocol(), *arrivals,
                              impossibleConfig);
  const core::RunResult result = experiment.run();
  const mac::CheckResult check =
      mac::checkTrace(experiment.view(), saneFitted,
                      experiment.engine().trace(), result.endTime);
  EXPECT_FALSE(check.ok);
  ASSERT_FALSE(check.records.empty());
}

// --- sweep / spec / record plumbing -----------------------------------------

TEST(SpecIoMac, MacKeyRoundTripsAndDefaultsKeepFingerprints) {
  const std::string base = R"({
    "name": "phys-spec",
    "protocol": "bmmb",
    "topologies": [{"kind": "line", "n": 8}],
    "schedulers": ["fast"],
    "ks": [2],
    "macs": [{"fack": 32, "fprog": 4}],
    "workloads": [{"kind": "round-robin"}],
    "seed_begin": 1, "seed_end": 2)";
  const runner::SpecDoc abstractDoc = runner::parseSpec(base + "\n}");
  EXPECT_TRUE(abstractDoc.realization.abstract());
  // Omitted key -> abstract -> not serialized: the canonical form (and
  // hence every pre-existing spec fingerprint) is unchanged.
  EXPECT_EQ(runner::writeSpec(abstractDoc).find("\"mac\":"),
            std::string::npos);

  const runner::SpecDoc csmaDoc =
      runner::parseSpec(base + ",\n  \"mac\": \"csma:2,4,32,5,0.25\"\n}");
  EXPECT_EQ(csmaDoc.realization.label(), "csma:2,4,32,5,0.25");
  const std::string written = runner::writeSpec(csmaDoc);
  EXPECT_NE(written.find("\"mac\": \"csma:2,4,32,5,0.25\""),
            std::string::npos);
  EXPECT_EQ(runner::parseSpec(written).realization, csmaDoc.realization);
  // The realization changes results, so it must change the fingerprint.
  EXPECT_NE(runner::specFingerprint(abstractDoc),
            runner::specFingerprint(csmaDoc));

  EXPECT_THROW(runner::parseSpec(base + ",\n  \"mac\": \"tdma\"\n}"), Error);
}

runner::SweepSpec csmaSweep() {
  runner::SweepSpec spec;
  spec.name = "phys-sweep";
  spec.topologies = {runner::lineTopology(8)};
  spec.schedulers = {core::SchedulerKind::kFast};
  spec.ks = {3};
  spec.macs = {{"f4a32", testutil::stdParams(4, 32)}};
  spec.workloads = {runner::roundRobinWorkload()};
  spec.seedBegin = 1;
  spec.seedEnd = 3;
  spec.check = runner::CheckMode::kMac;
  spec.realization = MacRealization::csmaWith(CsmaParams{});
  return spec;
}

TEST(SweepPhys, RecordsCarryRealizedBoundsThroughAggregation) {
  const runner::SweepSpec spec = csmaSweep();
  const runner::SweepResult result = runner::SweepRunner().run(spec);
  EXPECT_EQ(result.realization, "csma");
  ASSERT_EQ(result.runs.size(), 2u);
  for (const runner::RunRecord& record : result.runs) {
    ASSERT_TRUE(record.error.empty()) << record.error;
    EXPECT_EQ(record.realization, "csma");
    EXPECT_TRUE(record.checked);
    EXPECT_TRUE(record.checkViolations.empty())
        << record.checkViolations.front();
    EXPECT_TRUE(record.realized.measured());
    EXPECT_GT(record.realized.fittedFack, 0);
  }
  ASSERT_EQ(result.cells.size(), 1u);
  const runner::CellAggregate& cell = result.cells.front();
  EXPECT_EQ(cell.measuredRuns, 2u);
  EXPECT_TRUE(cell.realized.measured());
  // Worst-case fold: the cell's max is one of the runs' maxima.
  EXPECT_EQ(cell.realized.fackMax,
            std::max(result.runs[0].realized.fackMax,
                     result.runs[1].realized.fackMax));

  // The realized columns reach both CSV emitters and the cell JSON.
  EXPECT_NE(runner::cellsCsv(result).find("fitted_fack"), std::string::npos);
  EXPECT_NE(runner::runsCsv(result).find(",csma,"), std::string::npos);
  const std::string json = runner::toJson(result);
  EXPECT_NE(json.find("\"realization\": \"csma\""), std::string::npos);
  EXPECT_NE(json.find("\"measured_runs\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"fitted_fack\": "), std::string::npos);
}

TEST(SweepPhys, RecordJsonRoundTripsRealizedBounds) {
  const runner::SweepSpec spec = csmaSweep();
  const runner::RunRecord record =
      runner::executeRun(spec, runner::runPointFor(spec, 0));
  ASSERT_TRUE(record.error.empty()) << record.error;
  ASSERT_TRUE(record.realized.measured());

  const runner::RunRecord back = runner::recordFromJson(
      runner::recordToJson(record), "phys-record");
  EXPECT_EQ(back.realization, record.realization);
  EXPECT_EQ(back.realized, record.realized);
  EXPECT_EQ(back.traceHash, record.traceHash);

  // Abstract records keep their pre-phys serialization: no
  // mac_realization / realized keys at all.
  runner::SweepSpec abstractSpec = spec;
  abstractSpec.realization = MacRealization::abstractLayer();
  const runner::RunRecord abstractRecord =
      runner::executeRun(abstractSpec, runner::runPointFor(abstractSpec, 0));
  std::ostringstream dumped;
  runner::json::dump(runner::recordToJson(abstractRecord), dumped);
  EXPECT_EQ(dumped.str().find("mac_realization"), std::string::npos);
  EXPECT_EQ(dumped.str().find("realized"), std::string::npos);
}

// The cross-layer acceptance bar: BMMB and FMMB run unchanged over the
// contention layer, and the full protocol oracles stay green.
TEST(SweepPhys, FmmbRunsUnchangedOverCsma) {
  FuzzCase c;
  c.protocol = core::ProtocolKind::kFmmb;
  c.topology = check::TopologyFamily::kGreyZoneField;
  c.n = 10;
  c.k = 2;
  c.workload = check::WorkloadShape::kAllAtZero;
  c.mac = testutil::enhParams(4, 32);
  c.seed = 16;
  c.realization = MacRealization::csmaWith(CsmaParams{});
  // Lock-step rounds run on the envelope's (Fprog + 1) grid; budget
  // accordingly.
  const mac::MacParams envelope =
      phys::csmaEnvelopeParams(CsmaParams{}, c.mac);
  c.maxTime = 4 * core::fmmbBoundEnvelope(
                      c.n, c.k, core::FmmbParams::make(c.n, c.greyC),
                      envelope);
  const ExecutionOutcome outcome =
      check::runCase(c, SchedulerMutation::kNone, false);
  ASSERT_TRUE(outcome.error.empty()) << outcome.error;
  EXPECT_TRUE(outcome.report.ok) << outcome.report.summary();
  EXPECT_TRUE(outcome.result.solved);
}

}  // namespace
}  // namespace ammb
