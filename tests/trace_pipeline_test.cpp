// The trace pipeline's contracts, bottom to top: the TraceMode label
// round-trips; the spool's fixed-width encoding replays its input
// records byte-identically (tolerating a torn tail, rejecting
// mid-record corruption); the Trace feeds live consumers the exact
// committed sequence, in attach order; the streaming oracles are
// byte-identical to their whole-trace offline references; and whole
// executions — every committed golden case — are bit-identical across
// trace modes, honest and mutated alike.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "check/golden.h"
#include "check/mutation.h"
#include "check/oracles.h"
#include "core/experiment.h"
#include "graph/generators.h"
#include "mac/trace_checker.h"
#include "phys/measurement.h"
#include "runner/sweep_runner.h"
#include "sim/trace_sink.h"
#include "test_util.h"

namespace ammb {
namespace {

namespace gen = graph::gen;
using check::ExecutionOutcome;
using check::FuzzCase;
using check::GoldenCase;
using check::SchedulerMutation;
using sim::SpoolTraceSink;
using sim::Trace;
using sim::TraceKind;
using sim::TraceMode;
using sim::TraceRecord;

// --- TraceMode ---------------------------------------------------------------

TEST(TracePipelineMode, LabelsAndRoundTrips) {
  EXPECT_EQ(TraceMode::mem().label(), "mem");
  EXPECT_EQ(TraceMode::spool().label(), "spool");
  EXPECT_EQ(TraceMode::spool(4096).label(), "spool:4096");
  // The default buffer size is elided: "spool:16384" and "spool" are
  // the same mode with the same canonical label.
  EXPECT_EQ(TraceMode::spool(TraceMode::kDefaultSpoolBuf).label(), "spool");
  EXPECT_EQ(TraceMode::fromLabel("spool:16384").label(), "spool");

  for (const std::string label : {"mem", "spool", "spool:64", "spool:4096"}) {
    EXPECT_EQ(TraceMode::fromLabel(label).label(), label) << label;
  }
  EXPECT_EQ(TraceMode::fromLabel("spool:64"), TraceMode::spool(64));
  EXPECT_EQ(TraceMode::fromLabel("mem"), TraceMode::mem());
  EXPECT_NE(TraceMode::mem(), TraceMode::spool());
  EXPECT_NE(TraceMode::spool(64), TraceMode::spool(65));
  // A zero buffer clamps to one record rather than dividing by zero.
  EXPECT_EQ(TraceMode::spool(0).bufRecords, 1u);

  EXPECT_THROW(TraceMode::fromLabel(""), Error);
  EXPECT_THROW(TraceMode::fromLabel("Mem"), Error);
  EXPECT_THROW(TraceMode::fromLabel("disk"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:0"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:-4"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:12x"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:9999999999"), Error);
  // Past the range of every integer type: an ammb::Error naming the
  // label, not std::stol's std::out_of_range.
  EXPECT_THROW(TraceMode::fromLabel("spool:99999999999999999999"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool:+64"), Error);
  EXPECT_THROW(TraceMode::fromLabel("spool: 64"), Error);
}

// --- SpoolTraceSink ----------------------------------------------------------

std::vector<TraceRecord> sampleRecords(std::size_t count) {
  std::vector<TraceRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.t = static_cast<Time>(7 * i + 1);
    r.kind = static_cast<TraceKind>(i % 8);
    r.node = static_cast<NodeId>(i % 5);
    r.instance = (i % 3 == 0) ? kNoInstance : static_cast<InstanceId>(i * 11);
    r.msg = (i % 4 == 0) ? kNoMsg : static_cast<MsgId>(i % 4);
    records.push_back(r);
  }
  return records;
}

std::vector<TraceRecord> replayed(const SpoolTraceSink& sink) {
  std::vector<TraceRecord> out;
  sink.replay([&](const TraceRecord& r) { out.push_back(r); });
  return out;
}

void expectSameRecords(const std::vector<TraceRecord>& a,
                       const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].node, b[i].node) << i;
    EXPECT_EQ(a[i].instance, b[i].instance) << i;
    EXPECT_EQ(a[i].msg, b[i].msg) << i;
  }
}

TEST(TracePipelineSpool, EncodeDecodeRoundTripsEveryField) {
  for (const TraceRecord& r : sampleRecords(16)) {
    unsigned char encoded[SpoolTraceSink::kRecordBytes];
    SpoolTraceSink::encodeRecord(r, encoded);
    const TraceRecord back = SpoolTraceSink::decodeRecord(encoded);
    EXPECT_EQ(back.t, r.t);
    EXPECT_EQ(back.kind, r.kind);
    EXPECT_EQ(back.node, r.node);
    EXPECT_EQ(back.instance, r.instance);
    EXPECT_EQ(back.msg, r.msg);
  }
  // Every byte past the last valid TraceKind is corruption.
  unsigned char encoded[SpoolTraceSink::kRecordBytes];
  SpoolTraceSink::encodeRecord(TraceRecord{}, encoded);
  encoded[24] = 0xff;
  EXPECT_THROW(SpoolTraceSink::decodeRecord(encoded), Error);
  encoded[24] =
      static_cast<unsigned char>(static_cast<int>(TraceKind::kEpoch) + 1);
  EXPECT_THROW(SpoolTraceSink::decodeRecord(encoded), Error);
}

// The spool replays exactly what a mem trace would hold: its input.
TEST(TracePipelineSpool, ReplayMatchesMemAcrossBufferBoundaries) {
  const std::vector<TraceRecord> records = sampleRecords(23);
  // Buffer sizes straddling the record count: mid-buffer pending tail,
  // exact flush boundary, and everything-buffered.
  for (const std::size_t bufRecords : {1ul, 4ul, 23ul, 64ul}) {
    SpoolTraceSink spool(bufRecords);
    for (const TraceRecord& r : records) spool.append(r);
    EXPECT_EQ(spool.size(), records.size()) << bufRecords;
    EXPECT_EQ(spool.lastTime(), records.back().t) << bufRecords;
    expectSameRecords(replayed(spool), records);
    // Replay flushes but must not consume: a second replay and further
    // appends still see everything.
    spool.append(records.front());
    EXPECT_EQ(replayed(spool).size(), records.size() + 1) << bufRecords;
  }
}

TEST(TracePipelineSpool, TornTailRecordIsDroppedOnReplay) {
  const std::string path = testing::TempDir() + "ammb_torn_tail.spool";
  std::remove(path.c_str());
  const std::vector<TraceRecord> records = sampleRecords(9);
  {
    SpoolTraceSink spool(path, /*bufRecords=*/4);
    for (const TraceRecord& r : records) spool.append(r);
  }  // destructor flushes all 9 records to the file

  // Tear the final record mid-write: keep 8 complete records plus a
  // 10-byte fragment, the on-disk state of an interrupted writer.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long bytes = std::ftell(f);
    ASSERT_EQ(bytes, static_cast<long>(9 * SpoolTraceSink::kRecordBytes));
    std::fclose(f);
    ASSERT_EQ(
        truncate(path.c_str(),
                 static_cast<off_t>(8 * SpoolTraceSink::kRecordBytes + 10)),
        0);
  }

  SpoolTraceSink reattached(path, /*bufRecords=*/4);
  EXPECT_EQ(reattached.size(), 8u);  // fragment excluded from the count
  const std::vector<TraceRecord> got = replayed(reattached);
  expectSameRecords(
      got, std::vector<TraceRecord>(records.begin(), records.begin() + 8));
  std::remove(path.c_str());
}

TEST(TracePipelineSpool, MidRecordCorruptionThrowsOnReplay) {
  const std::string path = testing::TempDir() + "ammb_corrupt.spool";
  std::remove(path.c_str());
  {
    SpoolTraceSink spool(path, /*bufRecords=*/4);
    for (const TraceRecord& r : sampleRecords(6)) spool.append(r);
  }
  // Smash the kind byte of a *complete* interior record: unlike a torn
  // tail this is data loss, and replay must fail loudly.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 2 * SpoolTraceSink::kRecordBytes + 24, SEEK_SET),
              0);
    const unsigned char bad = 0xff;
    ASSERT_EQ(std::fwrite(&bad, 1, 1, f), 1u);
    std::fclose(f);
  }
  SpoolTraceSink reattached(path, /*bufRecords=*/4);
  EXPECT_THROW(replayed(reattached), Error);
  std::remove(path.c_str());
}

// --- Trace facade ------------------------------------------------------------

TEST(TracePipelineFacade, SpoolTraceSupportsEverythingButRandomAccess) {
  const std::vector<TraceRecord> records = sampleRecords(40);

  Trace mem(true, TraceMode::mem());
  Trace spool(true, TraceMode::spool(8));
  for (const TraceRecord& r : records) {
    mem.add(r);
    spool.add(r);
  }

  EXPECT_EQ(spool.mode(), TraceMode::spool(8));
  EXPECT_EQ(spool.size(), mem.size());
  EXPECT_EQ(spool.lastTime(), mem.lastTime());
  EXPECT_EQ(mem.records().size(), records.size());
  EXPECT_THROW(spool.records(), Error);  // random access needs mem mode

  std::vector<TraceRecord> viaForEach;
  spool.forEach([&](const TraceRecord& r) { viaForEach.push_back(r); });
  expectSameRecords(viaForEach, mem.records());
  EXPECT_EQ(check::traceHash(spool), check::traceHash(mem));
  EXPECT_EQ(check::canonicalTrace(spool), check::canonicalTrace(mem));
}

TEST(TracePipelineFacade, AttachedConsumersSeeTheCommittedSequence) {
  // Consumers must see the exact committed order in both modes.
  for (const TraceMode mode : {TraceMode::mem(), TraceMode::spool(8)}) {
    Trace trace(true, mode);
    check::TraceHasher hasher;
    trace.attachConsumer(&hasher);
    for (const TraceRecord& r : sampleRecords(40)) trace.add(r);
    EXPECT_EQ(hasher.hash(), check::traceHash(trace)) << mode.label();
    EXPECT_EQ(trace.size(), 40u) << mode.label();
  }
  // A disabled trace ignores consumers and keeps nothing.
  Trace disabled(false, TraceMode::spool(8));
  check::TraceHasher hasher;
  disabled.attachConsumer(&hasher);
  disabled.add(TraceRecord{});
  EXPECT_EQ(disabled.size(), 0u);
  EXPECT_EQ(hasher.hash(), check::traceHash(disabled));  // both empty
}

// Logs, per call, which consumer ran and how many records the trace
// held at that moment.
class OrderLog : public sim::TraceConsumer {
 public:
  OrderLog(const Trace& trace, int id,
           std::vector<std::pair<int, std::size_t>>& log)
      : trace_(trace), id_(id), log_(log) {}
  void onRecord(const TraceRecord&) override {
    log_.emplace_back(id_, trace_.size());
  }

 private:
  const Trace& trace_;
  int id_;
  std::vector<std::pair<int, std::size_t>>& log_;
};

TEST(TracePipelineFacade, ConsumersRunInAttachOrderAfterTheStore) {
  for (const TraceMode mode : {TraceMode::mem(), TraceMode::spool(8)}) {
    const std::vector<TraceRecord> records = sampleRecords(3);
    Trace trace(true, mode);
    std::vector<std::pair<int, std::size_t>> log;
    OrderLog first(trace, 0, log);
    OrderLog second(trace, 1, log);
    check::TraceHasher late;
    trace.attachConsumer(&first);
    trace.add(records[0]);
    trace.add(records[1]);
    trace.attachConsumer(&second);
    trace.attachConsumer(&late);
    trace.add(records[2]);
    // Each record is stored before any consumer sees it; a consumer
    // attached later sees only the records added after it.
    const std::vector<std::pair<int, std::size_t>> expected = {
        {0, 1}, {0, 2}, {0, 3}, {1, 3}};
    EXPECT_EQ(log, expected) << mode.label();
    Trace tail(true, TraceMode::mem());
    tail.add(records[2]);
    EXPECT_EQ(late.hash(), check::traceHash(tail)) << mode.label();
  }
}

// --- streaming oracles vs their offline references ---------------------------

// One adversarially scheduled grey-zone run with the trace in memory:
// every streaming checker must be byte-identical to its whole-trace
// offline reference, and replaying the same records through a spool
// must change nothing.
TEST(TracePipelineParity, StreamingOraclesMatchOfflineReferences) {
  Rng rng(7);
  const graph::DualGraph base = gen::greyZoneField(24, 5.0, 1.5, 0.4, rng);
  const core::MmbWorkload workload = core::workloadRoundRobin(4, base.n());
  core::RunConfig config;
  config.mac = testutil::stdParams(4, 32);
  config.scheduler = core::SchedulerKind::kAdversarialStuffing;
  config.seed = 11;
  config.limits.maxTime = 200'000;
  core::Experiment experiment(base, core::bmmbProtocol(), workload, config);
  const core::RunResult result = experiment.run();
  ASSERT_TRUE(result.solved);
  const sim::Trace& trace = experiment.trace();

  // A spool copy of the identical record sequence.
  sim::Trace spoolCopy(true, TraceMode::spool(64));
  trace.forEach([&](const TraceRecord& r) { spoolCopy.add(r); });
  ASSERT_EQ(spoolCopy.size(), trace.size());

  // MAC axioms: streaming == offline, on both storage backends.
  const mac::CheckResult offline = mac::checkTraceOffline(
      experiment.view(), config.mac, trace, result.endTime);
  for (const sim::Trace* t :
       std::initializer_list<const sim::Trace*>{&trace, &spoolCopy}) {
    const mac::CheckResult streaming =
        mac::checkTrace(experiment.view(), config.mac, *t, result.endTime);
    EXPECT_EQ(streaming.ok, offline.ok);
    EXPECT_EQ(streaming.violations, offline.violations);
  }

  // Full oracle stack: streaming == offline, on both storage backends.
  const check::OracleReport offlineReport =
      check::checkExecutionOffline(experiment.view(), core::bmmbProtocol(),
                                   config.mac, workload, trace, result);
  for (const sim::Trace* t :
       std::initializer_list<const sim::Trace*>{&trace, &spoolCopy}) {
    const check::OracleReport streaming =
        check::checkExecution(experiment.view(), core::bmmbProtocol(),
                              config.mac, workload, *t, result);
    EXPECT_EQ(streaming.ok, offlineReport.ok);
    EXPECT_EQ(streaming.violations, offlineReport.violations);
    EXPECT_EQ(streaming.macRecords.size(), offlineReport.macRecords.size());
  }
  EXPECT_TRUE(offlineReport.ok) << offlineReport.summary();

  // Realized-bounds measurement: the histogram accumulator equals the
  // sorted-vector rule regardless of which sink replays the records.
  const phys::RealizedBounds fromMem =
      phys::measureRealized(experiment.view(), config.mac, trace,
                            result.endTime);
  const phys::RealizedBounds fromSpool =
      phys::measureRealized(experiment.view(), config.mac, spoolCopy,
                            result.endTime);
  ASSERT_TRUE(fromMem.measured());
  EXPECT_TRUE(fromMem == fromSpool);
}

// A live checker must not borrow its protocol or MAC params: here both
// are temporaries that die before the first record arrives.
TEST(TracePipelineParity, LiveCheckerBuiltFromTemporaries) {
  Rng rng(5);
  const graph::DualGraph base = gen::greyZoneField(20, 5.0, 1.5, 0.4, rng);
  const core::MmbWorkload workload = core::workloadRoundRobin(3, base.n());
  core::RunConfig config;
  config.mac = testutil::stdParams(4, 32);
  config.scheduler = core::SchedulerKind::kRandom;
  config.seed = 3;
  core::Experiment experiment(base, core::bmmbProtocol(), workload, config);
  check::ExecutionChecker checker(experiment.view(), core::bmmbProtocol(),
                                  testutil::stdParams(4, 32), workload);
  experiment.mutableTrace().attachConsumer(&checker);
  const core::RunResult result = experiment.run();
  ASSERT_TRUE(result.solved);
  const check::OracleReport live = checker.finish(result);
  const check::OracleReport offline = check::checkExecutionOffline(
      experiment.view(), core::bmmbProtocol(), config.mac, workload,
      experiment.trace(), result);
  EXPECT_TRUE(live.ok) << live.summary();
  EXPECT_EQ(live.violations, offline.violations);
}

// --- broken traces: streaming vs offline -------------------------------------

void expectSameVerdict(const mac::CheckResult& got,
                       const mac::CheckResult& want, const std::string& what) {
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_EQ(got.violations, want.violations) << what;
  ASSERT_EQ(got.records.size(), want.records.size()) << what;
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    EXPECT_EQ(got.records[i].axiom, want.records[i].axiom) << what << " #" << i;
    EXPECT_EQ(got.records[i].instance, want.records[i].instance)
        << what << " #" << i;
    EXPECT_EQ(got.records[i].node, want.records[i].node) << what << " #" << i;
    EXPECT_EQ(got.records[i].time, want.records[i].time) << what << " #" << i;
  }
}

/// Broken variants of one run's records, each still in time order:
/// random receive drops, one node's receives dropped over the first
/// quarter of the run (a progress violation long before the horizon),
/// a dropped ack, and a duplicated receive.
std::vector<std::pair<std::string, std::vector<TraceRecord>>> brokenVariants(
    const std::vector<TraceRecord>& records, Time horizon) {
  std::vector<std::pair<std::string, std::vector<TraceRecord>>> out;
  out.emplace_back("clean", records);
  auto filtered = [&](const std::string& name, auto keep) {
    std::vector<TraceRecord> kept;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (keep(i, records[i])) kept.push_back(records[i]);
    }
    out.emplace_back(name, std::move(kept));
  };
  for (const auto& [seed, p] : std::initializer_list<std::pair<int, double>>{
           {1, 0.01}, {2, 0.05}, {3, 0.2}, {4, 0.5}}) {
    Rng rng(static_cast<std::uint64_t>(seed));
    filtered("drop-rcvs p=" + std::to_string(p),
             [&](std::size_t, const TraceRecord& r) {
               return r.kind != TraceKind::kRcv || !rng.bernoulli(p);
             });
  }
  std::vector<std::size_t> rcvs, acks;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].kind == TraceKind::kRcv) rcvs.push_back(i);
    if (records[i].kind == TraceKind::kAck) acks.push_back(i);
  }
  for (std::size_t pick = 0; pick < std::min<std::size_t>(3, rcvs.size());
       ++pick) {
    const NodeId node = records[rcvs[pick * rcvs.size() / 8]].node;
    filtered("drop-early-rcvs node " + std::to_string(node),
             [&](std::size_t, const TraceRecord& r) {
               return !(r.kind == TraceKind::kRcv && r.node == node &&
                        r.t < horizon / 4);
             });
  }
  for (const std::size_t at : {std::size_t{0}, acks.size() / 2}) {
    if (at >= acks.size()) continue;
    filtered("drop-ack #" + std::to_string(at),
             [&](std::size_t i, const TraceRecord&) { return i != acks[at]; });
  }
  for (const std::size_t at :
       {std::size_t{0}, rcvs.size() / 2, rcvs.size() - 1}) {
    if (at >= rcvs.size()) continue;
    std::vector<TraceRecord> dup(records);
    dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(rcvs[at] + 1),
               records[rcvs[at]]);
    out.emplace_back("dup-rcv #" + std::to_string(at), std::move(dup));
  }
  return out;
}

// Every broken variant of real runs gets the same MAC verdict from the
// streaming checker, over a mem trace and a spool copy, as from the
// offline reference — including progress violations the streaming
// checker decides mid-stream and grace-window covers of aborted
// instances.
TEST(TracePipelineParity, BrokenTracesMatchOfflineReference) {
  struct Source {
    std::string name;
    core::ProtocolKind protocol;
    core::SchedulerKind scheduler;
    bool drift;
  };
  const std::vector<Source> sources = {
      {"bmmb static random", core::ProtocolKind::kBmmb,
       core::SchedulerKind::kRandom, false},
      {"bmmb static stuffing", core::ProtocolKind::kBmmb,
       core::SchedulerKind::kAdversarialStuffing, false},
      {"bmmb drift random", core::ProtocolKind::kBmmb,
       core::SchedulerKind::kRandom, true},
      {"bmmb drift stuffing", core::ProtocolKind::kBmmb,
       core::SchedulerKind::kAdversarialStuffing, true},
      {"fmmb static random aborts", core::ProtocolKind::kFmmb,
       core::SchedulerKind::kRandom, false},
  };
  std::size_t progressViolations = 0;
  std::size_t decidedMidStream = 0;
  std::size_t graceRcvs = 0;
  for (const Source& source : sources) {
    Rng rng(9);
    const graph::DualGraph base = gen::greyZoneField(24, 6.0, 1.5, 0.4, rng);
    core::RunConfig config;
    config.scheduler = source.scheduler;
    config.seed = 21;
    config.limits.maxTime = 100'000;
    if (source.drift) {
      config.dynamics.kind = core::DynamicsSpec::Kind::kGreyDrift;
      config.dynamics.epochs = 4;
      config.dynamics.period = 24;
      config.dynamics.churn = 0.5;
    }
    core::ProtocolSpec protocol = core::bmmbProtocol();
    if (source.protocol == core::ProtocolKind::kFmmb) {
      config.mac = testutil::enhParams(4, 64);
      config.mac.epsAbort = 3;
      protocol = core::fmmbProtocol(core::FmmbParams::make(base.n()));
    } else {
      config.mac = testutil::stdParams(4, 32);
    }
    const core::MmbWorkload workload = core::workloadRoundRobin(4, base.n());
    core::Experiment experiment(base, protocol, workload, config);
    const core::RunResult result = experiment.run();
    ASSERT_TRUE(result.solved) << source.name;
    ASSERT_EQ(experiment.view().dynamic(), source.drift) << source.name;
    const std::vector<TraceRecord>& records = experiment.trace().records();

    for (const auto& [variant, broken] :
         brokenVariants(records, result.endTime)) {
      const std::string what = source.name + " / " + variant;
      Trace mem;
      Trace spool(true, TraceMode::spool(64));
      for (const TraceRecord& r : broken) {
        mem.add(r);
        spool.add(r);
      }
      const mac::CheckResult offline = mac::checkTraceOffline(
          experiment.view(), config.mac, mem, result.endTime);
      expectSameVerdict(mac::checkTrace(experiment.view(), config.mac, mem,
                                        result.endTime),
                        offline, what + " @ mem");
      expectSameVerdict(mac::checkTrace(experiment.view(), config.mac, spool,
                                        result.endTime),
                        offline, what + " @ spool");

      mac::TraceChecker live(experiment.view(), config.mac, result.endTime);
      for (const TraceRecord& r : broken) live.feed(r);
      decidedMidStream += live.liveState().decidedReceivers;
      for (const mac::Violation& v : offline.records) {
        if (v.axiom == "progress-bound") ++progressViolations;
      }
    }

    // Receives inside an abort's grace window take the tomb path.
    std::map<InstanceId, Time> abortAt;
    for (const TraceRecord& r : records) {
      if (r.kind == TraceKind::kAbort) abortAt[r.instance] = r.t;
      if (r.kind == TraceKind::kRcv && abortAt.count(r.instance) > 0) {
        ++graceRcvs;
      }
    }
  }
  EXPECT_GT(progressViolations, 0u);
  EXPECT_GT(decidedMidStream, 0u);
  EXPECT_GT(graceRcvs, 0u);
}

// --- whole-execution bit-identity across trace modes -------------------------

void expectIdentical(const ExecutionOutcome& mem,
                     const ExecutionOutcome& spool, const std::string& what) {
  ASSERT_TRUE(spool.error.empty()) << what << ": " << spool.error;
  EXPECT_EQ(spool.canonicalTrace, mem.canonicalTrace) << what;
  EXPECT_EQ(spool.traceHash, mem.traceHash) << what;
  EXPECT_EQ(spool.report.ok, mem.report.ok) << what;
  EXPECT_EQ(spool.report.violations, mem.report.violations) << what;
  EXPECT_EQ(check::canonicalRunResult(spool.result),
            check::canonicalRunResult(mem.result))
      << what;
}

// The acceptance bar of the storage seam: every committed golden case
// replays bit-identically from a disk spool.  (Equality against the
// mem outcome is equality against the .golden snapshots, which the
// golden regression test pins.)
TEST(TracePipelineParity, GoldenSuiteSpooledMatchesMem) {
  for (const GoldenCase& gc : check::goldenCaseSuite()) {
    const ExecutionOutcome mem = check::runCase(
        gc.fuzzCase, SchedulerMutation::kNone, /*keepCanonicalTrace=*/true);
    ASSERT_TRUE(mem.error.empty()) << gc.name << ": " << mem.error;
    ASSERT_FALSE(mem.canonicalTrace.empty()) << gc.name;

    FuzzCase spooled = gc.fuzzCase;
    spooled.traceMode = TraceMode::spool(4096);
    const ExecutionOutcome spool = check::runCase(
        spooled, SchedulerMutation::kNone, /*keepCanonicalTrace=*/true);
    expectIdentical(mem, spool, gc.name + " @ spool");
    EXPECT_TRUE(spool.report.ok) << gc.name << ": " << spool.report.summary();
  }
}

// Negative-path parity: a broken scheduler must produce the *same*
// violations whether the evidence was held in memory or streamed
// through the spool — storage must never launder a mutation.
TEST(TracePipelineParity, MutationVerdictsMatchAcrossTraceModes) {
  FuzzCase c;
  c.protocol = core::ProtocolKind::kBmmb;
  c.topology = check::TopologyFamily::kGreyZoneField;
  c.n = 12;
  c.k = 3;
  c.workload = check::WorkloadShape::kRoundRobin;
  c.scheduler = core::SchedulerKind::kRandom;
  c.mac = testutil::stdParams(4, 32);
  c.maxTime = 100'000;
  c.seed = 17;

  for (const SchedulerMutation mutation :
       {SchedulerMutation::kLateAck, SchedulerMutation::kOffGPrime}) {
    const ExecutionOutcome mem =
        check::runCase(c, mutation, /*keepCanonicalTrace=*/true);
    ASSERT_TRUE(mem.error.empty()) << mem.error;
    EXPECT_FALSE(mem.report.ok);  // the mutation must be caught at all

    FuzzCase spooled = c;
    spooled.traceMode = TraceMode::spool(64);
    const ExecutionOutcome spool =
        check::runCase(spooled, mutation, /*keepCanonicalTrace=*/true);
    expectIdentical(mem, spool, "mutated @ spool");
  }
}

// --- sweep-layer provenance --------------------------------------------------

TEST(TracePipelineSweep, RecordsCarryTraceModeAndMatchMemHashes) {
  runner::SweepSpec spec;
  spec.name = "trace-provenance";
  spec.topologies = {runner::greyZoneFieldTopology(16, 5.0, 1.5, 0.4)};
  spec.schedulers = {core::SchedulerKind::kRandom};
  spec.ks = {3};
  spec.macs = {{"f4a32", testutil::stdParams(4, 32)}};
  spec.workloads = {runner::roundRobinWorkload()};
  spec.seedBegin = 1;
  spec.seedEnd = 3;
  spec.check = runner::CheckMode::kFull;
  const std::vector<runner::RunPoint> points = runner::enumerateRuns(spec);
  ASSERT_FALSE(points.empty());

  runner::SweepSpec spooledSpec = spec;
  spooledSpec.traceMode = TraceMode::spool(256);
  for (const runner::RunPoint& point : points) {
    const runner::RunRecord mem = runner::executeRun(spec, point);
    const runner::RunRecord spooled = runner::executeRun(spooledSpec, point);
    ASSERT_TRUE(mem.error.empty()) << mem.error;
    ASSERT_TRUE(spooled.error.empty()) << spooled.error;
    EXPECT_EQ(mem.traceMode, "mem");
    EXPECT_EQ(spooled.traceMode, "spool:256");
    // Same execution, different storage: the label is provenance,
    // never an input to results.
    EXPECT_EQ(spooled.traceHash, mem.traceHash) << "run " << point.runIndex;
    EXPECT_TRUE(spooled.checked);
    EXPECT_TRUE(spooled.checkViolations.empty());
  }
}

}  // namespace
}  // namespace ammb
