// Tests for the sweep-service file formats: the JSON reader/writer,
// the declarative spec schema (parse / validate / canonical round
// trip / fingerprint), the checked-in campaign definitions under
// sweeps/, and the tolerance-aware result comparison behind
// `ammb_sweep compare`.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>

#include "runner/axis_codec.h"
#include "runner/compare.h"
#include "runner/emit.h"
#include "runner/spec_io.h"

namespace ammb {
namespace {

using runner::CompareOptions;
using runner::SpecDoc;
using runner::SweepSpec;
namespace json = runner::json;

// --- json -------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null").isNull());
  EXPECT_EQ(json::parse("true").asBool(), true);
  EXPECT_EQ(json::parse("-42").asInt(), -42);
  EXPECT_TRUE(json::parse("42").isInt());
  EXPECT_TRUE(json::parse("42.0").isDouble());
  EXPECT_DOUBLE_EQ(json::parse("2.5e3").asDouble(), 2500.0);
  EXPECT_EQ(json::parse("\"a\\nb\\u0041\"").asString(), "a\nbA");
}

TEST(Json, Int64RoundTripsExactly) {
  // kTimeNever must survive a serialize/parse cycle bit-exactly; a
  // double-based reader would round it.
  const std::string text = json::dump(json::Value(kTimeNever));
  EXPECT_EQ(json::parse(text).asInt(), kTimeNever);
}

TEST(Json, DoublesUseShortestRoundTrip) {
  EXPECT_EQ(json::dump(json::Value(0.5)), "0.5");
  EXPECT_EQ(json::dump(json::Value(8.0)), "8.0");
  const double awkward = 0.1 + 0.2;
  EXPECT_EQ(json::parse(json::dump(json::Value(awkward))).asDouble(), awkward);
}

TEST(Json, ObjectsPreserveOrderAndRejectDuplicates) {
  const json::Value v = json::parse("{\"b\": 1, \"a\": 2}");
  const json::Object& members = v.asObject();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "b");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(v.find("a")->asInt(), 2);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(json::parse("{\"a\": 1, \"a\": 2}"), Error);
}

TEST(Json, ReportsErrorPosition) {
  try {
    json::parse("{\"a\": 1,\n  bad}");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, RejectsTrailingContentAndDeepNesting) {
  EXPECT_THROW(json::parse("1 2"), Error);
  EXPECT_THROW(json::parse(std::string(200, '[') + std::string(200, ']')),
               Error);
}

TEST(Json, RejectsSloppyNumberTokens) {
  // Tokens standard JSON consumers would choke on must not pass our
  // parser into committed spec files.
  for (const char* bad : {"+5", "5.", ".5", "-", "1e", "1e+", "2.e3", "012",
                          "-012"}) {
    EXPECT_THROW(json::parse(bad), Error) << bad;
  }
  EXPECT_EQ(json::parse("-0").asInt(), 0);
  EXPECT_DOUBLE_EQ(json::parse("1e+3").asDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(json::parse("1.050").asDouble(), 1.05);
}

// --- spec parsing -----------------------------------------------------------

const char* kMinimalSpec = R"({
  "name": "mini",
  "protocol": "bmmb",
  "topologies": [{"kind": "line", "n": 8}],
  "schedulers": ["fast"],
  "ks": [2],
  "macs": [{"fack": 32, "fprog": 4}],
  "workloads": [{"kind": "round-robin"}],
  "seed_begin": 1,
  "seed_end": 3
})";

TEST(SpecIo, ParsesMinimalSpecWithDefaults) {
  const SpecDoc doc = runner::parseSpec(kMinimalSpec);
  EXPECT_EQ(doc.name, "mini");
  EXPECT_EQ(doc.protocol, core::ProtocolKind::kBmmb);
  ASSERT_EQ(doc.macs.size(), 1u);
  EXPECT_EQ(doc.macs[0].name, "f4a32");  // derived default
  EXPECT_TRUE(doc.stopOnSolve);
  EXPECT_EQ(doc.check, runner::CheckMode::kOff);
  EXPECT_EQ(doc.maxTime, kTimeNever);

  const SweepSpec spec = runner::buildSweep(doc);
  EXPECT_EQ(spec.runCount(), 2u);
  EXPECT_EQ(spec.topologies[0].name, "line8");
}

TEST(SpecIo, CanonicalWriteIsAFixpoint) {
  const std::string canonical = runner::writeSpec(runner::parseSpec(kMinimalSpec));
  EXPECT_EQ(runner::writeSpec(runner::parseSpec(canonical)), canonical);
}

TEST(SpecIo, FingerprintTracksContent) {
  const SpecDoc doc = runner::parseSpec(kMinimalSpec);
  SpecDoc changed = doc;
  changed.ks = {3};
  EXPECT_EQ(runner::specFingerprint(doc), runner::specFingerprint(doc));
  EXPECT_NE(runner::specFingerprint(doc), runner::specFingerprint(changed));
}

TEST(SpecIo, RejectsUnknownAndMalformedFields) {
  // A typoed axis must fail loudly, not silently shrink the campaign.
  EXPECT_THROW(runner::parseSpec(R"({
    "name": "x", "protocol": "bmmb",
    "topologies": [{"kind": "line", "n": 8, "typo": 1}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2})"),
               Error);
  EXPECT_THROW(runner::parseSpec(R"({
    "name": "x", "protocol": "bmmb", "unknown_top_level": true,
    "topologies": [{"kind": "line", "n": 8}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2})"),
               Error);
  EXPECT_THROW(runner::schedulerFromString("bogus"), Error);
  EXPECT_THROW(runner::checkModeFromString("bogus"), Error);
  EXPECT_THROW(runner::disciplineFromString("bogus"), Error);
}

TEST(SpecIo, RejectsOutOfRangeAxisParametersEagerly) {
  // Range violations must fail at parse time (the sweep_spec_* CI
  // gate), not per-run in the middle of a sharded campaign.
  const auto specWith = [](const std::string& topology,
                           const std::string& workload) {
    return R"({"name": "x", "protocol": "bmmb",
               "topologies": [)" + topology + R"(],
               "schedulers": ["fast"], "ks": [1], "macs": [{}],
               "workloads": [)" + workload + R"(],
               "seed_begin": 1, "seed_end": 2})";
  };
  const std::string okTopo = R"({"kind": "line", "n": 8})";
  const std::string okWl = R"({"kind": "round-robin"})";
  EXPECT_NO_THROW(runner::parseSpec(specWith(okTopo, okWl)));
  for (const char* topo :
       {R"({"kind": "line", "n": -5})", R"({"kind": "line", "n": 0})",
        R"({"kind": "line-r", "n": 8, "r": 0, "edge_prob": 0.5})",
        R"({"kind": "line-r", "n": 8, "r": 2, "edge_prob": 1.5})",
        R"({"kind": "grey-field", "n": 8, "avg_degree": -1.0, "c": 1.5,
            "p_grey": 0.4})",
        R"({"kind": "network-c", "d": 0})"}) {
    EXPECT_THROW(runner::parseSpec(specWith(topo, okWl)), Error) << topo;
  }
  for (const char* wl :
       {R"({"kind": "poisson", "mean_gap": 0.0})",
        R"({"kind": "bursty", "batch": 0, "gap": 10})",
        R"({"kind": "staggered", "sources": 0, "interval": 5})",
        R"({"kind": "online", "interval": -1})"}) {
    EXPECT_THROW(runner::parseSpec(specWith(okTopo, wl)), Error) << wl;
  }
}

TEST(SpecIo, FmmbParametersAreRequiredExactlyForFmmb) {
  const std::string bmmbWithFmmb = R"({
    "name": "x", "protocol": "bmmb",
    "topologies": [{"kind": "line", "n": 8}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2,
    "fmmb": {"c": 1.5}})";
  EXPECT_THROW(runner::parseSpec(bmmbWithFmmb), Error);

  const std::string fmmbWithout = R"({
    "name": "x", "protocol": "fmmb",
    "topologies": [{"kind": "grey-field", "n": 16, "avg_degree": 6.0,
                    "c": 1.5, "p_grey": 0.4}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{"variant": "enhanced"}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2})";
  EXPECT_THROW(runner::parseSpec(fmmbWithout), Error);

  const std::string fmmbSpec = R"({
    "name": "x", "protocol": "fmmb",
    "topologies": [{"kind": "grey-field", "n": 16, "avg_degree": 6.0,
                    "c": 1.5, "p_grey": 0.4}],
    "schedulers": ["fast"], "ks": [1],
    "macs": [{"variant": "enhanced"}], "workloads": [{"kind": "random"}],
    "seed_begin": 1, "seed_end": 2,
    "fmmb": {"c": 1.5, "mode": "sequential"}})";
  const SweepSpec spec = runner::buildSweep(runner::parseSpec(fmmbSpec));
  ASSERT_NE(spec.fmmbParams, nullptr);
  const core::FmmbParams params = spec.fmmbParams(16, 3);
  EXPECT_EQ(params.mode, core::FmmbParams::Mode::kSequential);
  EXPECT_EQ(params.knownK, 3);
}

TEST(SpecIo, EveryWorkloadAndTopologyKindRoundTrips) {
  const std::string text = R"({
    "name": "kinds", "protocol": "bmmb",
    "topologies": [
      {"kind": "line", "n": 8},
      {"kind": "line-r", "n": 8, "r": 2, "edge_prob": 0.5},
      {"kind": "line-arb", "n": 8, "extra_edges": 4},
      {"kind": "grey-field", "n": 16, "avg_degree": 6.0, "c": 1.5,
       "p_grey": 0.4},
      {"kind": "network-c", "d": 3}],
    "schedulers": ["fast", "random", "slow-ack", "adversarial",
                   "adversarial+stuff", "lower-bound"],
    "ks": [1],
    "macs": [{}],
    "workloads": [
      {"kind": "all-at-node", "node": 1},
      {"kind": "round-robin"},
      {"kind": "random"},
      {"kind": "online", "interval": 8},
      {"kind": "poisson", "mean_gap": 10.0},
      {"kind": "bursty", "batch": 4, "gap": 50},
      {"kind": "staggered", "sources": 3, "interval": 20}],
    "seed_begin": 1, "seed_end": 2,
    "lower_bound_line_length": 3})";
  const std::string canonical = runner::writeSpec(runner::parseSpec(text));
  EXPECT_EQ(runner::writeSpec(runner::parseSpec(canonical)), canonical);
  const SweepSpec spec = runner::buildSweep(runner::parseSpec(text));
  EXPECT_EQ(spec.cellCount(), 5u * 6u * 1u * 1u * 7u);
}

// --- key-path errors & the execution-axis codec -----------------------------

std::string parseErrorOf(const std::string& text) {
  try {
    runner::parseSpec(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected parseSpec to throw for: " << text;
  return "";
}

std::string specWithExtra(const std::string& extra) {
  return R"({"name": "x", "protocol": "bmmb",
             "topologies": [{"kind": "line", "n": 8}],
             "schedulers": ["fast"], "ks": [1], "macs": [{}],
             "workloads": [{"kind": "round-robin"}],
             "seed_begin": 1, "seed_end": 2)" +
         extra + "}";
}

TEST(SpecIo, ErrorsNameTheFullKeyPath) {
  // A malformed entry deep in a list must be reported by its exact
  // position, not just by value — campaign files are long.
  EXPECT_NE(parseErrorOf(specWithExtra(
                R"(, "dynamics": [{"kind": "static"}, {"kind": "melt"}])"))
                .find("spec.dynamics[1].kind"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(specWithExtra(R"(, "reactions": ["none", "panic"])"))
                .find("spec.reactions[1]"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(specWithExtra(R"(, "mac": "tdma")"))
                .find("spec.mac"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(specWithExtra(R"(, "backend": "tcp")"))
                .find("spec.backend"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(R"({"name": "x", "protocol": "smtp",
      "topologies": [{"kind": "line", "n": 8}],
      "schedulers": ["fast"], "ks": [1], "macs": [{}],
      "workloads": [{"kind": "round-robin"}],
      "seed_begin": 1, "seed_end": 2})")
                .find("spec.protocol"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(R"({"name": "x", "protocol": "bmmb",
      "topologies": [{"kind": "torus", "n": 8}],
      "schedulers": ["fast"], "ks": [1], "macs": [{}],
      "workloads": [{"kind": "round-robin"}],
      "seed_begin": 1, "seed_end": 2})")
                .find("spec.topologies[0].kind"),
            std::string::npos);
  EXPECT_NE(parseErrorOf(R"({"name": "x", "protocol": "bmmb",
      "topologies": [{"kind": "line", "n": 8}],
      "schedulers": ["fast"], "ks": [1], "macs": [{}],
      "workloads": [{"kind": "round-robin"}, {"kind": "trickle"}],
      "seed_begin": 1, "seed_end": 2})")
                .find("spec.workloads[1].kind"),
            std::string::npos);
}

// Tick-valued keys are bounded by INT32_MAX: each spec below used to pass
// `ammb_sweep print` and then overflow Time inside the run.
std::string specWithAxes(const std::string& scheduler, const std::string& mac,
                         const std::string& workload,
                         const std::string& extra = "") {
  return R"({"name": "x", "protocol": "bmmb",
             "topologies": [{"kind": "line", "n": 8}],
             "schedulers": [")" + scheduler + R"("], "ks": [4],
             "macs": [)" + mac + R"(], "workloads": [)" + workload + R"(],
             "seed_begin": 1, "seed_end": 2)" + extra + "}";
}

const std::string kOkWorkload = R"({"kind": "round-robin"})";

void expectRejectedAt(const std::string& text, const std::string& path) {
  const std::string error = parseErrorOf(text);
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(SpecIo, CrashPeriodIsBounded) {
  const auto crash = [](const std::string& period) {
    return specWithAxes("fast", "{}", kOkWorkload,
                        R"(, "dynamics": [{"kind": "crash", "crashes": 3,
                           "period": )" + period + R"(, "down_for": 5}])");
  };
  expectRejectedAt(crash("4611686018427387904"), "spec.dynamics[0].period");
  EXPECT_NO_THROW(runner::parseSpec(crash("2147483647")));
}

TEST(SpecIo, GreyDriftPeriodIsBounded) {
  expectRejectedAt(
      specWithAxes("fast", "{}", kOkWorkload,
                   R"(, "dynamics": [{"kind": "grey-drift", "epochs": 3,
                      "period": 4611686018427387904, "churn": 0.5}])"),
      "spec.dynamics[0].period");
}

TEST(SpecIo, MacTicksAreBounded) {
  expectRejectedAt(specWithAxes("slow-ack", R"({"fack": 9223372036854775000})",
                                kOkWorkload),
                   "spec.macs[0].fack");
  expectRejectedAt(specWithAxes("fast", R"({"eps_abort": 2147483648})",
                                kOkWorkload),
                   "spec.macs[0].eps_abort");
  EXPECT_NO_THROW(runner::parseSpec(
      specWithAxes("slow-ack", R"({"fack": 2147483647})", kOkWorkload)));
}

TEST(SpecIo, OnlineIntervalIsBounded) {
  expectRejectedAt(
      specWithAxes("fast", "{}",
                   R"({"kind": "online", "interval": 4611686018427387904})"),
      "spec.workloads[0].interval");
}

TEST(SpecIo, BurstyGapIsBounded) {
  expectRejectedAt(
      specWithAxes("fast", "{}",
                   R"({"kind": "bursty", "batch": 2,
                      "gap": 4611686018427387904})"),
      "spec.workloads[0].gap");
}

TEST(SpecIo, LowerBoundLineLengthIsZeroOrAtLeastTwo) {
  // Network C needs lines of at least two nodes; a shorter hint used to
  // pass `print` and then fail every lower-bound run mid-sweep.
  const auto withLength = [](const std::string& length) {
    return specWithAxes("lower-bound", "{}", kOkWorkload,
                        R"(, "lower_bound_line_length": )" + length);
  };
  expectRejectedAt(withLength("-4"), "spec.lower_bound_line_length");
  expectRejectedAt(withLength("1"), "spec.lower_bound_line_length");
  EXPECT_NO_THROW(runner::parseSpec(withLength("0")));
  EXPECT_NO_THROW(runner::parseSpec(withLength("2")));
}

TEST(SpecIo, BackendAxisRoundTripsAndFingerprints) {
  const SpecDoc simDoc = runner::parseSpec(kMinimalSpec);
  EXPECT_TRUE(simDoc.backend.sim());
  // Omitted key -> sim -> not serialized: the canonical form (and hence
  // every pre-existing spec fingerprint) is unchanged.
  EXPECT_EQ(runner::writeSpec(simDoc).find("\"backend\":"),
            std::string::npos);

  const std::string netText = specWithExtra(
      R"(, "backend": "net:19000,0.1,200,3,0,0")");
  const SpecDoc netDoc = runner::parseSpec(netText);
  EXPECT_EQ(netDoc.backend.label(), "net:19000,0.1,200,3,0,0");
  const std::string written = runner::writeSpec(netDoc);
  EXPECT_NE(written.find("\"backend\": \"net:19000,0.1,200,3,0,0\""),
            std::string::npos);
  EXPECT_EQ(runner::parseSpec(written).backend, netDoc.backend);
  // The backend changes results, so it must change the fingerprint.
  EXPECT_NE(runner::specFingerprint(runner::parseSpec(specWithExtra(""))),
            runner::specFingerprint(netDoc));
  EXPECT_EQ(runner::buildSweep(netDoc).backend, netDoc.backend);
}

TEST(SpecIo, NetBackendRequiresStaticAbstractSweep) {
  EXPECT_NO_THROW(runner::buildSweep(
      runner::parseSpec(specWithExtra(R"(, "backend": "net")"))));
  // A real network cannot re-wire itself per epoch...
  EXPECT_THROW(runner::buildSweep(runner::parseSpec(specWithExtra(
                   R"(, "backend": "net",
                       "dynamics": [{"kind": "crash", "crashes": 1,
                                     "period": 64, "down_for": 24}])"))),
               Error);
  // ...and already realizes the MAC layer itself.
  EXPECT_THROW(runner::buildSweep(runner::parseSpec(specWithExtra(
                   R"(, "backend": "net", "mac": "csma")"))),
               Error);
}

TEST(SpecIo, AxisOverridesApplyThroughTheCodecTable) {
  SpecDoc doc = runner::parseSpec(kMinimalSpec);
  runner::applyAxisOverride(doc, runner::axisCodec("backend"),
                            "net:19000,0.1,200,3,0,0");
  EXPECT_EQ(doc.backend.label(), "net:19000,0.1,200,3,0,0");
  runner::applyAxisOverride(doc, runner::axisCodec("reaction"),
                            "retransmit,retransmit+remis");
  ASSERT_EQ(doc.reactions.size(), 2u);
  EXPECT_EQ(doc.reactions[1].label(), "retransmit+remis");
  // Errors name the CLI flag the bad value arrived through.
  try {
    runner::applyAxisOverride(doc, runner::axisCodec("backend"), "tcp");
    FAIL() << "expected an override error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--backend"), std::string::npos);
  }
}

TEST(SpecIo, RecordJsonCarriesBackendOnlyWhenNonDefault) {
  runner::RunRecord record;
  record.backend = "net:19000,0.25,200,5,0,0";
  const runner::RunRecord back =
      runner::recordFromJson(runner::recordToJson(record), "record");
  EXPECT_EQ(back.backend, record.backend);

  // Sim records keep their pre-backend serialization: no "backend" key.
  // Nor does any record carry the removed "kernel" key.
  std::ostringstream dumped;
  runner::json::dump(runner::recordToJson(runner::RunRecord{}), dumped);
  EXPECT_EQ(dumped.str().find("\"backend\""), std::string::npos);
  EXPECT_EQ(dumped.str().find("\"kernel\""), std::string::npos);
}

TEST(SpecIo, RemovedKernelKeyIsAnUnknownField) {
  // The intra-run kernel axis is gone: a spec naming it, even at the
  // old default, fails like any other typoed key instead of being
  // silently dropped from the campaign.
  EXPECT_EQ(parseErrorOf(specWithExtra(R"(, "kernel": "serial")")),
            "spec has unknown field \"kernel\"");
  EXPECT_THROW(runner::axisCodec("kernel"), Error);
}

TEST(SpecIo, AxisTableHoldsTheFourExecutionAxes) {
  // The table documented in axis_codec.h, row by row.
  struct Row {
    const char* axis;
    const char* specKey;
    const char* cliFlag;
    const char* recordKey;
    const char* defaultLabel;
    bool resultBearing;
    bool multi;
  };
  const Row rows[] = {
      {"mac", "mac", "--mac", "mac_realization", "abstract", true, false},
      {"reaction", "reactions", "--reaction", nullptr, "none", true, true},
      {"backend", "backend", "--backend", "backend", "sim", true, false},
      {"trace", "trace_mode", "--trace-mode", "trace_mode", "mem", false,
       false},
  };
  const auto str = [](const char* s) {
    return s == nullptr ? std::string("(none)") : std::string(s);
  };
  const auto& table = runner::axisCodecs();
  ASSERT_EQ(table.size(), std::size(rows));
  const SpecDoc doc = runner::parseSpec(kMinimalSpec);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const runner::AxisCodec& codec = table[i];
    SCOPED_TRACE(rows[i].axis);
    EXPECT_EQ(str(codec.axis), str(rows[i].axis));
    EXPECT_EQ(str(codec.specKey), str(rows[i].specKey));
    EXPECT_EQ(str(codec.cliFlag), str(rows[i].cliFlag));
    EXPECT_EQ(str(codec.recordKey), str(rows[i].recordKey));
    EXPECT_EQ(str(codec.defaultLabel), str(rows[i].defaultLabel));
    EXPECT_EQ(codec.resultBearing, rows[i].resultBearing);
    EXPECT_EQ(codec.multi, rows[i].multi);
    EXPECT_EQ(codec.recordField == nullptr, codec.recordKey == nullptr);
    EXPECT_EQ(&runner::axisCodec(codec.axis), &codec);
    // A spec that omits the axis holds exactly the default label, which
    // is what the canonical writer elides.
    EXPECT_EQ(codec.get(doc), std::vector<std::string>{codec.defaultLabel});
  }
}

TEST(SpecIo, RecordAxesElideAtTheDefaultAndKeepTableOrder) {
  json::Object defaults;
  runner::emitRecordAxes(defaults, runner::RunRecord{});
  EXPECT_TRUE(defaults.empty());

  runner::RunRecord record;
  record.realization = "csma:2,4,32,5,0.25";
  record.backend = "net:19000,0.1,200,3,0,0";
  record.traceMode = "spool:64";
  json::Object o;
  runner::emitRecordAxes(o, record);
  std::vector<std::string> keys;
  for (const json::Member& m : o) keys.push_back(m.first);
  EXPECT_EQ(keys, (std::vector<std::string>{"mac_realization", "backend",
                                            "trace_mode"}));

  runner::RunRecord back;
  runner::parseRecordAxes(back, json::Value(o), "record");
  EXPECT_EQ(back.realization, record.realization);
  EXPECT_EQ(back.backend, record.backend);
  EXPECT_EQ(back.traceMode, record.traceMode);

  // Absent keys leave the defaults in place.
  runner::RunRecord untouched;
  runner::parseRecordAxes(untouched, json::Value(json::Object{}), "record");
  EXPECT_EQ(untouched.realization, "abstract");
  EXPECT_EQ(untouched.backend, "sim");
  EXPECT_EQ(untouched.traceMode, "mem");
}

#ifdef AMMB_SWEEPS_DIR
TEST(SpecIo, CheckedInCampaignSpecsAreValid) {
  for (const char* name :
       {"ci_smoke", "fig1_standard", "fig2_lowerbound", "online_arrivals"}) {
    const std::string path =
        std::string(AMMB_SWEEPS_DIR) + "/" + name + ".json";
    SCOPED_TRACE(path);
    const SpecDoc doc = runner::loadSpecFile(path);
    const SweepSpec spec = runner::buildSweep(doc);
    EXPECT_GE(spec.runCount(), 1u);
    // The canonical writer must accept its own output.
    EXPECT_EQ(runner::writeSpec(runner::parseSpec(runner::writeSpec(doc))),
              runner::writeSpec(doc));
  }
}

TEST(SpecIo, CommittedSpecFingerprintsArePinned) {
  // Shard outputs and journals embed these fingerprints, so a change to
  // the canonical writer that moved any of them would orphan every
  // stored shard and journal of that campaign.
  const std::pair<const char*, const char*> pins[] = {
      {"ablation_unreliability", "9bb1257ea3f134c8"},
      {"churn_grid", "18102a79b1d378b4"},
      {"churn_react_grid", "ad619e92f1863e2c"},
      {"ci_smoke", "930adff7ffd8b41b"},
      {"csma_grid", "4967998d44feb630"},
      {"fig1_enhanced", "11e0499bafbf73e2"},
      {"fig1_standard", "49e42da1fc2fe476"},
      {"fig2_lines", "dabf8882126ef454"},
      {"fig2_lowerbound", "980206e421ca2a54"},
      {"online_arrivals", "156ca26c4f790050"},
  };
  for (const auto& [name, fingerprint] : pins) {
    const std::string path =
        std::string(AMMB_SWEEPS_DIR) + "/" + name + ".json";
    EXPECT_EQ(runner::specFingerprint(runner::loadSpecFile(path)), fingerprint)
        << path;
  }
}
#endif

// --- compare ----------------------------------------------------------------

TEST(Compare, ExactMatchByDefault) {
  const json::Value a = json::parse(R"({"cells": [{"k": 1, "mean": 2.5}]})");
  const json::Value b = json::parse(R"({"cells": [{"k": 1, "mean": 2.5}]})");
  EXPECT_TRUE(runner::compareResults(a, b).empty());

  const json::Value c = json::parse(R"({"cells": [{"k": 1, "mean": 2.6}]})");
  const auto differences = runner::compareResults(a, c);
  ASSERT_EQ(differences.size(), 1u);
  EXPECT_EQ(differences[0].path, "cells[0].mean");
}

TEST(Compare, KeyOrderDoesNotMatter) {
  const json::Value a = json::parse(R"({"x": 1, "y": 2})");
  const json::Value b = json::parse(R"({"y": 2, "x": 1})");
  EXPECT_TRUE(runner::compareResults(a, b).empty());
}

TEST(Compare, ToleranceAdmitsSmallDrift) {
  const json::Value a = json::parse(R"({"mean": 100.0})");
  const json::Value b = json::parse(R"({"mean": 100.5})");
  EXPECT_FALSE(runner::compareResults(a, b).empty());
  CompareOptions rel;
  rel.relTol = 0.01;
  EXPECT_TRUE(runner::compareResults(a, b, rel).empty());
  CompareOptions abs;
  abs.absTol = 0.5;
  EXPECT_TRUE(runner::compareResults(a, b, abs).empty());
}

TEST(Compare, ReportsMissingAndExtraMembers) {
  const json::Value a = json::parse(R"({"x": 1, "gone": 2})");
  const json::Value b = json::parse(R"({"x": 1, "added": 3})");
  const auto differences = runner::compareResults(a, b);
  EXPECT_EQ(differences.size(), 2u);
}

TEST(Compare, ArrayLengthMismatchIsOneDifference) {
  const json::Value a = json::parse(R"({"cells": [1, 2, 3]})");
  const json::Value b = json::parse(R"({"cells": [1, 2]})");
  EXPECT_EQ(runner::compareResults(a, b).size(), 1u);
}

}  // namespace
}  // namespace ammb
