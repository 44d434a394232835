#include "runner/spec_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "runner/axis_codec.h"

namespace ammb::runner {

namespace {

using json::Array;
using json::Member;
using json::Object;
using json::Value;

// --- enum spellings ---------------------------------------------------------

struct TopologyKindName {
  TopologyDoc::Kind kind;
  const char* name;
};
constexpr TopologyKindName kTopologyKinds[] = {
    {TopologyDoc::Kind::kLine, "line"},
    {TopologyDoc::Kind::kLineR, "line-r"},
    {TopologyDoc::Kind::kLineArb, "line-arb"},
    {TopologyDoc::Kind::kGreyField, "grey-field"},
    {TopologyDoc::Kind::kNetworkC, "network-c"},
};

struct WorkloadKindName {
  WorkloadDoc::Kind kind;
  const char* name;
};
constexpr WorkloadKindName kWorkloadKinds[] = {
    {WorkloadDoc::Kind::kAllAtNode, "all-at-node"},
    {WorkloadDoc::Kind::kRoundRobin, "round-robin"},
    {WorkloadDoc::Kind::kSpread, "spread"},
    {WorkloadDoc::Kind::kRandom, "random"},
    {WorkloadDoc::Kind::kOnline, "online"},
    {WorkloadDoc::Kind::kPoisson, "poisson"},
    {WorkloadDoc::Kind::kBursty, "bursty"},
    {WorkloadDoc::Kind::kStaggered, "staggered"},
};

constexpr core::SchedulerKind kAllSchedulers[] = {
    core::SchedulerKind::kFast,
    core::SchedulerKind::kRandom,
    core::SchedulerKind::kSlowAck,
    core::SchedulerKind::kAdversarial,
    core::SchedulerKind::kAdversarialStuffing,
    core::SchedulerKind::kLowerBound,
};

TopologyDoc::Kind topologyKindFromString(const std::string& name,
                                          const std::string& context) {
  for (const auto& entry : kTopologyKinds) {
    if (name == entry.name) return entry.kind;
  }
  throw Error(context + ": unknown topology kind \"" + name +
              "\" (expected line, line-r, line-arb, grey-field, network-c)");
}

WorkloadDoc::Kind workloadKindFromString(const std::string& name,
                                          const std::string& context) {
  for (const auto& entry : kWorkloadKinds) {
    if (name == entry.name) return entry.kind;
  }
  throw Error(
      context + ": unknown workload kind \"" + name +
      "\" (expected all-at-node, round-robin, spread, random, online, "
      "poisson, bursty, staggered)");
}

core::ProtocolKind protocolFromString(const std::string& name,
                                      const std::string& context) {
  if (name == "bmmb") return core::ProtocolKind::kBmmb;
  if (name == "fmmb") return core::ProtocolKind::kFmmb;
  throw Error(context + ": unknown protocol \"" + name +
              "\" (expected bmmb or fmmb)");
}

mac::ModelVariant variantFromString(const std::string& name,
                                    const std::string& context) {
  if (name == "standard") return mac::ModelVariant::kStandard;
  if (name == "enhanced") return mac::ModelVariant::kEnhanced;
  throw Error(context + ": unknown MAC variant \"" + name +
              "\" (expected standard or enhanced)");
}

std::string toString(mac::ModelVariant variant) {
  return variant == mac::ModelVariant::kEnhanced ? "enhanced" : "standard";
}

core::FmmbParams::Mode fmmbModeFromString(const std::string& name,
                                          const std::string& context) {
  if (name == "interleaved") return core::FmmbParams::Mode::kInterleaved;
  if (name == "sequential") return core::FmmbParams::Mode::kSequential;
  throw Error(context + ": unknown fmmb mode \"" + name +
              "\" (expected interleaved or sequential)");
}

std::string toString(core::FmmbParams::Mode mode) {
  return mode == core::FmmbParams::Mode::kSequential ? "sequential"
                                                     : "interleaved";
}

// --- field reader -----------------------------------------------------------

/// Object accessor that remembers which keys were consumed, so unknown
/// (typoed) keys fail loudly instead of silently dropping an axis.
class Fields {
 public:
  Fields(const Value& value, std::string context)
      : context_(std::move(context)),
        members_(value.asObject(context_)),
        used_(members_.size(), false) {}

  const Value* find(const std::string& key) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i].first == key) {
        used_[i] = true;
        return &members_[i].second;
      }
    }
    return nullptr;
  }

  const Value& require(const std::string& key) {
    const Value* v = find(key);
    if (v == nullptr) {
      throw Error(context_ + " is missing required field \"" + key + "\"");
    }
    return *v;
  }

  std::string path(const std::string& key) const {
    return context_ + "." + key;
  }

  std::int64_t requireInt(const std::string& key) {
    return require(key).asInt(path(key));
  }
  double requireDouble(const std::string& key) {
    return require(key).asDouble(path(key));
  }
  std::string requireString(const std::string& key) {
    return require(key).asString(path(key));
  }

  std::int64_t optInt(const std::string& key, std::int64_t fallback) {
    const Value* v = find(key);
    return v == nullptr ? fallback : v->asInt(path(key));
  }
  bool optBool(const std::string& key, bool fallback) {
    const Value* v = find(key);
    return v == nullptr ? fallback : v->asBool(path(key));
  }
  double optDouble(const std::string& key, double fallback) {
    const Value* v = find(key);
    return v == nullptr ? fallback : v->asDouble(path(key));
  }
  std::string optString(const std::string& key, const std::string& fallback) {
    const Value* v = find(key);
    return v == nullptr ? fallback : v->asString(path(key));
  }

  /// Call after reading every known field.
  void rejectUnknown() const {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (!used_[i]) {
        throw Error(context_ + " has unknown field \"" + members_[i].first +
                    "\"");
      }
    }
  }

 private:
  std::string context_;
  const Object& members_;
  std::vector<bool> used_;
};

int toIntField(std::int64_t v, const std::string& context) {
  AMMB_REQUIRE(v >= INT32_MIN && v <= INT32_MAX,
               context + " out of 32-bit range");
  return static_cast<int>(v);
}

void requirePositive(std::int64_t v, const std::string& context) {
  AMMB_REQUIRE(v >= 1, context + " must be at least 1");
}

void requireNonNegative(std::int64_t v, const std::string& context) {
  AMMB_REQUIRE(v >= 0, context + " must be non-negative");
}

void requireProbability(double v, const std::string& context) {
  AMMB_REQUIRE(v >= 0.0 && v <= 1.0, context + " must be in [0, 1]");
}

// --- per-section parsers ----------------------------------------------------

TopologyDoc parseTopology(const Value& value, const std::string& context) {
  Fields f(value, context);
  TopologyDoc doc;
  doc.kind = topologyKindFromString(f.requireString("kind"), f.path("kind"));
  // Range checks are eager so a typoed committed spec fails at
  // `ammb_sweep print` / spec-validation time, not per-run mid-sweep.
  switch (doc.kind) {
    case TopologyDoc::Kind::kLine:
      doc.n = toIntField(f.requireInt("n"), f.path("n"));
      requirePositive(doc.n, f.path("n"));
      break;
    case TopologyDoc::Kind::kLineR:
      doc.n = toIntField(f.requireInt("n"), f.path("n"));
      requirePositive(doc.n, f.path("n"));
      doc.r = toIntField(f.requireInt("r"), f.path("r"));
      requirePositive(doc.r, f.path("r"));
      doc.edgeProb = f.requireDouble("edge_prob");
      requireProbability(doc.edgeProb, f.path("edge_prob"));
      break;
    case TopologyDoc::Kind::kLineArb:
      doc.n = toIntField(f.requireInt("n"), f.path("n"));
      requirePositive(doc.n, f.path("n"));
      doc.extraEdges = f.requireInt("extra_edges");
      requireNonNegative(doc.extraEdges, f.path("extra_edges"));
      break;
    case TopologyDoc::Kind::kGreyField:
      doc.n = toIntField(f.requireInt("n"), f.path("n"));
      requirePositive(doc.n, f.path("n"));
      doc.avgDegree = f.requireDouble("avg_degree");
      AMMB_REQUIRE(doc.avgDegree > 0.0,
                   f.path("avg_degree") + " must be positive");
      doc.c = f.requireDouble("c");
      AMMB_REQUIRE(doc.c >= 1.0, f.path("c") + " must be >= 1");
      doc.pGrey = f.requireDouble("p_grey");
      requireProbability(doc.pGrey, f.path("p_grey"));
      break;
    case TopologyDoc::Kind::kNetworkC:
      doc.d = toIntField(f.requireInt("d"), f.path("d"));
      requirePositive(doc.d, f.path("d"));
      break;
  }
  f.rejectUnknown();
  return doc;
}

WorkloadDoc parseWorkload(const Value& value, const std::string& context) {
  Fields f(value, context);
  WorkloadDoc doc;
  doc.kind = workloadKindFromString(f.requireString("kind"), f.path("kind"));
  switch (doc.kind) {
    case WorkloadDoc::Kind::kAllAtNode:
      doc.node = toIntField(f.optInt("node", 0), f.path("node"));
      requireNonNegative(doc.node, f.path("node"));
      break;
    case WorkloadDoc::Kind::kRoundRobin:
    case WorkloadDoc::Kind::kSpread:
    case WorkloadDoc::Kind::kRandom:
      break;
    case WorkloadDoc::Kind::kOnline:
      doc.interval = f.requireInt("interval");
      requireNonNegative(doc.interval, f.path("interval"));
      break;
    case WorkloadDoc::Kind::kPoisson:
      doc.meanGap = f.requireDouble("mean_gap");
      AMMB_REQUIRE(doc.meanGap > 0.0, f.path("mean_gap") +
                                          " must be positive");
      break;
    case WorkloadDoc::Kind::kBursty:
      doc.batch = toIntField(f.requireInt("batch"), f.path("batch"));
      requirePositive(doc.batch, f.path("batch"));
      doc.gap = f.requireInt("gap");
      requireNonNegative(doc.gap, f.path("gap"));
      break;
    case WorkloadDoc::Kind::kStaggered:
      doc.sources = toIntField(f.requireInt("sources"), f.path("sources"));
      requirePositive(doc.sources, f.path("sources"));
      doc.interval = f.requireInt("interval");
      requireNonNegative(doc.interval, f.path("interval"));
      break;
  }
  f.rejectUnknown();
  return doc;
}

MacDoc parseMac(const Value& value, const std::string& context) {
  Fields f(value, context);
  MacDoc doc;
  doc.params.fack = f.optInt("fack", doc.params.fack);
  doc.params.fprog = f.optInt("fprog", doc.params.fprog);
  doc.params.epsAbort = f.optInt("eps_abort", doc.params.epsAbort);
  doc.params.msgCapacity = toIntField(
      f.optInt("msg_capacity", doc.params.msgCapacity), f.path("msg_capacity"));
  doc.params.variant =
      variantFromString(f.optString("variant", "standard"), f.path("variant"));
  doc.name = f.optString("name", "f" + std::to_string(doc.params.fprog) + "a" +
                                     std::to_string(doc.params.fack));
  AMMB_REQUIRE(!doc.name.empty(), context + ".name must be non-empty");
  f.rejectUnknown();
  doc.params.validate();
  return doc;
}

core::DynamicsSpec::Kind dynamicsKindFromString(const std::string& name,
                                                const std::string& context) {
  if (name == "static") return core::DynamicsSpec::Kind::kStatic;
  if (name == "crash") return core::DynamicsSpec::Kind::kCrash;
  if (name == "grey-drift") return core::DynamicsSpec::Kind::kGreyDrift;
  throw Error(context + ": unknown dynamics kind \"" + name +
              "\" (expected static, crash, grey-drift)");
}

std::string toString(core::DynamicsSpec::Kind kind) {
  switch (kind) {
    case core::DynamicsSpec::Kind::kStatic: return "static";
    case core::DynamicsSpec::Kind::kCrash: return "crash";
    case core::DynamicsSpec::Kind::kGreyDrift: return "grey-drift";
  }
  return "?";
}

DynamicsDoc parseDynamics(const Value& value, const std::string& context) {
  Fields f(value, context);
  DynamicsDoc doc;
  doc.spec.kind =
      dynamicsKindFromString(f.requireString("kind"), f.path("kind"));
  switch (doc.spec.kind) {
    case core::DynamicsSpec::Kind::kStatic:
      break;
    case core::DynamicsSpec::Kind::kCrash:
      doc.spec.crashes =
          toIntField(f.requireInt("crashes"), f.path("crashes"));
      requirePositive(doc.spec.crashes, f.path("crashes"));
      doc.spec.period = f.requireInt("period");
      requirePositive(doc.spec.period, f.path("period"));
      doc.spec.downFor = f.requireInt("down_for");
      AMMB_REQUIRE(doc.spec.downFor >= 1 &&
                       doc.spec.downFor < doc.spec.period,
                   f.path("down_for") + " must satisfy 0 < down_for < period");
      break;
    case core::DynamicsSpec::Kind::kGreyDrift:
      doc.spec.epochs = toIntField(f.requireInt("epochs"), f.path("epochs"));
      requirePositive(doc.spec.epochs, f.path("epochs"));
      doc.spec.period = f.requireInt("period");
      requirePositive(doc.spec.period, f.path("period"));
      doc.spec.churn = f.requireDouble("churn");
      requireProbability(doc.spec.churn, f.path("churn"));
      break;
  }
  doc.name = f.optString("name", doc.spec.label());
  AMMB_REQUIRE(!doc.name.empty(), context + ".name must be non-empty");
  f.rejectUnknown();
  return doc;
}

FmmbDoc parseFmmb(const Value& value, const std::string& context) {
  Fields f(value, context);
  FmmbDoc doc;
  doc.c = f.optDouble("c", doc.c);
  doc.mode =
      fmmbModeFromString(f.optString("mode", "interleaved"), f.path("mode"));
  doc.strictPaperPhases = f.optBool("strict_paper_phases", false);
  f.rejectUnknown();
  AMMB_REQUIRE(doc.c >= 1.0, context + ".c must be >= 1");
  return doc;
}

}  // namespace

// --- public enum spellings --------------------------------------------------

std::string toString(TopologyDoc::Kind kind) {
  for (const auto& entry : kTopologyKinds) {
    if (kind == entry.kind) return entry.name;
  }
  return "?";
}

std::string toString(WorkloadDoc::Kind kind) {
  for (const auto& entry : kWorkloadKinds) {
    if (kind == entry.kind) return entry.name;
  }
  return "?";
}

core::SchedulerKind schedulerFromString(const std::string& name) {
  for (core::SchedulerKind kind : kAllSchedulers) {
    if (name == core::toString(kind)) return kind;
  }
  throw Error(
      "unknown scheduler \"" + name +
      "\" (expected fast, random, slow-ack, adversarial, adversarial+stuff, "
      "lower-bound)");
}

CheckMode checkModeFromString(const std::string& name) {
  for (CheckMode mode : {CheckMode::kOff, CheckMode::kMac, CheckMode::kFull}) {
    if (name == toString(mode)) return mode;
  }
  throw Error("unknown check mode \"" + name +
              "\" (expected off, mac, full)");
}

std::string toString(core::QueueDiscipline discipline) {
  switch (discipline) {
    case core::QueueDiscipline::kFifo: return "fifo";
    case core::QueueDiscipline::kLifo: return "lifo";
    case core::QueueDiscipline::kRandom: return "random";
  }
  return "?";
}

core::QueueDiscipline disciplineFromString(const std::string& name) {
  for (core::QueueDiscipline d :
       {core::QueueDiscipline::kFifo, core::QueueDiscipline::kLifo,
        core::QueueDiscipline::kRandom}) {
    if (name == toString(d)) return d;
  }
  throw Error("unknown queue discipline \"" + name +
              "\" (expected fifo, lifo, random)");
}

// --- parse ------------------------------------------------------------------

SpecDoc parseSpec(const std::string& jsonText) {
  const Value root = json::parse(jsonText);
  Fields f(root, "spec");
  SpecDoc doc;
  doc.name = f.requireString("name");
  AMMB_REQUIRE(!doc.name.empty(), "spec.name must be non-empty");
  doc.protocol =
      protocolFromString(f.requireString("protocol"), f.path("protocol"));

  const Array& topologies = f.require("topologies").asArray("spec.topologies");
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    doc.topologies.push_back(parseTopology(
        topologies[i], "spec.topologies[" + std::to_string(i) + "]"));
  }
  const Array& schedulers = f.require("schedulers").asArray("spec.schedulers");
  for (std::size_t i = 0; i < schedulers.size(); ++i) {
    doc.schedulers.push_back(schedulerFromString(schedulers[i].asString(
        "spec.schedulers[" + std::to_string(i) + "]")));
  }
  const Array& ks = f.require("ks").asArray("spec.ks");
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const std::string context = "spec.ks[" + std::to_string(i) + "]";
    doc.ks.push_back(toIntField(ks[i].asInt(context), context));
  }
  const Array& macs = f.require("macs").asArray("spec.macs");
  for (std::size_t i = 0; i < macs.size(); ++i) {
    doc.macs.push_back(
        parseMac(macs[i], "spec.macs[" + std::to_string(i) + "]"));
  }
  const Array& workloads = f.require("workloads").asArray("spec.workloads");
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    doc.workloads.push_back(parseWorkload(
        workloads[i], "spec.workloads[" + std::to_string(i) + "]"));
  }
  if (const Value* dynamics = f.find("dynamics"); dynamics != nullptr) {
    doc.dynamics.clear();
    const Array& entries = dynamics->asArray("spec.dynamics");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      doc.dynamics.push_back(parseDynamics(
          entries[i], "spec.dynamics[" + std::to_string(i) + "]"));
    }
    AMMB_REQUIRE(!doc.dynamics.empty(),
                 "spec.dynamics must not be an empty array");
  }
  // The tagged-label execution axes (mac / reactions / backend /
  // trace_mode) all parse through the axis table: one optional key
  // each, defaulting, with errors naming the full key path.
  for (const AxisCodec& codec : axisCodecs()) {
    if (codec.multi) {
      const Value* entriesValue = f.find(codec.specKey);
      if (entriesValue == nullptr) continue;
      const Array& entries = entriesValue->asArray(f.path(codec.specKey));
      AMMB_REQUIRE(!entries.empty(), f.path(codec.specKey) +
                                         " must not be an empty array");
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::string context =
            f.path(codec.specKey) + "[" + std::to_string(i) + "]";
        const std::string label = entries[i].asString(context);
        try {
          codec.parseInto(doc, label, i == 0);
        } catch (const std::exception& e) {
          throw Error(context + ": " + e.what());
        }
      }
      continue;
    }
    const std::string label = f.optString(codec.specKey, codec.defaultLabel);
    try {
      codec.parseInto(doc, label, true);
    } catch (const std::exception& e) {
      throw Error(f.path(codec.specKey) + ": " + e.what());
    }
  }

  const std::int64_t seedBegin = f.requireInt("seed_begin");
  const std::int64_t seedEnd = f.requireInt("seed_end");
  AMMB_REQUIRE(seedBegin >= 0 && seedEnd >= 0,
               "spec seed range must be non-negative");
  doc.seedBegin = static_cast<std::uint64_t>(seedBegin);
  doc.seedEnd = static_cast<std::uint64_t>(seedEnd);

  doc.stopOnSolve = f.optBool("stop_on_solve", true);
  doc.recordTrace = f.optBool("record_trace", false);
  doc.check = checkModeFromString(f.optString("check", "off"));
  if (const Value* maxTime = f.find("max_time");
      maxTime != nullptr && !maxTime->isNull()) {
    doc.maxTime = maxTime->asInt("spec.max_time");
    AMMB_REQUIRE(doc.maxTime >= 0, "spec.max_time must be non-negative");
  }
  const std::int64_t maxEvents =
      f.optInt("max_events", static_cast<std::int64_t>(doc.maxEvents));
  AMMB_REQUIRE(maxEvents >= 1, "spec.max_events must be at least 1");
  doc.maxEvents = static_cast<std::uint64_t>(maxEvents);
  doc.discipline = disciplineFromString(f.optString("discipline", "fifo"));
  doc.lowerBoundLineLength =
      toIntField(f.optInt("lower_bound_line_length", 0),
                 "spec.lower_bound_line_length");
  if (const Value* fmmb = f.find("fmmb"); fmmb != nullptr) {
    doc.hasFmmb = true;
    doc.fmmb = parseFmmb(*fmmb, "spec.fmmb");
  }
  f.rejectUnknown();

  if (doc.protocol == core::ProtocolKind::kFmmb) {
    AMMB_REQUIRE(doc.hasFmmb, "fmmb sweeps need a \"fmmb\" parameter object");
  } else {
    AMMB_REQUIRE(!doc.hasFmmb,
                 "\"fmmb\" is set but the sweep protocol is bmmb — the "
                 "parameters would be silently ignored");
  }
  return doc;
}

SpecDoc loadSpecFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AMMB_REQUIRE(in.good(), "cannot open spec file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parseSpec(buffer.str());
  } catch (const std::exception& e) {
    throw Error(path + ": " + e.what());
  }
}

// --- canonical writer -------------------------------------------------------

std::string writeSpec(const SpecDoc& doc) {
  Object root;
  root.emplace_back("name", doc.name);
  root.emplace_back("protocol", core::toString(doc.protocol));

  Array topologies;
  for (const TopologyDoc& t : doc.topologies) {
    Object o;
    o.emplace_back("kind", toString(t.kind));
    switch (t.kind) {
      case TopologyDoc::Kind::kLine:
        o.emplace_back("n", static_cast<std::int64_t>(t.n));
        break;
      case TopologyDoc::Kind::kLineR:
        o.emplace_back("n", static_cast<std::int64_t>(t.n));
        o.emplace_back("r", t.r);
        o.emplace_back("edge_prob", t.edgeProb);
        break;
      case TopologyDoc::Kind::kLineArb:
        o.emplace_back("n", static_cast<std::int64_t>(t.n));
        o.emplace_back("extra_edges", t.extraEdges);
        break;
      case TopologyDoc::Kind::kGreyField:
        o.emplace_back("n", static_cast<std::int64_t>(t.n));
        o.emplace_back("avg_degree", t.avgDegree);
        o.emplace_back("c", t.c);
        o.emplace_back("p_grey", t.pGrey);
        break;
      case TopologyDoc::Kind::kNetworkC:
        o.emplace_back("d", t.d);
        break;
    }
    topologies.emplace_back(std::move(o));
  }
  root.emplace_back("topologies", std::move(topologies));

  Array schedulers;
  for (core::SchedulerKind s : doc.schedulers) {
    schedulers.emplace_back(core::toString(s));
  }
  root.emplace_back("schedulers", std::move(schedulers));

  Array ks;
  for (int k : doc.ks) ks.emplace_back(k);
  root.emplace_back("ks", std::move(ks));

  Array macs;
  for (const MacDoc& m : doc.macs) {
    Object o;
    o.emplace_back("name", m.name);
    o.emplace_back("fack", m.params.fack);
    o.emplace_back("fprog", m.params.fprog);
    o.emplace_back("eps_abort", m.params.epsAbort);
    o.emplace_back("msg_capacity", m.params.msgCapacity);
    o.emplace_back("variant", toString(m.params.variant));
    macs.emplace_back(std::move(o));
  }
  root.emplace_back("macs", std::move(macs));

  Array workloads;
  for (const WorkloadDoc& w : doc.workloads) {
    Object o;
    o.emplace_back("kind", toString(w.kind));
    switch (w.kind) {
      case WorkloadDoc::Kind::kAllAtNode:
        o.emplace_back("node", static_cast<std::int64_t>(w.node));
        break;
      case WorkloadDoc::Kind::kRoundRobin:
      case WorkloadDoc::Kind::kSpread:
      case WorkloadDoc::Kind::kRandom:
        break;
      case WorkloadDoc::Kind::kOnline:
        o.emplace_back("interval", w.interval);
        break;
      case WorkloadDoc::Kind::kPoisson:
        o.emplace_back("mean_gap", w.meanGap);
        break;
      case WorkloadDoc::Kind::kBursty:
        o.emplace_back("batch", w.batch);
        o.emplace_back("gap", w.gap);
        break;
      case WorkloadDoc::Kind::kStaggered:
        o.emplace_back("sources", w.sources);
        o.emplace_back("interval", w.interval);
        break;
    }
    workloads.emplace_back(std::move(o));
  }
  root.emplace_back("workloads", std::move(workloads));

  Array dynamics;
  for (const DynamicsDoc& d : doc.dynamics) {
    Object o;
    o.emplace_back("kind", toString(d.spec.kind));
    switch (d.spec.kind) {
      case core::DynamicsSpec::Kind::kStatic:
        break;
      case core::DynamicsSpec::Kind::kCrash:
        o.emplace_back("crashes", d.spec.crashes);
        o.emplace_back("period", d.spec.period);
        o.emplace_back("down_for", d.spec.downFor);
        break;
      case core::DynamicsSpec::Kind::kGreyDrift:
        o.emplace_back("epochs", d.spec.epochs);
        o.emplace_back("period", d.spec.period);
        o.emplace_back("churn", d.spec.churn);
        break;
    }
    o.emplace_back("name", d.name);
    dynamics.emplace_back(std::move(o));
  }
  root.emplace_back("dynamics", std::move(dynamics));

  // The reaction axis is emitted only when non-default, so every
  // pre-existing spec's canonical form (and fingerprint) is unchanged;
  // a reactive axis changes results, so when present it is part of
  // the fingerprint like "mac".
  emitSpecAxis(root, doc, axisCodec("reaction"));

  root.emplace_back("seed_begin", static_cast<std::int64_t>(doc.seedBegin));
  root.emplace_back("seed_end", static_cast<std::int64_t>(doc.seedEnd));
  root.emplace_back("stop_on_solve", doc.stopOnSolve);
  root.emplace_back("record_trace", doc.recordTrace);
  root.emplace_back("check", toString(doc.check));
  root.emplace_back("max_time", doc.maxTime == kTimeNever
                                    ? Value(nullptr)
                                    : Value(doc.maxTime));
  root.emplace_back("max_events", static_cast<std::int64_t>(doc.maxEvents));
  root.emplace_back("discipline", toString(doc.discipline));
  root.emplace_back("lower_bound_line_length", doc.lowerBoundLineLength);
  // Emitted only when non-default, so every existing spec's canonical
  // serialization (and fingerprint) is stable.  "mac" and "backend"
  // change results, so when present they *are* part of the
  // fingerprint.
  emitSpecAxis(root, doc, axisCodec("mac"));
  emitSpecAxis(root, doc, axisCodec("backend"));
  emitSpecAxis(root, doc, axisCodec("trace"));
  if (doc.hasFmmb) {
    Object fmmb;
    fmmb.emplace_back("c", doc.fmmb.c);
    fmmb.emplace_back("mode", toString(doc.fmmb.mode));
    fmmb.emplace_back("strict_paper_phases", doc.fmmb.strictPaperPhases);
    root.emplace_back("fmmb", std::move(fmmb));
  }
  return json::dump(Value(std::move(root)), 2);
}

// --- builder ----------------------------------------------------------------

SweepSpec buildSweep(const SpecDoc& doc) {
  SweepSpec spec;
  spec.name = doc.name;
  spec.protocol = doc.protocol;
  for (const TopologyDoc& t : doc.topologies) {
    switch (t.kind) {
      case TopologyDoc::Kind::kLine:
        spec.topologies.push_back(lineTopology(t.n));
        break;
      case TopologyDoc::Kind::kLineR:
        spec.topologies.push_back(
            rRestrictedLineTopology(t.n, t.r, t.edgeProb));
        break;
      case TopologyDoc::Kind::kLineArb:
        spec.topologies.push_back(arbitraryNoiseLineTopology(
            t.n, static_cast<std::size_t>(t.extraEdges)));
        break;
      case TopologyDoc::Kind::kGreyField:
        spec.topologies.push_back(
            greyZoneFieldTopology(t.n, t.avgDegree, t.c, t.pGrey));
        break;
      case TopologyDoc::Kind::kNetworkC:
        spec.topologies.push_back(lowerBoundNetworkCTopology(t.d));
        break;
    }
  }
  spec.schedulers = doc.schedulers;
  spec.ks = doc.ks;
  for (const MacDoc& m : doc.macs) {
    spec.macs.push_back({m.name, m.params});
  }
  for (const WorkloadDoc& w : doc.workloads) {
    switch (w.kind) {
      case WorkloadDoc::Kind::kAllAtNode:
        spec.workloads.push_back(allAtNodeWorkload(w.node));
        break;
      case WorkloadDoc::Kind::kRoundRobin:
        spec.workloads.push_back(roundRobinWorkload());
        break;
      case WorkloadDoc::Kind::kSpread:
        spec.workloads.push_back(spreadWorkload());
        break;
      case WorkloadDoc::Kind::kRandom:
        spec.workloads.push_back(randomWorkload());
        break;
      case WorkloadDoc::Kind::kOnline:
        spec.workloads.push_back(onlineWorkload(w.interval));
        break;
      case WorkloadDoc::Kind::kPoisson:
        spec.workloads.push_back(poissonWorkload(w.meanGap));
        break;
      case WorkloadDoc::Kind::kBursty:
        spec.workloads.push_back(burstyWorkload(w.batch, w.gap));
        break;
      case WorkloadDoc::Kind::kStaggered:
        spec.workloads.push_back(staggeredWorkload(w.sources, w.interval));
        break;
    }
  }
  spec.dynamics.clear();
  for (const DynamicsDoc& d : doc.dynamics) {
    spec.dynamics.push_back({d.name, d.spec});
  }
  spec.reactions = doc.reactions;
  spec.seedBegin = doc.seedBegin;
  spec.seedEnd = doc.seedEnd;
  spec.stopOnSolve = doc.stopOnSolve;
  spec.recordTrace = doc.recordTrace;
  spec.check = doc.check;
  spec.maxTime = doc.maxTime;
  spec.maxEvents = doc.maxEvents;
  spec.discipline = doc.discipline;
  spec.lowerBoundLineLength = doc.lowerBoundLineLength;
  spec.traceMode = doc.traceMode;
  spec.realization = doc.realization;
  spec.backend = doc.backend;
  if (doc.hasFmmb) {
    const FmmbDoc fmmb = doc.fmmb;
    spec.fmmbParams = [fmmb](NodeId n, int k) {
      core::FmmbParams params =
          fmmb.mode == core::FmmbParams::Mode::kSequential
              ? core::FmmbParams::makeSequential(n, k, fmmb.c)
              : core::FmmbParams::make(n, fmmb.c);
      if (fmmb.strictPaperPhases) params.strictPaperPhases();
      return params;
    };
  }
  spec.validate();
  return spec;
}

std::string specFingerprint(const SpecDoc& doc) {
  const std::string canonical = writeSpec(doc);
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  for (char c : canonical) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

}  // namespace ammb::runner
