#include "runner/spec_io.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "check/golden.h"
#include "runner/axis_codec.h"

namespace ammb::runner {

namespace {

using json::Array;
using json::Object;
using json::Value;

// --- spelling tables --------------------------------------------------------
// Every table below (enum spellings and spec families alike) is a
// `what` plus `rows` of {value, name}; these lookups serve them all.

template <class Table>
const auto& findByName(const Table& table, const std::string& name,
                       const std::string& context) {
  for (const auto& row : table.rows) {
    if (name == row.name) return row;
  }
  std::string expected;
  for (const auto& row : table.rows) {
    expected += (expected.empty() ? "" : ", ") + std::string(row.name);
  }
  throw Error((context.empty() ? "" : context + ": ") + "unknown " +
              table.what + " \"" + name + "\" (expected " + expected + ")");
}

template <class Table, class V>
const auto* findByValue(const Table& table, V value) {
  for (const auto& row : table.rows) {
    if (row.value == value) return &row;
  }
  return static_cast<decltype(&table.rows.front())>(nullptr);
}

template <class Table, class V>
std::string nameOf(const Table& table, V value) {
  const auto* row = findByValue(table, value);
  return row == nullptr ? "?" : std::string(row->name);
}

template <class E>
struct Spellings {
  struct Row {
    E value;
    std::string name;
  };
  const char* what;  ///< names the enum in errors
  std::vector<Row> rows;
};

/// Enums whose names core::toString owns.
template <class E>
Spellings<E> spelledByCore(const char* what, std::initializer_list<E> values) {
  Spellings<E> table{what, {}};
  for (E value : values) table.rows.push_back({value, core::toString(value)});
  return table;
}

const auto& spellings(core::ProtocolKind) {
  using P = core::ProtocolKind;
  static const auto table = spelledByCore("protocol", {P::kBmmb, P::kFmmb});
  return table;
}

const auto& spellings(core::SchedulerKind) {
  using S = core::SchedulerKind;
  static const auto table = spelledByCore(
      "scheduler", {S::kFast, S::kRandom, S::kSlowAck, S::kAdversarial,
                    S::kAdversarialStuffing, S::kLowerBound});
  return table;
}

using Variant = mac::ModelVariant;
const Spellings<Variant> kVariants{
    "MAC variant",
    {{Variant::kStandard, "standard"}, {Variant::kEnhanced, "enhanced"}}};
const auto& spellings(Variant) { return kVariants; }

using FmmbMode = core::FmmbParams::Mode;
const Spellings<FmmbMode> kFmmbModes{
    "fmmb mode",
    {{FmmbMode::kInterleaved, "interleaved"},
     {FmmbMode::kSequential, "sequential"}}};
const auto& spellings(FmmbMode) { return kFmmbModes; }

const Spellings<CheckMode> kCheckModes{
    "check mode",
    {{CheckMode::kOff, "off"}, {CheckMode::kMac, "mac"},
     {CheckMode::kFull, "full"}}};
const auto& spellings(CheckMode) { return kCheckModes; }

using Discipline = core::QueueDiscipline;
const Spellings<Discipline> kDisciplines{
    "queue discipline",
    {{Discipline::kFifo, "fifo"}, {Discipline::kLifo, "lifo"},
     {Discipline::kRandom, "random"}}};
const auto& spellings(Discipline) { return kDisciplines; }

// --- keys -------------------------------------------------------------------

constexpr double kInt32Max = std::numeric_limits<std::int32_t>::max();
constexpr double kInt64Max = static_cast<double>(
    std::numeric_limits<std::int64_t>::max());
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A key's admissible values: [lo, hi], or (lo, hi] when `openLo`.
/// Range checks are eager so a typoed committed spec fails at
/// `ammb_sweep print` / spec-validation time, not per-run mid-sweep.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool openLo = false;
};

// Counts and ticks share one upper bound, INT32_MAX: any count x ticks
// product then stays below 2^62, so no schedule a spec can describe
// overflows Time.
constexpr Range kCount{1, kInt32Max};
constexpr Range kIndex{0, kInt32Max};
constexpr Range kTicks{0, kInt32Max};
constexpr Range kPositiveTicks{1, kInt32Max};
constexpr Range kMeanTicks{0, kInt32Max, /*openLo=*/true};
constexpr Range kPositive{0, kInf, /*openLo=*/true};
constexpr Range kAtLeastOne{1, kInf};
constexpr Range kUnit{0, 1};
constexpr Range kInt64{0, kInt64Max};

std::string bound(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

void requireIn(double v, const Range& r, const std::string& path) {
  if ((r.openLo ? v > r.lo : v >= r.lo) && v <= r.hi) return;
  throw Error(path + " must be " +
              (r.hi >= kInt64Max
                   ? std::string(r.openLo ? "> " : ">= ") + bound(r.lo)
                   : std::string("in ") + (r.openLo ? "(" : "[") +
                         bound(r.lo) + ", " + bound(r.hi) + "]"));
}

/// One spec-file key: its name, whether it may be omitted (then the
/// document keeps its default), its range, and how it reads and writes
/// its slot.  The canonical writer emits keys in table order.
template <class Doc>
struct Key {
  const char* name;
  bool required;
  Range range;
  void (*read)(const Key& key, Doc& doc, const Value& value,
               const std::string& path);
  void (*write)(const Key& key, const Doc& doc, Object& out);
};

constexpr bool kRequired = true;
constexpr bool kOptional = false;

// Slot readers and writers, by slot type.  The document overloads are
// defined with their tables below.
void readValue(TopologyDoc&, const Value&, const std::string&, const Range&);
void readValue(WorkloadDoc&, const Value&, const std::string&, const Range&);
void readValue(DynamicsDoc&, const Value&, const std::string&, const Range&);
void readValue(MacDoc&, const Value&, const std::string&, const Range&);
Value toValue(const TopologyDoc& doc);
Value toValue(const WorkloadDoc& doc);
Value toValue(const DynamicsDoc& doc);
Value toValue(const MacDoc& doc);

void readValue(bool& out, const Value& v, const std::string& path,
               const Range&) {
  out = v.asBool(path);
}

void readValue(std::string& out, const Value& v, const std::string& path,
               const Range&) {
  out = v.asString(path);
  AMMB_REQUIRE(!out.empty(), path + " must be non-empty");
}

void readValue(double& out, const Value& v, const std::string& path,
               const Range& range) {
  out = v.asDouble(path);
  requireIn(out, range, path);
}

template <class T>
std::enable_if_t<std::is_integral_v<T>> readValue(T& out, const Value& v,
                                                  const std::string& path,
                                                  const Range& range) {
  const std::int64_t x = v.asInt(path);
  requireIn(static_cast<double>(x), range, path);
  out = static_cast<T>(x);
}

template <class E>
std::enable_if_t<std::is_enum_v<E>> readValue(E& out, const Value& v,
                                               const std::string& path,
                                               const Range&) {
  out = findByName(spellings(out), v.asString(path), path).value;
}

template <class T>
void readValue(std::vector<T>& out, const Value& v, const std::string& path,
               const Range& range) {
  const Array& items = v.asArray(path);
  AMMB_REQUIRE(!items.empty(), path + " must not be an empty array");
  out.assign(items.size(), T{});
  for (std::size_t i = 0; i < items.size(); ++i) {
    readValue(out[i], items[i], path + "[" + std::to_string(i) + "]", range);
  }
}

template <class T>
Value toValue(const T& value) {
  if constexpr (std::is_enum_v<T>) {
    return nameOf(spellings(value), value);
  } else if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
    return static_cast<std::int64_t>(value);
  } else {
    return value;
  }
}

template <class T>
Value toValue(const std::vector<T>& items) {
  Array out;
  for (const T& item : items) out.push_back(toValue(item));
  return out;
}

template <auto Member, auto... Nested>
struct Slot {
  template <class D>
  static auto& in(D& doc) {
    if constexpr (sizeof...(Nested) == 0) {
      return doc.*Member;
    } else {
      return Slot<Nested...>::in(doc.*Member);
    }
  }
};

template <class M>
struct OwnerOf;
template <class T, class C>
struct OwnerOf<T C::*> {
  using type = C;
};

/// A key bound to the member (or nested member) it reads and writes.
template <auto Member, auto... Nested,
          class Doc = typename OwnerOf<decltype(Member)>::type>
Key<Doc> key(const char* name, bool required, Range range = {}) {
  return {name, required, range,
          [](const Key<Doc>& k, Doc& doc, const Value& v,
             const std::string& path) {
            readValue(Slot<Member, Nested...>::in(doc), v, path, k.range);
          },
          [](const Key<Doc>& k, const Doc& doc, Object& out) {
            out.emplace_back(k.name, toValue(Slot<Member, Nested...>::in(doc)));
          }};
}

// --- objects and families ---------------------------------------------------

/// A JSON object's keys in canonical order, plus a hook that derives
/// defaults and checks rules spanning several keys.
template <class Doc>
struct Schema {
  std::vector<Key<Doc>> keys;
  void (*finish)(Doc& doc, const std::string& path) = nullptr;
};

/// Reads every key of `schema` from `value`, then rejects keys the
/// schema does not declare (other than `skip`), so a typoed axis fails
/// loudly instead of silently vanishing from a campaign.
template <class Doc>
void readKeys(const Schema<Doc>& schema, Doc& doc, const Value& value,
              const std::string& path, const char* skip = "") {
  const Object& members = value.asObject(path);
  for (const Key<Doc>& key : schema.keys) {
    if (const Value* v = value.find(key.name); v != nullptr) {
      key.read(key, doc, *v, path + "." + key.name);
    } else if (key.required) {
      throw Error(path + " is missing required field \"" + key.name + "\"");
    }
  }
  for (const json::Member& member : members) {
    bool known = member.first == skip;
    for (const Key<Doc>& key : schema.keys) known |= member.first == key.name;
    if (!known) {
      throw Error(path + " has unknown field \"" + member.first + "\"");
    }
  }
  if (schema.finish != nullptr) schema.finish(doc, path);
}

template <class Doc>
Object writeKeys(const Schema<Doc>& schema, const Doc& doc,
                 Object out = {}) {
  for (const Key<Doc>& key : schema.keys) key.write(key, doc, out);
  return out;
}

template <class Doc>
auto& kindOf(Doc& doc) {
  if constexpr (std::is_same_v<std::remove_const_t<Doc>, DynamicsDoc>) {
    return doc.spec.kind;
  } else {
    return doc.kind;
  }
}

/// One family of an axis: its "kind" spelling, its keys (copies of
/// pooled keys, so a key several families share is declared once), and
/// the sweep_spec.h builder it calls.
template <class Doc, class Built>
struct Family {
  const char* name;
  std::remove_reference_t<decltype(kindOf(std::declval<Doc&>()))> value;
  Schema<Doc> schema;
  Built (*build)(const Doc& doc);
};

template <class Doc, class Built>
struct Families {
  const char* what;
  std::vector<Family<Doc, Built>> rows;

  const Family<Doc, Built>& of(const Doc& doc) const {
    return *findByValue(*this, kindOf(doc));
  }
};

constexpr const char* kKind = "kind";

template <class Doc, class Built>
void readFamily(const Families<Doc, Built>& families, Doc& doc,
                const Value& value, const std::string& path) {
  value.asObject(path);  // a non-object fails naming its path
  const Value* kind = value.find(kKind);
  if (kind == nullptr) {
    throw Error(path + " is missing required field \"" + kKind + "\"");
  }
  const std::string kindPath = path + "." + kKind;
  const auto& family =
      findByName(families, kind->asString(kindPath), kindPath);
  kindOf(doc) = family.value;
  readKeys(family.schema, doc, value, path, kKind);
}

template <class Doc, class Built>
Value writeFamily(const Families<Doc, Built>& families, const Doc& doc) {
  const auto& family = families.of(doc);
  return writeKeys(family.schema, doc, {{kKind, family.name}});
}

// --- the spec families ------------------------------------------------------
// A new family is one row: its kind, its keys (from the pool above the
// table), and its builder.

using Topo = TopologyDoc;
const Key<Topo> kTopoN = key<&Topo::n>("n", kRequired, kCount);
const Key<Topo> kTopoR = key<&Topo::r>("r", kRequired, kCount);
const Key<Topo> kTopoEdgeProb =
    key<&Topo::edgeProb>("edge_prob", kRequired, kUnit);
const Key<Topo> kTopoExtra =
    key<&Topo::extraEdges>("extra_edges", kRequired, kIndex);
const Key<Topo> kTopoDegree =
    key<&Topo::avgDegree>("avg_degree", kRequired, kPositive);
const Key<Topo> kTopoC = key<&Topo::c>("c", kRequired, kAtLeastOne);
const Key<Topo> kTopoPGrey = key<&Topo::pGrey>("p_grey", kRequired, kUnit);
const Key<Topo> kTopoD = key<&Topo::d>("d", kRequired, kCount);

const Families<Topo, TopologySpec> kTopologies{
    "topology kind",
    {{"line", Topo::Kind::kLine, {{kTopoN}},
      [](const Topo& t) { return lineTopology(t.n); }},
     {"line-r", Topo::Kind::kLineR, {{kTopoN, kTopoR, kTopoEdgeProb}},
      [](const Topo& t) {
        return rRestrictedLineTopology(t.n, t.r, t.edgeProb);
      }},
     {"line-arb", Topo::Kind::kLineArb, {{kTopoN, kTopoExtra}},
      [](const Topo& t) {
        return arbitraryNoiseLineTopology(
            t.n, static_cast<std::size_t>(t.extraEdges));
      }},
     {"grey-field", Topo::Kind::kGreyField,
      {{kTopoN, kTopoDegree, kTopoC, kTopoPGrey}},
      [](const Topo& t) {
        return greyZoneFieldTopology(t.n, t.avgDegree, t.c, t.pGrey);
      }},
     {"network-c", Topo::Kind::kNetworkC, {{kTopoD}},
      [](const Topo& t) { return lowerBoundNetworkCTopology(t.d); }}}};

using Work = WorkloadDoc;
const Key<Work> kWorkNode = key<&Work::node>("node", kOptional, kIndex);
const Key<Work> kWorkSources =
    key<&Work::sources>("sources", kRequired, kCount);
const Key<Work> kWorkInterval =
    key<&Work::interval>("interval", kRequired, kTicks);
const Key<Work> kWorkMeanGap =
    key<&Work::meanGap>("mean_gap", kRequired, kMeanTicks);
const Key<Work> kWorkBatch = key<&Work::batch>("batch", kRequired, kCount);
const Key<Work> kWorkGap = key<&Work::gap>("gap", kRequired, kTicks);

const Families<Work, WorkloadSpec> kWorkloads{
    "workload kind",
    {{"all-at-node", Work::Kind::kAllAtNode, {{kWorkNode}},
      [](const Work& w) { return allAtNodeWorkload(w.node); }},
     {"round-robin", Work::Kind::kRoundRobin, {},
      [](const Work&) { return roundRobinWorkload(); }},
     {"spread", Work::Kind::kSpread, {},
      [](const Work&) { return spreadWorkload(); }},
     {"random", Work::Kind::kRandom, {},
      [](const Work&) { return randomWorkload(); }},
     {"online", Work::Kind::kOnline, {{kWorkInterval}},
      [](const Work& w) { return onlineWorkload(w.interval); }},
     {"poisson", Work::Kind::kPoisson, {{kWorkMeanGap}},
      [](const Work& w) { return poissonWorkload(w.meanGap); }},
     {"bursty", Work::Kind::kBursty, {{kWorkBatch, kWorkGap}},
      [](const Work& w) { return burstyWorkload(w.batch, w.gap); }},
     {"staggered", Work::Kind::kStaggered, {{kWorkSources, kWorkInterval}},
      [](const Work& w) {
        return staggeredWorkload(w.sources, w.interval);
      }}}};

using Dyn = DynamicsDoc;
using DynSpec = core::DynamicsSpec;
const Key<Dyn> kDynCrashes =
    key<&Dyn::spec, &DynSpec::crashes>("crashes", kRequired, kCount);
const Key<Dyn> kDynEpochs =
    key<&Dyn::spec, &DynSpec::epochs>("epochs", kRequired, kCount);
const Key<Dyn> kDynPeriod =
    key<&Dyn::spec, &DynSpec::period>("period", kRequired, kPositiveTicks);
const Key<Dyn> kDynDownFor =
    key<&Dyn::spec, &DynSpec::downFor>("down_for", kRequired, kPositiveTicks);
const Key<Dyn> kDynChurn =
    key<&Dyn::spec, &DynSpec::churn>("churn", kRequired, kUnit);
const Key<Dyn> kDynName = key<&Dyn::name>("name", kOptional);

void nameDynamics(Dyn& d, const std::string&) {
  if (d.name.empty()) d.name = d.spec.label();
}

const Families<Dyn, DynamicsSpecNamed> kDynamics{
    "dynamics kind",
    {{"static", DynSpec::Kind::kStatic, {{kDynName}, nameDynamics},
      [](const Dyn&) { return staticDynamics(); }},
     {"crash", DynSpec::Kind::kCrash,
      {{kDynCrashes, kDynPeriod, kDynDownFor, kDynName},
       [](Dyn& d, const std::string& path) {
         AMMB_REQUIRE(d.spec.downFor < d.spec.period,
                      path + ".down_for must satisfy 0 < down_for < period");
         nameDynamics(d, path);
       }},
      [](const Dyn& d) {
        return crashDynamics(d.spec.crashes, d.spec.period, d.spec.downFor);
      }},
     {"grey-drift", DynSpec::Kind::kGreyDrift,
      {{kDynEpochs, kDynPeriod, kDynChurn, kDynName}, nameDynamics},
      [](const Dyn& d) {
        return greyDriftDynamics(d.spec.epochs, d.spec.period, d.spec.churn);
      }}}};

// --- macs and fmmb ----------------------------------------------------------

using mac::MacParams;
const Schema<MacDoc> kMac{
    {key<&MacDoc::name>("name", kOptional),
     key<&MacDoc::params, &MacParams::fack>("fack", kOptional, kPositiveTicks),
     key<&MacDoc::params, &MacParams::fprog>("fprog", kOptional,
                                             kPositiveTicks),
     key<&MacDoc::params, &MacParams::epsAbort>("eps_abort", kOptional,
                                                kTicks),
     key<&MacDoc::params, &MacParams::msgCapacity>("msg_capacity", kOptional,
                                                   kCount),
     key<&MacDoc::params, &MacParams::variant>("variant", kOptional)},
    [](MacDoc& m, const std::string&) {
      if (m.name.empty()) {
        m.name = "f" + std::to_string(m.params.fprog) + "a" +
                 std::to_string(m.params.fack);
      }
      m.params.validate();
    }};

const Schema<FmmbDoc> kFmmb{
    {key<&FmmbDoc::c>("c", kOptional, kAtLeastOne),
     key<&FmmbDoc::mode>("mode", kOptional),
     key<&FmmbDoc::strictPaperPhases>("strict_paper_phases", kOptional)}};

void readValue(TopologyDoc& out, const Value& v, const std::string& path,
               const Range&) {
  readFamily(kTopologies, out, v, path);
}
void readValue(WorkloadDoc& out, const Value& v, const std::string& path,
               const Range&) {
  readFamily(kWorkloads, out, v, path);
}
void readValue(DynamicsDoc& out, const Value& v, const std::string& path,
               const Range&) {
  readFamily(kDynamics, out, v, path);
}
void readValue(MacDoc& out, const Value& v, const std::string& path,
               const Range&) {
  readKeys(kMac, out, v, path);
}
Value toValue(const TopologyDoc& doc) { return writeFamily(kTopologies, doc); }
Value toValue(const WorkloadDoc& doc) { return writeFamily(kWorkloads, doc); }
Value toValue(const DynamicsDoc& doc) { return writeFamily(kDynamics, doc); }
Value toValue(const MacDoc& doc) { return writeKeys(kMac, doc); }

// --- the root object --------------------------------------------------------

const AxisCodec& codecFor(const Key<SpecDoc>& key) {
  for (const AxisCodec& codec : axisCodecs()) {
    if (std::string(key.name) == codec.specKey) return codec;
  }
  throw Error(std::string("no execution axis has spec key ") + key.name);
}

/// The execution axes (mac / reactions / backend / trace_mode) parse
/// and elide through the AxisCodec table, with errors naming the full
/// key path.
Key<SpecDoc> axisKey(const char* axis) {
  return {axisCodec(axis).specKey, kOptional, {},
          [](const Key<SpecDoc>& k, SpecDoc& doc, const Value& v,
             const std::string& path) {
            const AxisCodec& codec = codecFor(k);
            std::vector<std::string> labels(1);
            if (codec.multi) {
              readValue(labels, v, path, {});
            } else {
              labels[0] = v.asString(path);
            }
            for (std::size_t i = 0; i < labels.size(); ++i) {
              try {
                codec.parseInto(doc, labels[i], i == 0);
              } catch (const std::exception& e) {
                throw Error(path +
                            (codec.multi ? "[" + std::to_string(i) + "]" : "") +
                            ": " + e.what());
              }
            }
          },
          [](const Key<SpecDoc>& k, const SpecDoc& doc, Object& out) {
            emitSpecAxis(out, doc, codecFor(k));
          }};
}

const Schema<SpecDoc> kRoot{
    {key<&SpecDoc::name>("name", kRequired),
     key<&SpecDoc::protocol>("protocol", kRequired),
     key<&SpecDoc::topologies>("topologies", kRequired),
     key<&SpecDoc::schedulers>("schedulers", kRequired),
     key<&SpecDoc::ks>("ks", kRequired, kCount),
     key<&SpecDoc::macs>("macs", kRequired),
     key<&SpecDoc::workloads>("workloads", kRequired),
     key<&SpecDoc::dynamics>("dynamics", kOptional),
     // The reaction axis, like "mac" and "backend" below, is written
     // only off its default, so every pre-existing spec's canonical
     // form (and fingerprint) is unchanged; when present it changes
     // results and so is part of the fingerprint.
     axisKey("reaction"),
     key<&SpecDoc::seedBegin>("seed_begin", kRequired, kInt64),
     key<&SpecDoc::seedEnd>("seed_end", kRequired, kInt64),
     key<&SpecDoc::stopOnSolve>("stop_on_solve", kOptional),
     key<&SpecDoc::recordTrace>("record_trace", kOptional),
     key<&SpecDoc::check>("check", kOptional),
     {"max_time", kOptional, kInt64,
      [](const Key<SpecDoc>& k, SpecDoc& doc, const Value& v,
         const std::string& path) {
        doc.maxTime = kTimeNever;
        if (!v.isNull()) readValue(doc.maxTime, v, path, k.range);
      },
      [](const Key<SpecDoc>& k, const SpecDoc& doc, Object& out) {
        out.emplace_back(k.name, doc.maxTime == kTimeNever
                                     ? Value(nullptr)
                                     : Value(doc.maxTime));
      }},
     key<&SpecDoc::maxEvents>("max_events", kOptional, {1, kInt64Max}),
     key<&SpecDoc::discipline>("discipline", kOptional),
     key<&SpecDoc::lowerBoundLineLength>("lower_bound_line_length", kOptional,
                                         kIndex),
     axisKey("mac"),
     axisKey("backend"),
     axisKey("trace"),
     {"fmmb", kOptional, {},
      [](const Key<SpecDoc>&, SpecDoc& doc, const Value& v,
         const std::string& path) {
        doc.hasFmmb = true;
        readKeys(kFmmb, doc.fmmb, v, path);
      },
      [](const Key<SpecDoc>& k, const SpecDoc& doc, Object& out) {
        if (doc.hasFmmb) out.emplace_back(k.name, writeKeys(kFmmb, doc.fmmb));
      }}},
    [](SpecDoc& doc, const std::string& path) {
      // Network C needs two lines of at least two nodes each.
      AMMB_REQUIRE(doc.lowerBoundLineLength == 0 ||
                       doc.lowerBoundLineLength >= 2,
                   path + ".lower_bound_line_length must be 0 (unset) or "
                          "at least 2");
      if (doc.protocol == core::ProtocolKind::kFmmb) {
        AMMB_REQUIRE(doc.hasFmmb,
                     "fmmb sweeps need a \"fmmb\" parameter object");
      } else {
        AMMB_REQUIRE(!doc.hasFmmb,
                     "\"fmmb\" is set but the sweep protocol is bmmb — the "
                     "parameters would be silently ignored");
      }
    }};

}  // namespace

// --- public enum spellings --------------------------------------------------

std::string toString(TopologyDoc::Kind k) { return nameOf(kTopologies, k); }
std::string toString(WorkloadDoc::Kind k) { return nameOf(kWorkloads, k); }
std::string toString(CheckMode m) { return nameOf(kCheckModes, m); }
std::string toString(Discipline d) { return nameOf(kDisciplines, d); }

core::SchedulerKind schedulerFromString(const std::string& name) {
  return findByName(spellings(core::SchedulerKind{}), name, "").value;
}
CheckMode checkModeFromString(const std::string& name) {
  return findByName(kCheckModes, name, "").value;
}
Discipline disciplineFromString(const std::string& name) {
  return findByName(kDisciplines, name, "").value;
}

// --- parse / write / build --------------------------------------------------

SpecDoc parseSpec(const std::string& jsonText) {
  SpecDoc doc;
  readKeys(kRoot, doc, json::parse(jsonText), "spec");
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

std::string writeSpec(const SpecDoc& doc) {
  return json::dump(Value(writeKeys(kRoot, doc)), 2);
}

SweepSpec buildSweep(const SpecDoc& doc) {
  SweepSpec spec;
  spec.name = doc.name;
  spec.protocol = doc.protocol;
  for (const TopologyDoc& t : doc.topologies) {
    spec.topologies.push_back(kTopologies.of(t).build(t));
  }
  spec.schedulers = doc.schedulers;
  spec.ks = doc.ks;
  for (const MacDoc& m : doc.macs) {
    spec.macs.push_back({m.name, m.params});
  }
  for (const WorkloadDoc& w : doc.workloads) {
    spec.workloads.push_back(kWorkloads.of(w).build(w));
  }
  spec.dynamics.clear();
  for (const DynamicsDoc& d : doc.dynamics) {
    spec.dynamics.push_back(kDynamics.of(d).build(d));
    spec.dynamics.back().name = d.name;
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
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(check::fnv1a(writeSpec(doc))));
  return buffer;
}

}  // namespace ammb::runner
