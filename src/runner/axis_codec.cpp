#include "runner/axis_codec.h"

namespace ammb::runner {

namespace {

std::vector<std::string> getRealization(const SpecDoc& doc) {
  return {doc.realization.label()};
}
void setRealization(SpecDoc& doc, const std::string& label, bool) {
  doc.realization = mac::MacRealization::fromLabel(label);
}

std::vector<std::string> getReactions(const SpecDoc& doc) {
  std::vector<std::string> labels;
  labels.reserve(doc.reactions.size());
  for (const core::ReactionSpec& r : doc.reactions) {
    labels.push_back(r.label());
  }
  return labels;
}
void setReaction(SpecDoc& doc, const std::string& label, bool first) {
  if (first) doc.reactions.clear();
  doc.reactions.push_back(core::ReactionSpec::fromLabel(label));
}

std::vector<std::string> getBackend(const SpecDoc& doc) {
  return {doc.backend.label()};
}
void setBackend(SpecDoc& doc, const std::string& label, bool) {
  doc.backend = core::ExecutionBackend::fromLabel(label);
}

std::vector<std::string> getTraceMode(const SpecDoc& doc) {
  return {doc.traceMode.label()};
}
void setTraceMode(SpecDoc& doc, const std::string& label, bool) {
  doc.traceMode = sim::TraceMode::fromLabel(label);
}

constexpr std::array<AxisCodec, 4> makeTable() {
  return {{
      {"mac", "mac", "--mac", "mac_realization", "abstract",
       /*resultBearing=*/true, /*multi=*/false, getRealization,
       setRealization, &RunRecord::realization},
      // reaction: a grid axis, not a scalar — list-valued in specs and
      // CLI, recorded per run as the react_idx coordinate rather than
      // a label.
      {"reaction", "reactions", "--reaction", nullptr, "none",
       /*resultBearing=*/true, /*multi=*/true, getReactions, setReaction,
       nullptr},
      {"backend", "backend", "--backend", "backend", "sim",
       /*resultBearing=*/true, /*multi=*/false, getBackend, setBackend,
       &RunRecord::backend},
      // trace: a pure storage knob — the committed record sequence
      // (and every hash/verdict derived from it) is identical across
      // backends, so the override applies after fingerprinting.
      {"trace", "trace_mode", "--trace-mode", "trace_mode", "mem",
       /*resultBearing=*/false, /*multi=*/false, getTraceMode,
       setTraceMode, &RunRecord::traceMode},
  }};
}

}  // namespace

const std::array<AxisCodec, 4>& axisCodecs() {
  static const std::array<AxisCodec, 4> table = makeTable();
  return table;
}

const AxisCodec& axisCodec(const std::string& axis) {
  for (const AxisCodec& codec : axisCodecs()) {
    if (axis == codec.axis) return codec;
  }
  throw Error("unknown execution axis \"" + axis + "\"");
}

void applyAxisOverride(SpecDoc& doc, const AxisCodec& codec,
                       const std::string& value) {
  try {
    if (!codec.multi) {
      codec.parseInto(doc, value, true);
      return;
    }
    std::string remaining = value;
    bool first = true;
    while (true) {
      const std::size_t comma = remaining.find(',');
      codec.parseInto(doc, remaining.substr(0, comma), first);
      first = false;
      if (comma == std::string::npos) break;
      remaining = remaining.substr(comma + 1);
    }
  } catch (const std::exception& e) {
    throw Error(std::string(codec.cliFlag) + ": " + e.what());
  }
}

void emitSpecAxis(json::Object& root, const SpecDoc& doc,
                  const AxisCodec& codec) {
  const std::vector<std::string> labels = codec.get(doc);
  if (labels.size() == 1 && labels.front() == codec.defaultLabel) return;
  if (codec.multi) {
    json::Array entries;
    for (const std::string& label : labels) entries.emplace_back(label);
    root.emplace_back(codec.specKey, std::move(entries));
    return;
  }
  root.emplace_back(codec.specKey, labels.front());
}

void emitRecordAxes(json::Object& o, const RunRecord& record) {
  for (const AxisCodec& codec : axisCodecs()) {
    if (codec.recordField == nullptr) continue;
    const std::string& label = record.*codec.recordField;
    if (label == codec.defaultLabel) continue;
    o.emplace_back(codec.recordKey, label);
  }
}

void parseRecordAxes(RunRecord& record, const json::Value& value,
                     const std::string& context) {
  for (const AxisCodec& codec : axisCodecs()) {
    if (codec.recordField == nullptr) continue;
    if (const json::Value* v = value.find(codec.recordKey); v != nullptr) {
      record.*codec.recordField =
          v->asString(context + "." + codec.recordKey);
    }
  }
}

}  // namespace ammb::runner
