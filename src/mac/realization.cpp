#include "mac/realization.h"

#include <cstdio>

#include "common/parse.h"

namespace ammb::mac {

std::string MacRealization::label() const {
  if (kind == Kind::kAbstract) return "abstract";
  if (csma == CsmaParams{}) return "csma";
  char text[96];
  std::snprintf(text, sizeof(text), "csma:%lld,%d,%d,%d,%g",
                static_cast<long long>(csma.slot), csma.cwMin, csma.cwMax,
                csma.maxRetries, csma.pCapture);
  return text;
}

MacRealization MacRealization::fromLabel(const std::string& label) {
  if (label == "abstract") return abstractLayer();
  if (label == "csma") return csmaWith(CsmaParams{});
  const std::string prefix = "csma:";
  if (label.rfind(prefix, 0) == 0) {
    CsmaParams params;
    AMMB_REQUIRE(parseNumbers(std::string_view(label).substr(prefix.size()),
                              params.slot, params.cwMin, params.cwMax,
                              params.maxRetries, params.pCapture),
                 "unknown MAC realization '" + label +
                     "' (expected \"abstract\", \"csma\" or "
                     "\"csma:<slot>,<cwMin>,<cwMax>,<maxRetries>,"
                     "<pCapture>\")");
    return csmaWith(params);
  }
  throw Error("unknown MAC realization '" + label +
              "' (expected \"abstract\", \"csma\" or "
              "\"csma:<slot>,<cwMin>,<cwMax>,<maxRetries>,<pCapture>\")");
}

}  // namespace ammb::mac
