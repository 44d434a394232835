#include "core/backend.h"

#include <cstdio>

#include "common/error.h"
#include "common/parse.h"

namespace ammb::core {

using net::NetBackendParams;

std::string ExecutionBackend::label() const {
  if (kind == Kind::kSim) return "sim";
  if (net == NetBackendParams{}) return "net";
  char text[128];
  std::snprintf(text, sizeof(text), "net:%d,%g,%lld,%d,%lld,%lld",
                net.basePort, net.loss, static_cast<long long>(net.tickUs),
                net.gPrimeAttempts, static_cast<long long>(net.ackDelayTicks),
                static_cast<long long>(net.jitterUs));
  return text;
}

ExecutionBackend ExecutionBackend::fromLabel(const std::string& label) {
  if (label == "sim") return simBackend();
  if (label == "net") return netWith(NetBackendParams{});
  const std::string prefix = "net:";
  if (label.rfind(prefix, 0) == 0) {
    NetBackendParams params;
    AMMB_REQUIRE(parseNumbers(std::string_view(label).substr(prefix.size()),
                              params.basePort, params.loss, params.tickUs,
                              params.gPrimeAttempts, params.ackDelayTicks,
                              params.jitterUs),
                 "unknown execution backend '" + label +
                     "' (expected \"sim\", \"net\" or \"net:<basePort>,"
                     "<loss>,<tickUs>,<gPrimeAttempts>,<ackDelayTicks>,"
                     "<jitterUs>\")");
    return netWith(params);
  }
  throw Error("unknown execution backend '" + label +
              "' (expected \"sim\", \"net\" or \"net:<basePort>,<loss>,"
              "<tickUs>,<gPrimeAttempts>,<ackDelayTicks>,<jitterUs>\")");
}

}  // namespace ammb::core
