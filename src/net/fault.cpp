#include "net/fault.h"

namespace ammb::net {

namespace {

// fmix64 finalizer (MurmurHash3): full avalanche, so consecutive seqs
// and attempts decorrelate completely.
std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

FaultPlan::FaultPlan(std::uint64_t seed, double loss, std::int64_t jitterUs)
    : seed_(seed), loss_(loss), jitterUs_(jitterUs) {}

std::uint64_t FaultPlan::mix(NodeId from, NodeId to, std::uint64_t seq,
                             std::uint32_t attempt,
                             std::uint64_t salt) const {
  std::uint64_t h = seed_ ^ (salt * 0x9e3779b97f4a7c15ULL);
  h = fmix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
                  << 32 |
                  static_cast<std::uint32_t>(to)));
  h = fmix64(h ^ seq);
  h = fmix64(h ^ attempt);
  return h;
}

bool FaultPlan::drop(NodeId from, NodeId to, std::uint64_t seq,
                     std::uint32_t attempt) const {
  if (loss_ <= 0.0) return false;
  // Top 53 bits → uniform double in [0, 1).
  const double u = static_cast<double>(mix(from, to, seq, attempt, 1) >> 11) *
                   0x1.0p-53;
  return u < loss_;
}

std::int64_t FaultPlan::delayUs(NodeId from, NodeId to, std::uint64_t seq,
                                std::uint32_t attempt) const {
  if (jitterUs_ <= 0) return 0;
  return static_cast<std::int64_t>(mix(from, to, seq, attempt, 2) %
                                   static_cast<std::uint64_t>(jitterUs_ + 1));
}

}  // namespace ammb::net
