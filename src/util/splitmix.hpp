// SplitMix64 finalizer for the identifiers and schedules util and obs draw
// outside the mechanism: fault-injection probability draws, retry jitter,
// observability trace ids and edge-list fingerprints. A pure function of
// its input, so every use replays exactly.
//
// It is not the mechanism's randomness: util and obs must not depend on
// src/random/ (lint R6), and nothing released is drawn from here.
#pragma once

#include <cstdint>

namespace sgp::util {

/// x advanced by the golden gamma, then Stafford's variant-13 mix: the
/// value random::splitmix64 returns for a state equal to x.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace sgp::util
