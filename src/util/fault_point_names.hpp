// Canonical registry of every fault-point name the sgp library declares —
// the single source of truth referenced by fault_point()/arm_fault() call
// sites, the docs/robustness.md drift test, and the sgp-lint R9
// fault-point-registry rule (a string literal passed to util::fault_point
// or util::arm_fault inside src/ or tools/ must appear here, so a typo can
// no longer create a point that a chaos test arms but production never
// hits).
//
// Adding a point: add a constant AND a kAllFaultPoints entry, use the
// constant at the call site, document the row in docs/robustness.md, and
// keep the prefix consistent with the error mapping in
// util/fault_injection.hpp (io.* / ledger.* / lease.* -> IoError, solver.*
// -> ConvergenceError, alloc* -> bad_alloc, proc.worker.exit -> _Exit).
#pragma once

#include <string_view>

namespace sgp::util::fault_points {

inline constexpr std::string_view kAlloc = "alloc";
inline constexpr std::string_view kIoRead = "io.read";
inline constexpr std::string_view kIoShardCheckpoint = "io.shard.checkpoint";
inline constexpr std::string_view kIoShardRead = "io.shard.read";
inline constexpr std::string_view kIoShardWrite = "io.shard.write";
inline constexpr std::string_view kIoWrite = "io.write";
inline constexpr std::string_view kLeaseHeartbeat = "lease.heartbeat";
inline constexpr std::string_view kLedgerAppend = "ledger.append";
inline constexpr std::string_view kProcSpawn = "proc.spawn";
inline constexpr std::string_view kProcWorkerExit = "proc.worker.exit";
inline constexpr std::string_view kSolverIteration = "solver.iteration";

/// Every canonical point, strictly sorted (asserted by
/// tests/analysis/fault_point_names_test.cpp, mirroring the R3 metric
/// registry invariants).
inline constexpr std::string_view kAllFaultPoints[] = {
    kAlloc,
    kIoRead,
    kIoShardCheckpoint,
    kIoShardRead,
    kIoShardWrite,
    kIoWrite,
    kLeaseHeartbeat,
    kLedgerAppend,
    kProcSpawn,
    kProcWorkerExit,
    kSolverIteration,
};

/// True when `name` is in kAllFaultPoints.
[[nodiscard]] constexpr bool is_canonical_fault_point(std::string_view name) {
  for (std::string_view p : kAllFaultPoints) {
    if (p == name) return true;
  }
  return false;
}

}  // namespace sgp::util::fault_points
