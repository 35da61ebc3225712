// Deterministic fault injection for robustness testing.
//
// Production code declares *named fault points* at failure-prone sites
// (IO, ledger appends, solver iterations, large allocations) by calling
// `fault_point("name")`. In normal operation that is a single relaxed
// atomic load — effectively free, even inside solver loops. A test (or an
// operator, via the SGP_FAULT_SPEC environment variable) can *arm* a point
// so that the call throws the error the real failure would produce:
//
//   point prefix      effect when fired
//   io.*, ledger.*    throws util::IoError
//   lease.*           throws util::IoError
//   solver.*          throws util::ConvergenceError
//   alloc*            throws std::bad_alloc
//   proc.worker.exit  terminates the process immediately (std::_Exit 137,
//                     the shell code for SIGKILL) — the "worker died
//                     mid-shard" chaos primitive; no destructors, flushes,
//                     or checkpoint records run
//   proc.* (other)    throws util::IoError
//
// Failures are seed-driven and replay exactly: the n-th hit of a point
// fires (or not) as a pure function of the armed config, never of wall
// clock, thread timing, or global RNG state.
//
// The standard points threaded through the library:
//   io.read           graph/io.cpp read paths, core/serialization.cpp load
//   io.write          graph/io.cpp write paths, core/serialization.cpp save
//   io.shard.read     graph/shard_loader.cpp streaming shard passes
//   io.shard.write    core/distributed_publish.cpp: the coordinator's
//                     append of a shard to the release, a worker's side
//                     file write
//   io.shard.checkpoint  core/distributed_publish.cpp shard log record
//   ledger.append     core/ledger.cpp durable append
//   lease.heartbeat   core/distributed_publish.cpp worker heartbeat append
//   proc.spawn        util/subprocess.cpp process creation
//   proc.worker.exit  core/distributed_publish.cpp worker shard loop (hard
//                     process exit — see the effect table above)
//   solver.iteration  linalg/lanczos.cpp iteration loop
//   alloc             core/projection.cpp projection-matrix allocation
//
// SGP_FAULT_SPEC grammar (documented in docs/robustness.md):
//   spec    := entry (',' entry)*
//   entry   := point (':' key '=' value)*
//   key     := 'after' | 'prob' | 'seed' | 'count'
// e.g.  SGP_FAULT_SPEC="ledger.append:after=2:count=1,io.read:prob=0.01:seed=9"
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sgp::util {

/// When and how often an armed fault point fires.
struct FaultConfig {
  /// Skip this many hits before the point becomes eligible to fire.
  std::uint64_t after = 0;
  /// Chance that an eligible hit fires, drawn deterministically from `seed`
  /// and the per-point hit counter. 1.0 = every eligible hit.
  double probability = 1.0;
  /// Seed for the probability draws; same seed + same hit sequence ⇒ same
  /// failure sequence.
  std::uint64_t seed = 0x5eedfa17ULL;
  /// Fire at most this many times; -1 = unlimited.
  std::int64_t max_fires = -1;
};

/// Arms `point` with `config`, resetting its hit/fire counters.
void arm_fault(std::string_view point, FaultConfig config = {});

/// Disarms `point` (no-op if unknown). Counters remain readable.
void disarm_fault(std::string_view point);

/// Disarms every point. Counters remain readable.
void disarm_all_faults();

/// Hits observed while `point` was armed (0 if never armed).
[[nodiscard]] std::uint64_t fault_hits(std::string_view point);

/// Times `point` actually fired (threw) since it was last armed.
[[nodiscard]] std::uint64_t fault_fires(std::string_view point);

/// Declares a fault point. No-op unless `point` is armed; throws the
/// mapped error type (see header comment) when the armed config says the
/// current hit fires. Thread-safe.
void fault_point(std::string_view point);

/// Parses a fault spec string (grammar above) and arms every entry.
/// Returns the number of points armed. Throws ParseError on bad grammar.
std::size_t arm_faults_from_spec(std::string_view spec);

/// Arms faults from the SGP_FAULT_SPEC environment variable, if set.
/// Called automatically (once) by the first fault_point() evaluation, so
/// binaries need no explicit setup. Safe to call repeatedly.
void arm_faults_from_env();

}  // namespace sgp::util
