// Generic bounded-retry policy: exponential backoff with deterministic
// jitter, shared by every site that wants to ride out transient
// environmental failures (shard IO, worker spawns).
//
// Only util::IoError is retried — it is the one taxonomy kind that models
// a transient environment (util/errors.hpp); everything else (parse,
// precondition, budget, internal) is deterministic and retrying it would
// just repeat the failure. The jitter is a pure function of
// (policy.seed, attempt index) — util::splitmix64, the finalizer the fault
// framework uses too — so a retried schedule replays exactly and never
// couples to wall clock or global RNG state.
//
// Every retry (attempt 2..N) increments the canonical `retry.attempts`
// counter. Sleeping is injectable so tests (and single-shot callers) never
// block: pass a RetrySleeper that records instead of sleeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/splitmix.hpp"

namespace sgp::util {

/// How often and how patiently an operation is retried. max_attempts == 1
/// means "no retries" — the call behaves exactly like the bare operation.
struct RetryPolicy {
  /// Total tries including the first; must be >= 1.
  std::size_t max_attempts = 3;
  /// Backoff before the second attempt.
  double initial_backoff_seconds = 0.01;
  /// Multiplier applied per subsequent attempt.
  double backoff_multiplier = 2.0;
  /// Ceiling on any single backoff.
  double max_backoff_seconds = 1.0;
  /// Fraction of the backoff that is jittered away deterministically, in
  /// [0, 1]: sleep = backoff · (1 − jitter·u), u = u(seed, attempt).
  double jitter = 0.5;
  /// Seed for the jitter draws; same seed ⇒ same schedule.
  std::uint64_t seed = 0x7e772a17ULL;
};

namespace detail {

inline double retry_uniform01(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace detail

/// Backoff (seconds) to sleep after failed attempt `attempt` (1-based).
/// Pure: capped exponential, jittered by u(policy.seed, attempt).
[[nodiscard]] inline double retry_backoff_seconds(const RetryPolicy& policy,
                                                  std::size_t attempt) {
  require(attempt >= 1, "retry_backoff_seconds: attempt is 1-based");
  double backoff = policy.initial_backoff_seconds;
  for (std::size_t i = 1; i < attempt; ++i) {
    backoff *= policy.backoff_multiplier;
    if (backoff >= policy.max_backoff_seconds) break;
  }
  backoff = std::min(backoff, policy.max_backoff_seconds);
  const double u = detail::retry_uniform01(
      splitmix64(policy.seed ^ static_cast<std::uint64_t>(attempt)));
  return backoff * (1.0 - policy.jitter * u);
}

/// Injectable sleep hook: called with the backoff in seconds between
/// attempts. Tests pass a recorder; production callers usually leave the
/// default (a real sleep).
using RetrySleeper = std::function<void(double seconds)>;

inline void sleep_for_seconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Runs `fn` up to policy.max_attempts times, backing off between attempts,
/// and returns its result. Retries only util::IoError; the final failure is
/// rethrown unchanged. `what` names the operation in logs/diagnostics via
/// the retried exception (left intact) — it exists so call sites document
/// themselves.
template <typename Fn>
auto retry_with_backoff(const RetryPolicy& policy, std::string_view what,
                        Fn&& fn, const RetrySleeper& sleeper = {})
    -> decltype(fn()) {
  require(policy.max_attempts >= 1, "retry: max_attempts must be >= 1");
  require(policy.jitter >= 0.0 && policy.jitter <= 1.0,
          "retry: jitter must be in [0, 1]");
  (void)what;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const IoError&) {
      if (attempt >= policy.max_attempts) throw;
      obs::counter(obs::names::kRetryAttempts).add();
      const double backoff = retry_backoff_seconds(policy, attempt);
      if (sleeper) {
        sleeper(backoff);
      } else {
        sleep_for_seconds(backoff);
      }
    }
  }
}

}  // namespace sgp::util
