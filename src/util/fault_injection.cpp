#include "util/fault_injection.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <string>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/splitmix.hpp"

namespace sgp::util {
namespace {

struct PointState {
  FaultConfig config;
  bool armed = false;
  std::uint64_t hits = 0;   // hits observed while armed
  std::uint64_t fires = 0;  // times the point threw
};

// Fast-path gate. kUninit forces a one-time SGP_FAULT_SPEC check; after
// that fault_point() is a single relaxed load while nothing is armed.
enum Mode : int { kUninit = 0, kIdle = 1, kArmed = 2 };

std::atomic<int> g_mode{kUninit};
std::mutex g_mutex;

std::map<std::string, PointState, std::less<>>& points() {
  static std::map<std::string, PointState, std::less<>> instance;
  return instance;
}

void refresh_mode_locked() {
  for (const auto& [name, state] : points()) {
    if (state.armed) {
      g_mode.store(kArmed, std::memory_order_relaxed);
      return;
    }
  }
  g_mode.store(kIdle, std::memory_order_relaxed);
}

// Probability draws are a pure function of (seed, hit index), so a
// fired/skipped sequence replays exactly.
double uniform01(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

[[noreturn]] void throw_for_point(const std::string& point) {
  if (point.rfind("alloc", 0) == 0) throw std::bad_alloc();
  if (point.rfind("solver", 0) == 0) {
    throw ConvergenceError("fault injected: " + point);
  }
  if (point.rfind("proc.worker.exit", 0) == 0) {
    // The chaos primitive for "a worker process was SIGKILLed mid-shard":
    // no exception, no unwinding, no flushes — the process is simply gone,
    // exactly as the coordinator would observe a real kill (137 is the
    // shell's 128+SIGKILL convention).
    std::_Exit(137);
  }
  throw IoError("fault injected: " + point);
}

}  // namespace

void arm_fault(std::string_view point, FaultConfig config) {
  require(!point.empty(), "fault injection: point name must be non-empty");
  require(config.probability >= 0.0 && config.probability <= 1.0,
          "fault injection: probability must be in [0, 1]");
  const std::lock_guard<std::mutex> lock(g_mutex);
  PointState& state = points()[std::string(point)];
  state.config = config;
  state.armed = true;
  state.hits = 0;
  state.fires = 0;
  g_mode.store(kArmed, std::memory_order_relaxed);
}

void disarm_fault(std::string_view point) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = points().find(point);
  if (it != points().end()) it->second.armed = false;
  refresh_mode_locked();
}

void disarm_all_faults() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& [name, state] : points()) state.armed = false;
  g_mode.store(kIdle, std::memory_order_relaxed);
}

std::uint64_t fault_hits(std::string_view point) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = points().find(point);
  return it == points().end() ? 0 : it->second.hits;
}

std::uint64_t fault_fires(std::string_view point) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = points().find(point);
  return it == points().end() ? 0 : it->second.fires;
}

void fault_point(std::string_view point) {
  int mode = g_mode.load(std::memory_order_relaxed);
  if (mode == kIdle) return;
  if (mode == kUninit) {
    arm_faults_from_env();
    mode = g_mode.load(std::memory_order_relaxed);
    if (mode == kIdle) return;
  }

  std::string name;
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    const auto it = points().find(point);
    if (it == points().end() || !it->second.armed) return;
    PointState& state = it->second;
    const std::uint64_t hit = state.hits++;
    const FaultConfig& cfg = state.config;
    if (hit < cfg.after) return;
    if (cfg.max_fires >= 0 &&
        state.fires >= static_cast<std::uint64_t>(cfg.max_fires)) {
      return;
    }
    if (cfg.probability < 1.0 &&
        uniform01(splitmix64(cfg.seed ^ hit)) >= cfg.probability) {
      return;
    }
    ++state.fires;
    name = it->first;
  }
  obs::counter(obs::names::kFaultTrips).add();
  throw_for_point(name);  // outside the lock: what() construction can throw
}

std::size_t arm_faults_from_spec(std::string_view spec) {
  std::size_t armed = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;

    std::size_t colon = std::min(entry.find(':'), entry.size());
    const std::string_view point = entry.substr(0, colon);
    if (point.empty()) {
      throw ParseError("fault spec: empty point name in '" +
                       std::string(entry) + "'");
    }
    FaultConfig cfg;
    std::size_t opt_pos = colon;
    while (opt_pos < entry.size()) {
      ++opt_pos;  // skip ':'
      const std::size_t next =
          std::min(entry.find(':', opt_pos), entry.size());
      const std::string_view kv = entry.substr(opt_pos, next - opt_pos);
      opt_pos = next;
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos || eq == 0 || eq + 1 == kv.size()) {
        throw ParseError("fault spec: expected key=value, got '" +
                         std::string(kv) + "'");
      }
      const std::string_view key = kv.substr(0, eq);
      const std::string value(kv.substr(eq + 1));
      try {
        std::size_t used = 0;
        if (key == "after") {
          cfg.after = std::stoull(value, &used);
        } else if (key == "prob") {
          cfg.probability = std::stod(value, &used);
        } else if (key == "seed") {
          cfg.seed = std::stoull(value, &used);
        } else if (key == "count") {
          cfg.max_fires = std::stoll(value, &used);
        } else {
          throw ParseError("fault spec: unknown key '" + std::string(key) +
                           "'");
        }
        if (used != value.size()) {
          throw ParseError("fault spec: trailing garbage in value '" + value +
                           "'");
        }
      } catch (const ParseError&) {
        throw;
      } catch (const std::exception&) {
        throw ParseError("fault spec: bad value '" + value + "' for key '" +
                         std::string(key) + "'");
      }
    }
    if (cfg.probability < 0.0 || cfg.probability > 1.0) {
      throw ParseError("fault spec: prob must be in [0, 1]");
    }
    arm_fault(point, cfg);
    ++armed;
  }
  return armed;
}

void arm_faults_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* spec = std::getenv("SGP_FAULT_SPEC");
    if (spec != nullptr && *spec != '\0') {
      arm_faults_from_spec(spec);
    } else {
      const std::lock_guard<std::mutex> lock(g_mutex);
      refresh_mode_locked();
    }
  });
  // A later call with nothing armed must still settle the gate out of
  // kUninit so fault_point() stays on its fast path.
  if (g_mode.load(std::memory_order_relaxed) == kUninit) {
    const std::lock_guard<std::mutex> lock(g_mutex);
    refresh_mode_locked();
  }
}

}  // namespace sgp::util
