#include "probe.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "random/kernel_variant.hpp"
#include "util/thread_pool.hpp"

namespace sgp::perfbench {
namespace {

/// Value of the first "key[ \t]*: value" line of a /proc text file, or "".
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t colon = line.find_first_not_of(" \t", key.size());
    if (colon == std::string::npos || line[colon] != ':') continue;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

/// Filesystem type of the mount that holds `path`: the longest mount point
/// in /proc/self/mountinfo that prefixes the canonical path.
std::string filesystem_type(const std::string& path) {
  std::error_code ec;
  const std::string target = std::filesystem::canonical(path, ec).string();
  if (ec) return "unknown";
  std::ifstream in("/proc/self/mountinfo");
  std::string line;
  std::string best_mount;
  std::string best_type = "unknown";
  while (std::getline(in, line)) {
    // id parent major:minor root mount-point options [optional...] - type ...
    std::istringstream fields(line);
    std::string id, parent, dev, root, mount;
    fields >> id >> parent >> dev >> root >> mount;
    std::string token;
    while (fields >> token && token != "-") {
    }
    std::string type;
    fields >> type;
    const bool prefixes =
        target.rfind(mount, 0) == 0 &&
        (mount == "/" || target.size() == mount.size() ||
         target[mount.size()] == '/');
    if (prefixes && mount.size() >= best_mount.size()) {
      best_mount = mount;
      best_type = type;
    }
  }
  return best_type;
}

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t read_chars() {
  const std::string value = proc_field("/proc/self/io", "rchar");
  return value.empty() ? 0 : std::stoull(value);
}

bool reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good();
}

double peak_rss_mb() {
  const std::string value = proc_field("/proc/self/status", "VmHWM");
  return value.empty() ? 0.0 : std::stod(value) * 1024.0 / 1e6;
}

HostFingerprint host_fingerprint(const std::string& release_dir) {
  HostFingerprint host;
  host.cpu_model = proc_field("/proc/cpuinfo", "model name");
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  host.nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                   ? static_cast<std::size_t>(CPU_COUNT(&cpus))
                   : 0;
  host.pool_threads = util::global_pool().size();
  host.normal_kernel = std::string(random::to_string(
      random::resolve_normal_kernel(random::KernelVariant::kAuto)));
  host.polynomial_kernel =
      std::string(random::to_string(random::best_polynomial_kernel()));
  host.compiler = SGP_PERFBENCH_COMPILER;
  host.build_type = SGP_PERFBENCH_BUILD_TYPE;
  host.release_fs = filesystem_type(release_dir);
  return host;
}

}  // namespace sgp::perfbench
