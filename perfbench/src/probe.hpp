// Process and host probes for the benchmark driver: clocks, CPU time, read
// volume and the peak-RSS watermark of this process (all from /proc or
// libc), plus the host fingerprint printed with every run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace sgp::perfbench {

/// Seconds on the steady clock since an arbitrary fixed point.
[[nodiscard]] double now_seconds();

/// User + system CPU seconds this process has consumed, all threads.
[[nodiscard]] double process_cpu_seconds();

/// Bytes this process has read through read()-family calls so far
/// (`rchar` of /proc/self/io); 0 when the file is unavailable.
[[nodiscard]] std::uint64_t read_chars();

/// Returns free heap pages to the kernel (glibc malloc_trim), then resets
/// the peak-RSS watermark (VmHWM) to the current resident set by writing
/// "5" to /proc/self/clear_refs. The trim keeps memory an earlier phase
/// freed but the allocator kept from counting toward the next peak. False
/// when the kernel refuses the reset, in which case peak_rss_mb() keeps
/// reporting the peak since process start.
bool reset_peak_rss();

/// VmHWM of this process in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// What a number from this benchmark depends on besides the code: numbers
/// from hosts or filesystems whose fingerprints differ are not one series.
struct HostFingerprint {
  std::string cpu_model;
  std::size_t nproc = 0;         ///< CPUs this process may run on
  std::size_t pool_threads = 0;  ///< size of the library's global pool
  std::string normal_kernel;     ///< resolve_normal_kernel(kAuto)
  std::string polynomial_kernel; ///< best_polynomial_kernel()
  std::string compiler;
  std::string build_type;
  std::string release_fs;        ///< filesystem type releases are written to
};

[[nodiscard]] HostFingerprint host_fingerprint(const std::string& release_dir);

}  // namespace sgp::perfbench
