// Durable append: records a crash-resume path may later trust must reach
// the disk, not just the stream buffer.
//
// A flush() moves bytes from the process into the kernel page cache — it
// survives a process crash but not a machine crash. A record of the shard
// log (core/distributed_publish.cpp) vouches for rows in another file, the
// release: it is synced after those rows are flushed, and resume trusts the
// log only while the release file's size covers every record. Across power
// loss that relies on the filesystem not persisting a file's size ahead of
// its data; ext4's default data=ordered mode forces data out before the
// metadata that records the size.
// DurableAppender fsyncs after every append, so a record itself survives
// power loss: on POSIX each append() is write(2)-to-completion followed by
// fsync(2); elsewhere it degrades to buffered stdio with fflush (no
// stronger primitive exists portably, and the gate keeps the build
// working).
#pragma once

#include <string>
#include <string_view>

namespace sgp::util {

/// Append-only file handle whose append() does not return until the bytes
/// are synced. One fd held open across appends — per-record open/close
/// would double the syscall cost of every checkpoint. Not thread-safe;
/// each log has exactly one writer by design.
class DurableAppender {
 public:
  DurableAppender() = default;
  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;
  /// Closes silently (errors already surfaced by append / explicit close).
  ~DurableAppender();

  /// Opens `path` for appending, creating it if absent; `truncate` discards
  /// existing content first. Throws util::IoError.
  void open(const std::string& path, bool truncate);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Writes all of `data` and fsyncs. Throws util::IoError on either
  /// failure — after which the tail of the file must be treated as torn.
  void append(std::string_view data);

  /// append() with a trailing newline (record logs are line-oriented).
  void append_line(std::string_view line);

  /// Closes the fd, reporting a failed close as util::IoError (a delayed
  /// write error on some filesystems). Idempotent.
  void close();

 private:
  int fd_ = -1;           ///< POSIX fd; -1 when closed
  void* stream_ = nullptr;  ///< non-POSIX fallback: a buffered FILE*
  std::string path_;
};

/// One-shot convenience: open-append-fsync-close in a single call, for
/// callers without a long-lived log (throws util::IoError).
void durable_append(const std::string& path, std::string_view data);

}  // namespace sgp::util
