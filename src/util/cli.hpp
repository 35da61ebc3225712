// Tiny command-line flag parser used by the examples and bench harnesses.
//
// Accepts `--key=value`, `--key value`, and bare `--flag` (boolean true).
// Unknown positional arguments are collected in order.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace sgp::util {

/// Parsed command line. Typed getters fall back to the supplied default when
/// the flag is absent and throw std::invalid_argument on a malformed value.
/// A number must be the whole value: "16x" or " 7" is malformed, not 16 or 7.
/// Every getter marks its flag read, so a tool can reject the flags its
/// mode never used (reject_unread) instead of silently ignoring them.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t def) const;
  /// Unsigned 64-bit decimal with no sign, the full range of a seed:
  /// "18446744073709551615" parses, "-1" is malformed.
  [[nodiscard]] std::uint64_t get_uint64(const std::string& key,
                                         std::uint64_t def) const;
  /// The same, bounded: a value above `max` is malformed too, so a count
  /// flag is refused before the threads or processes it asks for start.
  [[nodiscard]] std::uint64_t get_uint64(const std::string& key,
                                         std::uint64_t def,
                                         std::uint64_t max) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

  /// Throws util::PreconditionError naming every flag on the command line
  /// that no getter has read (has() does not count): a typo, or a flag the
  /// chosen mode does not use. Call it once every flag the mode uses has
  /// been read.
  void reject_unread() const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace sgp::util
