#include "util/cli.hpp"

#include <charconv>
#include <optional>
#include <system_error>

#include "util/check.hpp"
#include "util/errors.hpp"

namespace sgp::util {
namespace {

/// `text` parsed whole as a T, or nothing: from_chars must consume every
/// character, so trailing text, a leading space or a '+' sign is malformed.
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

bool parse_bool(const std::string& text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  throw PreconditionError("not a boolean: '" + text + "'");
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  require(argc >= 1, "argc must be >= 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";  // bare boolean flag
    }
  }
}

bool CliArgs::has(const std::string& key) const { return flags_.count(key) > 0; }

void CliArgs::reject_unread() const {
  std::string names;
  for (const auto& [key, value] : flags_) {
    if (read_.count(key) == 0) names += (names.empty() ? "--" : ", --") + key;
  }
  if (!names.empty()) {
    throw PreconditionError("unused flag(s) " + names +
                            ": misspelt, or not used in this mode");
  }
}

std::string CliArgs::get_string(const std::string& key,
                                const std::string& def) const {
  read_.insert(key);
  const auto it = flags_.find(key);
  return it == flags_.end() ? def : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t def) const {
  read_.insert(key);
  const auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  if (const auto value = parse_whole<std::int64_t>(it->second)) return *value;
  throw PreconditionError("flag --" + key + " expects an integer, got '" +
                          it->second + "'");
}

std::uint64_t CliArgs::get_uint64(const std::string& key,
                                  std::uint64_t def) const {
  read_.insert(key);
  const auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  // from_chars of an unsigned type already rejects any sign.
  if (const auto value = parse_whole<std::uint64_t>(it->second)) return *value;
  throw PreconditionError("flag --" + key +
                          " expects an unsigned 64-bit integer, got '" +
                          it->second + "'");
}

std::uint64_t CliArgs::get_uint64(const std::string& key, std::uint64_t def,
                                  std::uint64_t max) const {
  const std::uint64_t value = get_uint64(key, def);
  if (value > max) {
    throw PreconditionError("flag --" + key + " must be at most " +
                            std::to_string(max) + ", got " +
                            std::to_string(value));
  }
  return value;
}

double CliArgs::get_double(const std::string& key, double def) const {
  read_.insert(key);
  const auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  if (const auto value = parse_whole<double>(it->second)) return *value;
  throw PreconditionError("flag --" + key + " expects a number, got '" +
                          it->second + "'");
}

bool CliArgs::get_bool(const std::string& key, bool def) const {
  read_.insert(key);
  const auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  try {
    return parse_bool(it->second);
  } catch (const std::exception&) {
    throw PreconditionError("flag --" + key + " expects a boolean, got '" +
                                it->second + "'");
  }
}

}  // namespace sgp::util
