// Typed error taxonomy for sgp API boundaries.
//
// Every failure the library can surface falls into one of a small set of
// categories so that callers (and the CLI tools, which map these onto
// documented exit codes — see docs/robustness.md) can react without string
// matching on what(). All types derive from SgpError, which itself derives
// from std::runtime_error, so pre-taxonomy callers that catch
// std::runtime_error keep working unchanged.
//
// Caller mistakes (bad arguments to a function) are PreconditionError,
// thrown via util::require / SGP_REQUIRE. It derives from
// std::invalid_argument rather than SgpError — they are bugs in the
// calling code, not environmental failures, so the CLI maps them to the
// usage exit code and pre-taxonomy callers that catch
// std::invalid_argument keep working unchanged.
#pragma once

#include <stdexcept>
#include <string>

namespace sgp::util {

/// Coarse category of an SgpError, usable for switch-style dispatch
/// (e.g. the CLI exit-code mapping).
enum class ErrorKind {
  kParse,            ///< malformed input data (edge lists, release headers)
  kIo,               ///< environmental IO failure (open/read/write/rename)
  kConvergence,      ///< an iterative solver exhausted its budget
  kBudgetExhausted,  ///< a release would exceed the session privacy cap
  kLedgerCorrupt,    ///< budget ledger failed validation on load
  kResource,         ///< the host ran out of a resource (memory, …)
  kInternal,         ///< a library invariant broke — a bug, not the caller
};

/// Root of the sgp error taxonomy.
class SgpError : public std::runtime_error {
 public:
  SgpError(ErrorKind kind, const std::string& msg)
      : std::runtime_error(msg), kind_(kind) {}

  [[nodiscard]] ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

/// Input data did not conform to its format (recoverable: fix the input).
class ParseError : public SgpError {
 public:
  explicit ParseError(const std::string& msg)
      : SgpError(ErrorKind::kParse, msg) {}
};

/// The environment failed us: cannot open/read/write/rename a file.
class IoError : public SgpError {
 public:
  explicit IoError(const std::string& msg) : SgpError(ErrorKind::kIo, msg) {}
};

/// An iterative solver (Lanczos, QL) did not converge
/// within its budget. Callers may retry with a larger budget or fall back
/// to a direct method (see cluster/spectral.cpp).
class ConvergenceError : public SgpError {
 public:
  explicit ConvergenceError(const std::string& msg)
      : SgpError(ErrorKind::kConvergence, msg) {}
};

/// Publishing was refused because it would push the session past its
/// total (ε, δ) cap. Nothing was released and no budget was charged.
class BudgetExhaustedError : public SgpError {
 public:
  explicit BudgetExhaustedError(const std::string& msg)
      : SgpError(ErrorKind::kBudgetExhausted, msg) {}
};

/// A budget ledger failed validation (bad magic/version, checksum mismatch,
/// truncation, out-of-order records, or configuration mismatch). The ledger
/// is never partially loaded: the session refuses to start.
class LedgerCorruptError : public SgpError {
 public:
  explicit LedgerCorruptError(const std::string& msg)
      : SgpError(ErrorKind::kLedgerCorrupt, msg) {}
};

/// The host denied a resource the operation needs — today always memory
/// (std::bad_alloc surfaced from a sized allocation such as the n×m release
/// or a materialized projection), typed so CLI callers get the documented
/// internal-error exit instead of an anonymous terminate.
class ResourceError : public SgpError {
 public:
  explicit ResourceError(const std::string& msg)
      : SgpError(ErrorKind::kResource, msg) {}
};

/// A library invariant failed (e.g. an enum value outside its domain
/// reached a dispatch). Always a bug in sgp or memory corruption — callers
/// cannot fix it by changing inputs.
class InternalError : public SgpError {
 public:
  explicit InternalError(const std::string& msg)
      : SgpError(ErrorKind::kInternal, msg) {}
};

/// A caller violated a documented precondition (util::require /
/// SGP_REQUIRE). Deliberately outside the SgpError hierarchy: deriving
/// from std::invalid_argument keeps the CLI usage-error exit code (2) and
/// every pre-taxonomy `catch (std::invalid_argument)` working.
class PreconditionError : public std::invalid_argument {
 public:
  explicit PreconditionError(const std::string& msg)
      : std::invalid_argument(msg) {}
};

}  // namespace sgp::util
