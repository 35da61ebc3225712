// R8 privacy-flow: published bytes only leave through functions that
// visibly hold privacy context, and ε/δ/σ values only originate in dp/.
//
//   (a) Any function whose body calls the publishing encoders
//       (write_published_header / write_published_doubles) must receive
//       the privacy context in its parameter list — a session, ledger,
//       options, or params argument. A helper that writes release bytes
//       without being handed that context is exactly how an uncharged
//       release path appears. The encoder layer itself
//       (src/core/serialization.*) is exempt: it defines the functions.
//
//   (b) An assignment to an ε/δ/σ-named variable must take its value from
//       the dp layer: the right-hand side mentions a dp:: name or another
//       privacy-named value (propagation). Pure literals are R5's
//       business; ambient arithmetic (`sigma = scale * 2`) fires here —
//       calibration formulas belong in src/dp/.
//
//   (c) Propagation does not license arithmetic: a right-hand side that
//       combines a privacy-named value with a numeric literal through
//       +|-|*|/ and no dp:: call (`eps1 = epsilon * 0.5`) is a hand-rolled
//       budget split. Mechanism implementations must split budgets through
//       dp::split_budget / dp::laplace_scale so composition stays auditable
//       in one layer.
//
//   (d) One budget front door: a call of append on a ledger-named object
//       (`ledger_->append(`, `options.ledger->append(`) fires anywhere but
//       in Mechanism::charge and the ledger itself (src/core/ledger.*). A
//       second charging path is where a record and its release can drift
//       apart — a σ the release does not carry, a charge that never
//       happens.
#include <string_view>

#include "analysis/rule_support.hpp"
#include "analysis/rules.hpp"

namespace sgp::analysis {
namespace {

using detail::has_prefix;
using detail::has_suffix;
using detail::ident;
using detail::is_privacy_identifier;
using detail::punct;

/// Identifiers that count as privacy context in a parameter list.
bool is_context_identifier(const std::string& name) {
  return has_suffix(name, "Session") || has_suffix(name, "Ledger") ||
         has_suffix(name, "Options") || has_suffix(name, "Params") ||
         name == "PublishedGraph";
}

void check_encoder_callers(const SourceFile& file, const FileIndex& index,
                           std::vector<Finding>& out) {
  const std::vector<Token>& t = index.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier || !punct(t, i + 1, "(")) continue;
    const std::string& name = t[i].text;
    if (name != "write_published_header" &&
        name != "write_published_doubles") {
      continue;
    }
    const FunctionDef* def = enclosing_function(index, i);
    if (def == nullptr) continue;  // file scope: a declaration, not a call
    bool has_context = false;
    for (std::size_t j = def->params_begin;
         j < def->params_end && !has_context; ++j) {
      has_context = t[j].kind == TokKind::kIdentifier &&
                    is_context_identifier(t[j].text);
    }
    if (!has_context) {
      out.push_back({"R8", file.path, t[i].line, name,
                     "privacy-flow: '" + def->name + "' calls " + name +
                         "() without receiving privacy context — release "
                         "bytes must flow through a session/ledger/params-"
                         "bearing signature so the budget charge is "
                         "auditable",
                     "pass the dp::PrivacyParams (or the session/options "
                     "that carry them) into '" + def->name +
                         "' and validate them"});
    }
  }
}

void check_privacy_initializers(const SourceFile& file,
                                const FileIndex& index,
                                std::vector<Finding>& out) {
  if (has_prefix(file.path, "src/dp/")) return;
  const std::vector<Token>& t = index.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier ||
        !is_privacy_identifier(t[i].text) || !punct(t, i + 1, "=")) {
      continue;
    }
    // Right-hand side: tokens to the statement end at bracket depth 0.
    int depth = 0;
    std::size_t rhs_begin = i + 2, rhs_end = rhs_begin;
    bool has_dp = false, has_privacy_ident = false, has_string = false;
    bool has_arithmetic = false;
    std::size_t ident_count = 0, literal_count = 0;
    for (std::size_t j = rhs_begin; j < t.size(); ++j) {
      if (t[j].kind == TokKind::kPunct) {
        const std::string& p = t[j].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") {
          if (depth == 0) break;
          --depth;
        }
        if (depth == 0 && (p == ";" || p == ",")) break;
        if (p == "+" || p == "-" || p == "*" || p == "/") {
          has_arithmetic = true;
        }
      }
      rhs_end = j + 1;
      if (t[j].kind == TokKind::kIdentifier) {
        ++ident_count;
        if (t[j].text == "dp" && punct(t, j + 1, "::")) has_dp = true;
        if (is_privacy_identifier(t[j].text)) has_privacy_ident = true;
      }
      if (t[j].kind == TokKind::kNumber) ++literal_count;
      if (t[j].kind == TokKind::kString) has_string = true;
    }
    if (rhs_end == rhs_begin) continue;  // no initializer
    if (has_dp) continue;                // dp-rooted
    // A string RHS is a *name* that mentions sigma/epsilon (metric-name
    // constants like kPublishSigma = "publish.sigma"), not a value.
    if (has_string) continue;
    if (has_privacy_ident) {
      // Clause (c): propagation plus literal arithmetic is a hand-rolled
      // budget split (`eps1 = epsilon * 0.5`). Plain propagation
      // (`eps = options.params.epsilon`) is fine.
      if (literal_count == 0 || !has_arithmetic) continue;
      out.push_back({"R8", file.path, t[i].line, t[i].text + " = ...",
                     "privacy-flow: '" + t[i].text +
                         "' hand-rolls budget arithmetic on a privacy "
                         "value outside src/dp/ — splitting or scaling "
                         "(ε, δ) by literals belongs in the dp layer",
                     "split the budget via dp::split_budget (or add the "
                     "formula to src/dp/ and call it) instead of inlining "
                     "the arithmetic"});
      continue;
    }
    if (ident_count == 0 && literal_count > 0) continue;  // R5's domain
    out.push_back({"R8", file.path, t[i].line, t[i].text + " = ...",
                   "privacy-flow: '" + t[i].text +
                       "' initialized from an expression with no dp:: "
                       "name and no privacy-named input — calibration "
                       "formulas live in src/dp/",
                   "compute the value via a dp/ function (e.g. "
                   "dp::analytic_gaussian_sigma) or rename the variable "
                   "if it is not a privacy parameter"});
  }
}

bool is_ledger_name(const std::string& name) {
  return name.find("ledger") != std::string::npos ||
         name.find("Ledger") != std::string::npos;
}

/// Whether `def` is the front door, `Mechanism::charge`: its name token sits
/// just before the parameter list's '('.
bool is_front_door(const std::vector<Token>& t, const FunctionDef& def) {
  const std::size_t name = def.params_begin - 2;
  return name >= 2 && ident(t, name, "charge") && punct(t, name - 1, "::") &&
         ident(t, name - 2, "Mechanism");
}

void check_ledger_appends(const SourceFile& file, const FileIndex& index,
                          std::vector<Finding>& out) {
  const std::vector<Token>& t = index.tokens;
  for (std::size_t i = 2; i + 1 < t.size(); ++i) {
    if (!ident(t, i, "append") || !punct(t, i + 1, "(") ||
        !(punct(t, i - 1, "->") || punct(t, i - 1, ".")) ||
        t[i - 2].kind != TokKind::kIdentifier ||
        !is_ledger_name(t[i - 2].text)) {
      continue;
    }
    const FunctionDef* def = enclosing_function(index, i);
    if (def != nullptr && is_front_door(t, *def)) continue;
    out.push_back({"R8", file.path, t[i].line,
                   t[i - 2].text + t[i - 1].text + "append",
                   "privacy-flow: '" + t[i - 2].text +
                       "' is appended to outside Mechanism::charge — a "
                       "second charging path can record a σ the release "
                       "does not carry, or skip the charge",
                   "charge through core::Mechanism::charge (a session uses "
                   "the projection mechanism's) instead of appending to the "
                   "ledger directly"});
  }
}

}  // namespace

void rule_privacy_flow(const SourceFile& file, const FileIndex& index,
                       std::vector<Finding>& out) {
  if (!has_prefix(file.path, "src/")) return;
  if (!has_prefix(file.path, "src/core/ledger.")) {
    check_ledger_appends(file, index, out);
  }
  if (file.path == "src/core/serialization.cpp" ||
      file.path == "src/core/serialization.hpp") {
    return;
  }
  check_encoder_callers(file, index, out);
  check_privacy_initializers(file, index, out);
}

}  // namespace sgp::analysis
