#include "analysis/rules.hpp"

#include <algorithm>
#include <unordered_set>

#include "analysis/rule_support.hpp"
#include "obs/metric_names.hpp"
#include "util/fault_point_names.hpp"

namespace sgp::analysis {
namespace {

using detail::has_prefix;
using detail::has_suffix;
using detail::ident;
using detail::is_privacy_identifier;
using detail::punct;

bool is_header(const std::string& path) {
  return has_suffix(path, ".hpp") || has_suffix(path, ".hh") ||
         has_suffix(path, ".h");
}

/// Library/tool code the error- and metric-discipline rules govern. Tests
/// legitimately throw ad-hoc errors and register ad-hoc metric names.
bool in_library_scope(const std::string& path) {
  return has_prefix(path, "src/") || has_prefix(path, "tools/");
}

/// True when token j continues the logical line of token j-1 (same
/// physical line, or separated only by a backslash-newline splice).
bool same_logical_line(const std::vector<Token>& t, std::size_t j) {
  return j < t.size() &&
         (t[j].line == t[j - 1].line || t[j].follows_splice);
}

// --- R1 rng-discipline ----------------------------------------------------

const std::unordered_set<std::string_view>& banned_rng_identifiers() {
  static const std::unordered_set<std::string_view> kSet = {
      // engines / seeds
      "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "knuth_b", "ranlux24", "ranlux48",
      "ranlux24_base", "ranlux48_base", "random_device", "seed_seq",
      "linear_congruential_engine", "mersenne_twister_engine",
      "subtract_with_carry_engine", "discard_block_engine",
      "independent_bits_engine", "shuffle_order_engine",
      // distributions
      "uniform_int_distribution", "uniform_real_distribution",
      "normal_distribution", "bernoulli_distribution",
      "binomial_distribution", "negative_binomial_distribution",
      "geometric_distribution", "poisson_distribution",
      "exponential_distribution", "gamma_distribution",
      "weibull_distribution", "extreme_value_distribution",
      "lognormal_distribution", "chi_squared_distribution",
      "cauchy_distribution", "fisher_f_distribution",
      "student_t_distribution", "discrete_distribution",
      "piecewise_constant_distribution", "piecewise_linear_distribution",
  };
  return kSet;
}

// Hardware entropy intrinsics are banned in *all* scopes, src/random/
// included: a release must be regenerable from (seed, counter) alone, and
// rdrand/rdseed inject machine state no tag can describe. Listed by the
// exact spellings the intrinsic headers define.
const std::unordered_set<std::string_view>& banned_hardware_rng() {
  static const std::unordered_set<std::string_view> kSet = {
      "_rdrand16_step", "_rdrand32_step", "_rdrand64_step",
      "_rdseed16_step", "_rdseed32_step", "_rdseed64_step",
      "__builtin_ia32_rdrand16_step", "__builtin_ia32_rdrand32_step",
      "__builtin_ia32_rdrand64_step", "__builtin_ia32_rdseed16_step",
      "__builtin_ia32_rdseed32_step", "__builtin_ia32_rdseed64_step",
  };
  return kSet;
}

// `#include <header>` at position i of the `include` identifier; returns
// the header name ("immintrin.h") or empty. Handles the dot the tokenizer
// splits ("immintrin" "." "h") and backslash-newline-continued directives.
std::string angle_include_at(const std::vector<Token>& t, std::size_t i) {
  if (!(i >= 1 && punct(t, i - 1, "#") && punct(t, i + 1, "<"))) return {};
  if (!same_logical_line(t, i + 1)) return {};
  std::string header;
  for (std::size_t j = i + 2; j < t.size() && !punct(t, j, ">"); ++j) {
    if (!same_logical_line(t, j)) return {};
    header += t[j].text;
  }
  return header;
}

void r1(const SourceFile& file, const std::vector<Token>& t,
        std::vector<Finding>& out) {
  const bool rng_home = has_prefix(file.path, "src/random/");
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    const std::string& name = t[i].text;
    if (banned_hardware_rng().count(name) != 0) {
      out.push_back({"R1", file.path, t[i].line, name,
                     "rng-discipline: hardware entropy '" + name +
                         "' — releases must regenerate from (seed, counter); "
                         "no scope is exempt, src/random/ included",
                     "derive randomness from the counter RNG "
                     "(random/counter_rng.hpp)"});
      continue;
    }
    // SIMD intrinsic headers stay inside the kernel layer: vector code
    // elsewhere would bypass the dispatch/equality contract the kernel TUs
    // are tested under (see DESIGN.md).
    if (!rng_home && name == "include") {
      const std::string header = angle_include_at(t, i);
      if (header == "immintrin.h" || header == "x86intrin.h") {
        out.push_back({"R1", file.path, t[i].line, "<" + header + ">",
                       "rng-discipline: #include <" + header +
                           "> outside src/random/ — SIMD kernels live in the "
                           "dispatched random/ layer only",
                       "call the dispatched kernel API "
                       "(random/kernel_variant.hpp) instead"});
      }
    }
  }
  if (rng_home) return;
  const auto& banned = banned_rng_identifiers();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    const std::string& name = t[i].text;
    if (banned.count(name) != 0) {
      out.push_back({"R1", file.path, t[i].line, name,
                     "rng-discipline: '" + name +
                         "' outside src/random/ — use the counter RNG "
                         "(random/counter_rng.hpp)",
                     "use random::CounterRng (or the dp/ samplers built "
                     "on it)"});
      continue;
    }
    // C library RNG: only when actually called, so a member named `rand`
    // in unrelated code does not fire.
    if ((name == "rand" || name == "srand" || name == "drand48" ||
         name == "lrand48") &&
        punct(t, i + 1, "(") && !punct(t, i >= 1 ? i - 1 : 0, ".") &&
        !(i >= 1 && punct(t, i - 1, "->"))) {
      out.push_back({"R1", file.path, t[i].line, name,
                     "rng-discipline: C '" + name +
                         "()' outside src/random/ — use the counter RNG",
                     "use random::CounterRng"});
      continue;
    }
    // #include <random>, splice-aware.
    if (name == "include" && angle_include_at(t, i) == "random") {
      out.push_back({"R1", file.path, t[i].line, "<random>",
                     "rng-discipline: #include <random> outside "
                     "src/random/",
                     "drop the include; random/counter_rng.hpp provides "
                     "the sanctioned engine"});
    }
  }
}

// --- R2 error-taxonomy ----------------------------------------------------

const std::unordered_set<std::string_view>& bare_std_errors() {
  static const std::unordered_set<std::string_view> kSet = {
      "runtime_error", "logic_error",     "invalid_argument",
      "domain_error",  "length_error",    "out_of_range",
      "range_error",   "overflow_error",  "underflow_error",
  };
  return kSet;
}

void r2(const SourceFile& file, const std::vector<Token>& t,
        std::vector<Finding>& out) {
  if (!in_library_scope(file.path)) return;
  const bool taxonomy_home = file.path == "src/util/errors.hpp" ||
                             file.path == "src/util/check.hpp";
  if (!taxonomy_home) {
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (ident(t, i, "throw") && ident(t, i + 1, "std") &&
          punct(t, i + 2, "::") && t[i + 3].kind == TokKind::kIdentifier &&
          bare_std_errors().count(t[i + 3].text) != 0) {
        out.push_back({"R2", file.path, t[i].line,
                       "std::" + t[i + 3].text,
                       "error-taxonomy: bare 'throw std::" + t[i + 3].text +
                           "' — throw a util/errors.hpp taxonomy type (or "
                           "use util/check.hpp) so the CLI exit-code "
                           "contract holds",
                       "throw util::PreconditionError / util::IoError / "
                       "util::ParseError as appropriate"});
      }
    }
  }
  // Tools must map exceptions to exit codes through run_tool().
  if (has_prefix(file.path, "tools/") && has_suffix(file.path, ".cpp")) {
    int main_line = 0;
    bool has_run_tool = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (ident(t, i, "main") && punct(t, i + 1, "(")) main_line = t[i].line;
      if (ident(t, i, "run_tool")) has_run_tool = true;
    }
    if (main_line != 0 && !has_run_tool) {
      out.push_back({"R2", file.path, main_line, "main",
                     "error-taxonomy: tool main() does not route through "
                     "tools::run_tool() — exceptions would bypass the "
                     "exit-code contract",
                     "wrap the body in sgp::tools::run_tool([&]() -> int "
                     "{ ... })"});
    }
  }
}

// --- R3 metric-registry ---------------------------------------------------

void r3(const SourceFile& file, const std::vector<Token>& t,
        const RuleOptions& opt, std::vector<Finding>& out) {
  // bench/ and examples/ are checked too, but may coin names under their
  // own prefix — ad-hoc harness metrics should not pollute the registry.
  std::string local_prefix;
  if (has_prefix(file.path, "bench/")) {
    local_prefix = "bench.";
  } else if (has_prefix(file.path, "examples/")) {
    local_prefix = "example.";
  } else if (!in_library_scope(file.path)) {
    return;
  }
  if (file.path == "src/obs/metric_names.hpp") return;
  const std::unordered_set<std::string_view> canonical(
      opt.canonical_metric_names.begin(), opt.canonical_metric_names.end());
  auto check = [&](const Token& call, const Token& name_tok,
                   const Token* after) {
    // A '+' after the literal means the name is assembled at runtime
    // (e.g. "tool." + task) — out of a static checker's reach.
    if (after != nullptr && after->kind == TokKind::kPunct &&
        after->text == "+") {
      return;
    }
    if (canonical.count(name_tok.text) != 0) return;
    if (!local_prefix.empty() &&
        name_tok.text.rfind(local_prefix, 0) == 0) {
      return;
    }
    const std::string hint =
        local_prefix.empty()
            ? "add the constant to src/obs/metric_names.hpp (and the "
              "docs/observability.md row) or fix the typo"
            : "prefix harness-local names with \"" + local_prefix +
                  "\" or register the constant";
    out.push_back({"R3", file.path, name_tok.line, name_tok.text,
                   "metric-registry: name '" + name_tok.text + "' passed to " +
                       call.text +
                       "() is not in src/obs/metric_names.hpp — add the "
                       "constant there (one source of truth) or fix the "
                       "typo",
                   hint});
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    const std::string& name = t[i].text;
    if (name == "counter" || name == "gauge" || name == "histogram" ||
        name == "log_event") {
      if (punct(t, i + 1, "(") && i + 2 < t.size() &&
          t[i + 2].kind == TokKind::kString) {
        check(t[i], t[i + 2], i + 3 < t.size() ? &t[i + 3] : nullptr);
      }
    } else if (name == "Span" || name == "ScopedTimer") {
      // Both `Span("x")` (temporary / member init) and the declaration
      // form `ScopedTimer timer("x")`.
      std::size_t j = i + 1;
      if (j < t.size() && t[j].kind == TokKind::kIdentifier) ++j;
      if (punct(t, j, "(") && j + 1 < t.size() &&
          t[j + 1].kind == TokKind::kString) {
        check(t[i], t[j + 1], j + 2 < t.size() ? &t[j + 2] : nullptr);
      }
    }
  }
}

// --- R4 header-hygiene ----------------------------------------------------

void r4(const SourceFile& file, const std::vector<Token>& t,
        std::vector<Finding>& out) {
  if (!is_header(file.path)) return;
  bool pragma_once = false;
  for (std::size_t i = 0; i + 2 < t.size() && !pragma_once; ++i) {
    pragma_once = punct(t, i, "#") && ident(t, i + 1, "pragma") &&
                  ident(t, i + 2, "once");
  }
  if (!pragma_once) {
    out.push_back({"R4", file.path, 1, "#pragma once",
                   "header-hygiene: header is missing '#pragma once'",
                   "add '#pragma once' as the first directive"});
  }
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (ident(t, i, "using") && ident(t, i + 1, "namespace")) {
      out.push_back({"R4", file.path, t[i].line, "using namespace",
                     "header-hygiene: 'using namespace' in a header leaks "
                     "into every includer",
                     "qualify the names or scope the using-declaration "
                     "inside a function"});
    }
  }
}

// --- R5 privacy-literals --------------------------------------------------

void r5(const SourceFile& file, const std::vector<Token>& t,
        std::vector<Finding>& out) {
  // Benches and examples set privacy parameters too — they must draw them
  // from dp/defaults.hpp, not re-invent them inline. Tests stay exempt
  // (they probe arbitrary parameter points by design).
  if (!has_prefix(file.path, "src/") && !has_prefix(file.path, "bench/") &&
      !has_prefix(file.path, "examples/")) {
    return;
  }
  if (has_prefix(file.path, "src/dp/")) return;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier ||
        !is_privacy_identifier(t[i].text)) {
      continue;
    }
    if (!punct(t, i + 1, "=") && !punct(t, i + 1, "{")) continue;
    std::size_t j = i + 2;
    if (punct(t, j, "-")) ++j;
    if (j >= t.size() || !is_float_literal(t[j])) continue;
    if (number_value(t[j]) == 0.0) continue;  // zero-init is inert
    out.push_back({"R5", file.path, t[i].line,
                   t[i].text + " = " + t[j].text,
                   "privacy-literals: non-zero ε/δ/σ literal '" + t[j].text +
                       "' assigned to '" + t[i].text +
                       "' outside src/dp/ — privacy parameters belong in "
                       "src/dp/ (see dp/defaults.hpp)",
                   "use dp::kDefaultEpsilon / dp::kDefaultDeltaSplit (or "
                   "add a named default to dp/defaults.hpp)"});
  }
}

}  // namespace

bool finding_less(const Finding& a, const Finding& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.snippet < b.snippet;
}

RuleOptions default_rule_options() {
  RuleOptions opt;
  opt.canonical_metric_names.reserve(std::size(obs::names::kAllNames));
  for (std::string_view n : obs::names::kAllNames) {
    opt.canonical_metric_names.emplace_back(n);
  }
  opt.canonical_fault_points.reserve(
      std::size(util::fault_points::kAllFaultPoints));
  for (std::string_view n : util::fault_points::kAllFaultPoints) {
    opt.canonical_fault_points.emplace_back(n);
  }
  return opt;
}

const std::vector<RuleInfo>& all_rule_infos() {
  static const std::vector<RuleInfo> kInfos = {
      {"R1", "rng-discipline",
       "All randomness flows through the counter RNG; no <random> engines, "
       "C rand(), or hardware entropy outside src/random/."},
      {"R2", "error-taxonomy",
       "No bare std exception throws in library code; tool main() routes "
       "through run_tool() so exit codes hold."},
      {"R3", "metric-registry",
       "Metric/span name literals must be registered in "
       "src/obs/metric_names.hpp (bench./example. prefixes excepted)."},
      {"R4", "header-hygiene",
       "Headers carry #pragma once and never 'using namespace'."},
      {"R5", "privacy-literals",
       "Non-zero ε/δ/σ floating literals only in src/dp/ — privacy "
       "parameters are policy, not scatter."},
      {"R6", "include-layering",
       "Includes follow the architecture DAG, contain no cycles, and "
       "src/random/ kernel internals stay in-layer."},
      {"R7", "concurrency-discipline",
       "No raw threads, async, manual lock calls, or ad-hoc sleeps outside "
       "src/util/; parallel_for bodies never block on pool APIs."},
      {"R8", "privacy-flow",
       "Publishing encoders are called only from privacy-context-bearing "
       "signatures; ε/δ/σ values originate in dp/ expressions; budget "
       "splits on privacy values are never hand-rolled outside src/dp/; "
       "only Mechanism::charge appends to a ledger."},
      {"R9", "fault-registry",
       "Fault-point name literals must be canonical "
       "(util/fault_point_names.hpp)."},
      {"R10", "span-hygiene",
       "No discarded Span/ScopedTimer temporaries; log_event only under an "
       "active trace scope."},
  };
  return kInfos;
}

std::vector<Finding> run_rules_indexed(const SourceFile& file,
                                       const RuleOptions& opt,
                                       const std::vector<std::string>& rule_ids,
                                       FileIndex& index_out) {
  index_out = build_file_index(file);
  const std::vector<Token>& toks = index_out.tokens;
  auto enabled = [&](std::string_view id) {
    return rule_ids.empty() ||
           std::find(rule_ids.begin(), rule_ids.end(), id) != rule_ids.end();
  };
  std::vector<Finding> out;
  if (enabled("R1")) r1(file, toks, out);
  if (enabled("R2")) r2(file, toks, out);
  if (enabled("R3")) r3(file, toks, opt, out);
  if (enabled("R4")) r4(file, toks, out);
  if (enabled("R5")) r5(file, toks, out);
  // R6 is cross-file: the lint driver feeds every file's include summary
  // to check_include_graph (analysis/include_graph.hpp).
  if (enabled("R7")) rule_concurrency(file, index_out, out);
  if (enabled("R8")) rule_privacy_flow(file, index_out, out);
  if (enabled("R9")) rule_fault_registry(file, index_out, opt, out);
  if (enabled("R10")) rule_span_hygiene(file, index_out, out);
  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

std::vector<Finding> run_rules(const SourceFile& file,
                               const RuleOptions& opt,
                               const std::vector<std::string>& rule_ids) {
  FileIndex scratch;
  return run_rules_indexed(file, opt, rule_ids, scratch);
}

void rule_rng_discipline(const SourceFile& file,
                         const std::vector<Token>& toks,
                         std::vector<Finding>& out) {
  r1(file, toks, out);
}
void rule_error_taxonomy(const SourceFile& file,
                         const std::vector<Token>& toks,
                         std::vector<Finding>& out) {
  r2(file, toks, out);
}
void rule_metric_registry(const SourceFile& file,
                          const std::vector<Token>& toks,
                          const RuleOptions& opt,
                          std::vector<Finding>& out) {
  r3(file, toks, opt, out);
}
void rule_header_hygiene(const SourceFile& file,
                         const std::vector<Token>& toks,
                         std::vector<Finding>& out) {
  r4(file, toks, out);
}
void rule_privacy_literals(const SourceFile& file,
                           const std::vector<Token>& toks,
                           std::vector<Finding>& out) {
  r5(file, toks, out);
}

}  // namespace sgp::analysis
