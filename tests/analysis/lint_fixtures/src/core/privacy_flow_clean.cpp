// R8 silent: the encoder callers hold visible privacy context and the
// privacy value comes from dp/.
#include "core/serialization.hpp"

namespace sgp::core {

void emit_release(std::ostream& os, const dp::PrivacyParams& params,
                  const std::vector<double>& rows) {
  params.validate();
  write_published_header(os, rows.size());
  write_published_doubles(os, rows);
}

double calibrated(const dp::PrivacyParams& params) {
  const double sigma = dp::analytic_gaussian_sigma(params);
  return sigma;
}

}  // namespace sgp::core

namespace sgp::core {

// Clause (c) silent forms: a split routed through dp/, and plain
// propagation with no literal arithmetic.
double split_via_dp(const dp::PrivacyParams& params) {
  const double epsilon_head = dp::split_budget(params, 0.5).partition.epsilon;
  return epsilon_head;
}

double propagate(const dp::PrivacyParams& params) {
  const double epsilon_copy = params.epsilon;
  return epsilon_copy;
}

}  // namespace sgp::core

namespace sgp::core {

// Clause (d) silent: the one front door appends to the ledger.
BudgetLedger::Record Mechanism::charge(const MechanismOptions& options) const {
  BudgetLedger::Record record = ledger_record(options);
  if (options.ledger != nullptr) {
    record.index = options.ledger->size() + 1;
    options.ledger->append(record);
  }
  return record;
}

}  // namespace sgp::core
