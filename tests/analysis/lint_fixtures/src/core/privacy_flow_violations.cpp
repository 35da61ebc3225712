// Deliberate R8 violations: release bytes without privacy context, and a
// privacy value computed outside dp/. Never compiled.
#include "core/serialization.hpp"

namespace sgp::core {

void dump_rows(std::ostream& os, const std::vector<double>& rows) {
  write_published_header(os, rows.size());
}

double scale_noise(double scale) {
  double sigma = scale * 2.0;
  return sigma;
}

}  // namespace sgp::core

namespace sgp::core {

// Clause (c): propagation does not license arithmetic — a literal share
// applied to a privacy value is a hand-rolled budget split.
double split_by_hand(double epsilon) {
  double epsilon_head = epsilon * 0.5;
  return epsilon_head;
}

}  // namespace sgp::core

namespace sgp::core {

// Clause (d): a second budget front door — a session appending its own
// record instead of charging through Mechanism::charge.
void PublishingSession::charge_directly(const BudgetLedger::Record& record) {
  ledger_->append(record);
}

}  // namespace sgp::core
