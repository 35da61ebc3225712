#include "dp/budget.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sgp::dp {
namespace {

TEST(BudgetSplitTest, PartsSumExactlyToTheTotal) {
  const PrivacyParams total{2.0, 1e-6};
  const BudgetSplit split = split_budget(total, 0.75);
  EXPECT_DOUBLE_EQ(split.partition.epsilon, 1.5);
  EXPECT_DOUBLE_EQ(split.counts.epsilon, 0.5);
  EXPECT_DOUBLE_EQ(split.partition.epsilon + split.counts.epsilon,
                   total.epsilon);
  EXPECT_DOUBLE_EQ(split.partition.delta + split.counts.delta, total.delta);
}

TEST(BudgetSplitTest, BothPartsAreValidBudgets) {
  const BudgetSplit split = split_budget({1.0, 1e-6}, 0.5);
  split.partition.validate();
  split.counts.validate();
}

TEST(BudgetSplitTest, RejectsDegenerateShares) {
  const PrivacyParams total{1.0, 1e-6};
  EXPECT_THROW((void)split_budget(total, 0.0), std::invalid_argument);
  EXPECT_THROW((void)split_budget(total, 1.0), std::invalid_argument);
  EXPECT_THROW((void)split_budget(total, -0.5), std::invalid_argument);
  EXPECT_THROW((void)split_budget({-1.0, 1e-6}, 0.5), std::invalid_argument);
}

TEST(DeltaSplitTest, PartsSumExactlyToTheTotal) {
  const DeltaSplit split = split_delta(1e-5, 0.5);
  EXPECT_DOUBLE_EQ(split.first, 5e-6);
  EXPECT_DOUBLE_EQ(split.first + split.second, 1e-5);
  EXPECT_GT(split.second, 0.0);
}

TEST(DeltaSplitTest, RejectsDegenerateArguments) {
  EXPECT_THROW((void)split_delta(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)split_delta(1e-6, 0.0), std::invalid_argument);
  EXPECT_THROW((void)split_delta(1e-6, 1.0), std::invalid_argument);
}

TEST(NodeLevelEpsilonTest, GroupPrivacyDividesByTheDegreeCap) {
  EXPECT_DOUBLE_EQ(node_level_edge_epsilon(4.0, 16), 0.25);
  EXPECT_DOUBLE_EQ(node_level_edge_epsilon(1.0, 1), 1.0);
  EXPECT_THROW((void)node_level_edge_epsilon(0.0, 16), std::invalid_argument);
  EXPECT_THROW((void)node_level_edge_epsilon(1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace sgp::dp
