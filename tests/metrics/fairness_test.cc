#include "metrics/fairness.h"

#include <gtest/gtest.h>

namespace dfs::metrics {
namespace {

TEST(EqualOpportunityTest, PerfectWhenTprEqual) {
  // Both groups: TPR = 1.
  std::vector<int> y_true = {1, 1, 0, 0};
  std::vector<int> y_pred = {1, 1, 0, 0};
  std::vector<int> groups = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(EqualOpportunity(y_true, y_pred, groups), 1.0);
}

TEST(EqualOpportunityTest, WorstWhenOnlyMajorityServed) {
  // Majority positives all found, minority positives all missed.
  std::vector<int> y_true = {1, 1, 1, 1};
  std::vector<int> y_pred = {1, 1, 0, 0};
  std::vector<int> groups = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(EqualOpportunity(y_true, y_pred, groups), 0.0);
}

TEST(EqualOpportunityTest, IntermediateGap) {
  // Majority TPR = 1, minority TPR = 0.5 -> EO = 0.5.
  std::vector<int> y_true = {1, 1, 1, 1};
  std::vector<int> y_pred = {1, 1, 1, 0};
  std::vector<int> groups = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(EqualOpportunity(y_true, y_pred, groups), 0.5);
}

TEST(EqualOpportunityTest, SymmetricInGroups) {
  std::vector<int> y_true = {1, 1, 1, 1};
  std::vector<int> y_pred = {1, 0, 1, 1};
  std::vector<int> groups_a = {0, 0, 1, 1};
  std::vector<int> groups_b = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(EqualOpportunity(y_true, y_pred, groups_a),
                   EqualOpportunity(y_true, y_pred, groups_b));
}

TEST(EqualOpportunityTest, GroupWithoutPositivesIsFair) {
  std::vector<int> y_true = {1, 0, 0, 0};
  std::vector<int> y_pred = {1, 0, 1, 0};
  std::vector<int> groups = {0, 0, 1, 1};  // minority has no positives
  EXPECT_DOUBLE_EQ(EqualOpportunity(y_true, y_pred, groups), 1.0);
}

TEST(EqualOpportunityTest, IgnoresNegativesEntirely) {
  // Wildly unequal false-positive behavior does not affect EO.
  std::vector<int> y_true = {1, 1, 0, 0, 0, 0};
  std::vector<int> y_pred_fp = {1, 1, 1, 1, 0, 0};
  std::vector<int> y_pred_clean = {1, 1, 0, 0, 0, 0};
  std::vector<int> groups = {0, 1, 0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(EqualOpportunity(y_true, y_pred_fp, groups),
                   EqualOpportunity(y_true, y_pred_clean, groups));
}

}  // namespace
}  // namespace dfs::metrics
