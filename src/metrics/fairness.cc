#include "metrics/fairness.h"

#include <cmath>

#include "util/logging.h"

namespace dfs::metrics {

double EqualOpportunity(const std::vector<int>& y_true,
                        const std::vector<int>& y_pred,
                        const std::vector<int>& groups) {
  DFS_CHECK_EQ(y_true.size(), y_pred.size());
  DFS_CHECK_EQ(y_true.size(), groups.size());
  double positives[2] = {0.0, 0.0};
  double true_positives[2] = {0.0, 0.0};
  for (size_t i = 0; i < y_true.size(); ++i) {
    if (y_true[i] != 1) continue;
    positives[groups[i]] += 1.0;
    if (y_pred[i] == 1) true_positives[groups[i]] += 1.0;
  }
  if (positives[0] == 0.0 || positives[1] == 0.0) return 1.0;
  const double tpr_majority = true_positives[0] / positives[0];
  const double tpr_minority = true_positives[1] / positives[1];
  return 1.0 - std::fabs(tpr_minority - tpr_majority);
}

}  // namespace dfs::metrics
