#ifndef DFS_METRICS_FAIRNESS_H_
#define DFS_METRICS_FAIRNESS_H_

#include <vector>

namespace dfs::metrics {

/// Equal opportunity (Hardt, Price & Srebro 2016), as used in Section 3:
///
///   EO = 1 - | TPR_minority - TPR_majority |
///
/// where TPR is the true-positive rate among instances with Y = 1 in each
/// sensitive group (groups: 0 = majority, 1 = minority). Returns 1 when a
/// group has no positive instances (no measurable gap).
double EqualOpportunity(const std::vector<int>& y_true,
                        const std::vector<int>& y_pred,
                        const std::vector<int>& groups);

}  // namespace dfs::metrics

#endif  // DFS_METRICS_FAIRNESS_H_
