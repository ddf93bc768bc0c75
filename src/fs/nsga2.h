#ifndef DFS_FS_NSGA2_H_
#define DFS_FS_NSGA2_H_

#include <string>
#include <vector>

#include "fs/strategy.h"

namespace dfs::fs {

/// NSGA-II(NR) (Deb et al.; surveyed for FS by Xue et al. 2015): the
/// multi-objective representative. Each active constraint contributes one
/// objective (its shortfall); the elitist genetic loop runs fast
/// non-dominated sorting + crowding-distance selection, binary tournaments,
/// uniform crossover, and bit-flip mutation over feature masks until the
/// engine reports success or the budget expires.
class Nsga2Strategy : public FeatureSelectionStrategy {
 public:
  explicit Nsga2Strategy(uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "NSGA-II(NR)"; }

  StrategyInfo info() const override {
    StrategyInfo info;
    info.objectives = StrategyInfo::Objectives::kMulti;
    info.search = StrategyInfo::Search::kRandomized;
    info.uses_ranking = false;
    return info;
  }

  void Run(EvalContext& context) override;

 private:
  uint64_t seed_;
};

/// Fast non-dominated sort (exposed for testing): returns the front index of
/// each individual (0 = non-dominated) for minimization objectives.
std::vector<int> FastNonDominatedSort(
    const std::vector<std::vector<double>>& objectives);

/// Crowding distance within one front (exposed for testing): `front` holds
/// indices into `objectives`; result is parallel to `front`.
std::vector<double> CrowdingDistance(
    const std::vector<std::vector<double>>& objectives,
    const std::vector<int>& front);

}  // namespace dfs::fs

#endif  // DFS_FS_NSGA2_H_
