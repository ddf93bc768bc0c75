#ifndef DFS_FS_SIMULATED_ANNEALING_H_
#define DFS_FS_SIMULATED_ANNEALING_H_

#include <string>

#include "fs/strategy.h"

namespace dfs::fs {

/// SA(NR): simulated annealing over the binary feature-decision vector
/// (Doak 1992; Metropolis et al. 1953). Neighbor moves flip one feature;
/// worse moves are accepted with probability exp(-Δ/T) under geometric
/// cooling; prolonged stalls trigger a random restart.
class SimulatedAnnealingStrategy : public FeatureSelectionStrategy {
 public:
  explicit SimulatedAnnealingStrategy(uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "SA(NR)"; }

  StrategyInfo info() const override {
    StrategyInfo info;
    info.objectives = StrategyInfo::Objectives::kSingle;
    info.search = StrategyInfo::Search::kRandomized;
    info.uses_ranking = false;
    return info;
  }

  void Run(EvalContext& context) override;

 private:
  uint64_t seed_;
};

}  // namespace dfs::fs

#endif  // DFS_FS_SIMULATED_ANNEALING_H_
