#ifndef DFS_FS_EVOLUTIONARY_H_
#define DFS_FS_EVOLUTIONARY_H_

#include <string>

#include "fs/strategy.h"

namespace dfs::fs {

/// BPSO(NR) — binary particle swarm optimization over the feature-decision
/// vector (Kennedy & Eberhart; applied to FS by Xue et al. 2012, cited in
/// Section 4.1). An *extension* beyond the paper's 16 benchmarked
/// strategies, from the same single-objective randomized-NR taxonomy leaf
/// as SA(NR)/TPE(NR). Velocities evolve continuously; positions are
/// re-sampled through a sigmoid of the velocity.
class BinaryPsoStrategy : public FeatureSelectionStrategy {
 public:
  explicit BinaryPsoStrategy(uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "BPSO(NR)"; }

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

/// GA(NR) — single-objective genetic algorithm over feature masks, the
/// classic evolutionary-computation baseline of the Xue et al. survey.
/// Extension beyond the benchmarked 16 (NSGA-II covers the multi-objective
/// branch there); useful as an ablation of NSGA-II's multi-objective
/// machinery.
class GeneticAlgorithmStrategy : public FeatureSelectionStrategy {
 public:
  explicit GeneticAlgorithmStrategy(uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "GA(NR)"; }

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

#endif  // DFS_FS_EVOLUTIONARY_H_
