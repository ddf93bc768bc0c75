#ifndef DFS_FS_PORTFOLIO_H_
#define DFS_FS_PORTFOLIO_H_

#include <memory>
#include <string>
#include <vector>

#include "fs/registry.h"
#include "fs/strategy.h"

namespace dfs::fs {

/// Dynamic strategy switching (the paper's "Meta learning" future-work
/// direction, Section 7): interleave several FS strategies on ONE shared
/// evaluation budget instead of running them on separate machines
/// (Section 6.5). Each member runs for a time slice; when the slice
/// expires the next member takes over. Members restart their search each
/// round, but the engine's evaluation cache makes replaying an earlier
/// search path nearly free, so progress effectively persists — a simple
/// warm-start, as the paper suggests.
class TimeSlicedPortfolio : public FeatureSelectionStrategy {
 public:
  TimeSlicedPortfolio(std::vector<StrategyId> members, uint64_t seed);

  std::string name() const override;

  StrategyInfo info() const override {
    StrategyInfo info;
    info.objectives = StrategyInfo::Objectives::kSingle;
    info.search = StrategyInfo::Search::kRandomized;
    info.uses_ranking = false;
    return info;
  }

  void Run(EvalContext& context) override;

 private:
  std::vector<StrategyId> member_ids_;
  std::vector<std::unique_ptr<FeatureSelectionStrategy>> members_;
};

}  // namespace dfs::fs

#endif  // DFS_FS_PORTFOLIO_H_
