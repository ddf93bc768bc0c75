#include "fs/top_k.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace dfs::fs {

TopKRankingStrategy::TopKRankingStrategy(RankerKind kind, uint64_t seed,
                                         const TpeOptions& tpe_options)
    : kind_(kind), ranker_(CreateRanker(kind)), seed_(seed),
      tpe_options_(tpe_options) {}

std::string TopKRankingStrategy::name() const {
  return "TPE(" + ranker_->name() + ")";
}

StrategyInfo TopKRankingStrategy::info() const {
  StrategyInfo info;
  info.objectives = StrategyInfo::Objectives::kSingle;
  info.search = StrategyInfo::Search::kRandomized;
  info.uses_ranking = true;
  info.ranking = ranker_->name();
  return info;
}

void TopKRankingStrategy::Run(EvalContext& context) {
  const int n = context.num_features();
  // The ranking is the strategy's own pre-search cost, invisible to
  // Evaluate()-based accounting — "fs.ranking.<family>_seconds" is how
  // MCFS's spectral-embedding overhead shows up in metrics snapshots.
  auto scores = [&] {
    auto& registry = obs::MetricsRegistry::Global();
    obs::ScopedTimer timer(
        registry.histogram("fs.ranking." +
                           obs::SanitizeLabel(ranker_->name()) + "_seconds"),
        &registry.counter("fs.rankings_computed"));
    obs::TraceSpan span("fs.ranking", ranker_->name());
    return ranker_->Rank(context.train_data(), context.rng());
  }();
  if (!scores.ok()) {
    DFS_LOG(WARNING) << name() << " ranking failed: "
                     << scores.status().ToString();
    return;
  }
  if (context.ShouldStop()) return;  // ranking ate the whole budget
  const std::vector<int> order = ArgsortDescending(scores.value());

  const int max_k = std::min(n, context.max_feature_count());
  TpeIntegerOptimizer optimizer(1, max_k, tpe_options_, seed_);
  // Once every k was tried, further proposals only replay memoized
  // evaluations: the search is exhausted, not out of time.
  while (!context.ShouldStop() && !optimizer.Exhausted()) {
    const int k = optimizer.Propose();
    FeatureMask mask(n, 0);
    for (int i = 0; i < k; ++i) mask[order[i]] = 1;
    const EvalOutcome outcome = context.Evaluate(mask);
    if (!outcome.evaluated) break;
    optimizer.Record(k, outcome.objective);
  }
}

}  // namespace dfs::fs
