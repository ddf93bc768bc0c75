#include "fs/tpe_mask.h"

namespace dfs::fs {

void TpeMaskStrategy::Run(EvalContext& context) {
  TpeBinaryOptimizer optimizer(context.num_features(),
                               context.max_feature_count(), options_, seed_);
  while (!context.ShouldStop()) {
    // Propose a round of masks up front (speculative batching: later
    // proposals in the round do not see the earlier ones' losses), then
    // evaluate them as one batch and record every result in order.
    // Duplicate proposals within a round cost nothing extra: the engine
    // schedules only the first occurrence and serves repeats from its
    // per-run memo.
    std::vector<FeatureMask> proposals;
    proposals.reserve(proposal_batch_);
    for (int i = 0; i < proposal_batch_; ++i) {
      proposals.push_back(optimizer.Propose());
    }
    const std::vector<EvalOutcome> outcomes =
        context.EvaluateBatch(proposals);
    for (size_t i = 0; i < proposals.size(); ++i) {
      if (!outcomes[i].evaluated) return;
      optimizer.Record(proposals[i], outcomes[i].objective);
    }
  }
}

}  // namespace dfs::fs
