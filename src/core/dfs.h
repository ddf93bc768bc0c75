#ifndef DFS_CORE_DFS_H_
#define DFS_CORE_DFS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/optimizer.h"
#include "core/scenario.h"
#include "fs/registry.h"
#include "util/statusor.h"

namespace dfs::core {

/// End-user result of a declarative feature-selection request.
struct DfsResult {
  bool success = false;
  /// Selected feature indices (the satisfying subset on success, otherwise
  /// the closest subset found).
  std::vector<int> features;
  std::vector<std::string> feature_names;
  constraints::MetricValues validation_values;
  constraints::MetricValues test_values;
  double search_seconds = 0.0;
  /// Strategy that produced the result.
  std::string strategy;
  /// Model the result was validated with ("LR", "NB", "DT", "SVM").
  std::string model;
  /// Per-evaluation search trace (only when RecordTrace(true)).
  std::vector<TracePoint> trace;
};

/// The user-facing DFS system (Figure 2): declare a dataset, a model, and a
/// constraint set; the system finds a feature subset satisfying every
/// constraint — via a chosen strategy, the meta-learned optimizer, or a
/// parallel portfolio of strategies (Section 6.5).
///
///   DeclarativeFeatureSelection dfs(dataset);
///   dfs.SetModel(ml::ModelKind::kLogisticRegression)
///      .SetConstraints(ConstraintSetBuilder()
///                          .MinF1(0.7)
///                          .MinEqualOpportunity(0.9)
///                          .MaxSearchSeconds(5)
///                          .Build().value())
///      .UseHpo(true);
///   auto result = dfs.Select(fs::StrategyId::kSffs);
class DeclarativeFeatureSelection {
 public:
  /// `dataset` must be preprocessed (see data::Preprocess); it is split
  /// 3:1:1 internally with the given seed.
  explicit DeclarativeFeatureSelection(data::Dataset dataset,
                                       uint64_t seed = 42);

  DeclarativeFeatureSelection& SetModel(ml::ModelKind model);
  DeclarativeFeatureSelection& SetConstraints(
      const constraints::ConstraintSet& constraint_set);
  DeclarativeFeatureSelection& UseHpo(bool use_hpo);
  /// Maximize F1 subject to the constraints (Eq. 2) instead of stopping at
  /// the first satisfying subset.
  DeclarativeFeatureSelection& MaximizeUtility(bool maximize);
  /// Record a per-evaluation search trace into DfsResult::trace.
  DeclarativeFeatureSelection& RecordTrace(bool record);

  /// Runs one strategy.
  StatusOr<DfsResult> Select(fs::StrategyId strategy_id);

  /// Lets a trained DfsOptimizer pick the strategy, then runs it.
  StatusOr<DfsResult> SelectWithOptimizer(const DfsOptimizer& optimizer);

  /// Runs several strategies concurrently (each on its own engine) and
  /// returns the fastest successful result, or the closest-by-distance
  /// result if none succeeds.
  StatusOr<DfsResult> SelectParallel(
      const std::vector<fs::StrategyId>& strategy_ids, int num_threads);

 private:
  StatusOr<MlScenario> BuildScenario() const;
  DfsResult ToResult(RunResult run, fs::StrategyId id) const;

  data::Dataset dataset_;
  uint64_t seed_;
  ml::ModelKind model_ = ml::ModelKind::kLogisticRegression;
  constraints::ConstraintSet constraint_set_;
  bool use_hpo_ = false;
  bool maximize_utility_ = false;
  bool record_trace_ = false;
};

}  // namespace dfs::core

#endif  // DFS_CORE_DFS_H_
