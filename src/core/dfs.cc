#include "core/dfs.h"

#include "util/thread_pool.h"

namespace dfs::core {

DeclarativeFeatureSelection::DeclarativeFeatureSelection(data::Dataset dataset,
                                                         uint64_t seed)
    : dataset_(std::move(dataset)), seed_(seed) {}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::SetModel(
    ml::ModelKind model) {
  model_ = model;
  return *this;
}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::SetConstraints(
    const constraints::ConstraintSet& constraint_set) {
  constraint_set_ = constraint_set;
  return *this;
}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::UseHpo(
    bool use_hpo) {
  use_hpo_ = use_hpo;
  return *this;
}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::MaximizeUtility(
    bool maximize) {
  maximize_utility_ = maximize;
  return *this;
}

DeclarativeFeatureSelection& DeclarativeFeatureSelection::RecordTrace(
    bool record) {
  record_trace_ = record;
  return *this;
}

StatusOr<MlScenario> DeclarativeFeatureSelection::BuildScenario() const {
  Rng rng(seed_);
  return MakeScenario(dataset_, model_, constraint_set_, rng);
}

DfsResult DeclarativeFeatureSelection::ToResult(RunResult run,
                                                fs::StrategyId id) const {
  DfsResult result;
  result.trace = std::move(run.trace);
  result.success = run.success;
  result.features = fs::MaskToIndices(run.selected);
  for (int f : result.features) {
    result.feature_names.push_back(dataset_.feature_names()[f]);
  }
  result.validation_values = run.validation_values;
  result.test_values = run.test_values;
  result.search_seconds = run.search_seconds;
  result.strategy = fs::StrategyIdToString(id);
  result.model = ml::ModelKindToString(model_);
  return result;
}

StatusOr<DfsResult> DeclarativeFeatureSelection::Select(
    fs::StrategyId strategy_id) {
  DFS_ASSIGN_OR_RETURN(MlScenario scenario, BuildScenario());
  EngineOptions options;
  options.use_hpo = use_hpo_;
  options.maximize_f1_utility = maximize_utility_;
  options.record_trace = record_trace_;
  options.seed = seed_;
  DfsEngine engine(std::move(scenario), options);
  auto strategy = fs::CreateStrategy(strategy_id, seed_ ^ 0xABCDEFULL);
  return ToResult(engine.Run(*strategy), strategy_id);
}

StatusOr<DfsResult> DeclarativeFeatureSelection::SelectWithOptimizer(
    const DfsOptimizer& optimizer) {
  DFS_ASSIGN_OR_RETURN(
      ScenarioFeatures features,
      FeaturizeScenario(dataset_, model_, constraint_set_,
                        optimizer.options()));
  DFS_ASSIGN_OR_RETURN(fs::StrategyId chosen, optimizer.Choose(features));
  return Select(chosen);
}

StatusOr<DfsResult> DeclarativeFeatureSelection::SelectParallel(
    const std::vector<fs::StrategyId>& strategy_ids, int num_threads) {
  if (strategy_ids.empty()) {
    return InvalidArgumentError("no strategies given");
  }
  DFS_ASSIGN_OR_RETURN(MlScenario built, BuildScenario());
  // Engines only read the scenario, so every strategy shares one copy.
  const auto scenario = std::make_shared<const MlScenario>(std::move(built));

  // Each worker writes only its own slot, and ParallelFor joins before the
  // slots are read.
  std::vector<std::pair<fs::StrategyId, RunResult>> runs(strategy_ids.size());
  ParallelFor(
      static_cast<int>(strategy_ids.size()), num_threads, [&](int i) {
        EngineOptions options;
        options.use_hpo = use_hpo_;
        options.maximize_f1_utility = maximize_utility_;
        options.record_trace = record_trace_;
        options.seed = seed_ + i;
        DfsEngine engine(scenario, options);
        auto strategy =
            fs::CreateStrategy(strategy_ids[i], seed_ * 31 + i + 1);
        runs[i] = {strategy_ids[i], engine.Run(*strategy)};
      });

  // Fastest success wins; otherwise the closest-by-validation-distance run.
  int best = -1;
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& run = runs[i].second;
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const RunResult& incumbent = runs[best].second;
    const bool better =
        run.success != incumbent.success
            ? run.success
            : (run.success
                   ? run.search_seconds < incumbent.search_seconds
                   : run.best_distance_validation <
                         incumbent.best_distance_validation);
    if (better) best = static_cast<int>(i);
  }
  return ToResult(runs[best].second, runs[best].first);
}

}  // namespace dfs::core
