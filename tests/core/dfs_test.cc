#include "core/dfs.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace dfs::core {
namespace {

constraints::ConstraintSet EasySet() {
  return constraints::ConstraintSetBuilder()
      .MinF1(0.6)
      .MaxSearchSeconds(5.0)
      .Build()
      .value();
}

// Lighter featurization than OptimizerOptions' defaults (as in router_test),
// so a query featurized with the defaults instead reads different values.
OptimizerOptions FastOptimizerOptions() {
  OptimizerOptions options;
  options.landmark_sample_size = 40;
  options.landmark_folds = 2;
  return options;
}

TEST(DfsFacadeTest, SelectReturnsSatisfyingSubsetWithNames) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(300, 3, 601));
  dfs.SetModel(ml::ModelKind::kLogisticRegression).SetConstraints(EasySet());
  auto result = dfs.Select(fs::StrategyId::kSffs);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->success);
  EXPECT_EQ(result->strategy, "SFFS(NR)");
  ASSERT_FALSE(result->features.empty());
  ASSERT_EQ(result->features.size(), result->feature_names.size());
  // Forward selection on this dataset picks a signal feature first.
  EXPECT_TRUE(result->feature_names[0] == "signal_a" ||
              result->feature_names[0] == "signal_b")
      << result->feature_names[0];
  EXPECT_GE(result->test_values.f1, 0.6);
}

TEST(DfsFacadeTest, FairnessConstraintPrunesNothingWhenAlreadyFair) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(300, 2, 602));
  dfs.SetConstraints(constraints::ConstraintSetBuilder()
                         .MinF1(0.55)
                         .MinEqualOpportunity(0.7)
                         .MaxSearchSeconds(5.0)
                         .Build()
                         .value());
  auto result = dfs.Select(fs::StrategyId::kSfs);
  ASSERT_TRUE(result.ok());
  if (result->success) {
    EXPECT_GE(result->validation_values.equal_opportunity, 0.7);
  }
}

TEST(DfsFacadeTest, ImpossibleConstraintsReportFailureWithClosestSubset) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(200, 2, 603));
  dfs.SetConstraints(constraints::ConstraintSetBuilder()
                         .MinF1(0.999)
                         .MaxSearchSeconds(0.2)
                         .Build()
                         .value());
  auto result = dfs.Select(fs::StrategyId::kTpeChi2);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->success);
  EXPECT_FALSE(result->features.empty());  // closest subset still reported
}

TEST(DfsFacadeTest, UtilityModeReturnsHighF1Subset) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(250, 2, 604));
  dfs.SetConstraints(constraints::ConstraintSetBuilder()
                         .MinF1(0.4)
                         .MaxSearchSeconds(0.4)
                         .Build()
                         .value())
      .MaximizeUtility(true);
  auto result = dfs.Select(fs::StrategyId::kSffs);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->success);
  EXPECT_GT(result->test_values.f1, 0.6);  // well above the 0.4 floor
}

TEST(DfsFacadeTest, SelectParallelPicksASuccess) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(250, 3, 605));
  dfs.SetConstraints(EasySet());
  auto result = dfs.SelectParallel(
      {fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2,
       fs::StrategyId::kSimulatedAnnealing},
      /*num_threads=*/2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->success);
  EXPECT_FALSE(result->strategy.empty());
}

TEST(DfsFacadeTest, SelectParallelRejectsEmptyPortfolio) {
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(100, 1, 606));
  dfs.SetConstraints(EasySet());
  EXPECT_FALSE(dfs.SelectParallel({}, 2).ok());
}

TEST(DfsFacadeTest, SelectWithOptimizerUsesChoice) {
  // Optimizer trained so SFFS always succeeds: the facade must route there.
  std::vector<DfsOptimizer::TrainingExample> examples;
  for (int i = 0; i < 10; ++i) {
    DfsOptimizer::TrainingExample example;
    example.features.values.assign(ScenarioFeatures::Names().size(),
                                   0.1 * i);
    example.outcomes[fs::StrategyId::kSffs] = true;
    example.outcomes[fs::StrategyId::kSbs] = false;
    examples.push_back(example);
  }
  DfsOptimizer optimizer;
  ASSERT_TRUE(optimizer
                  .Train(examples,
                         {fs::StrategyId::kSffs, fs::StrategyId::kSbs})
                  .ok());
  DeclarativeFeatureSelection dfs(testing::MakeLinearDataset(250, 2, 607));
  dfs.SetConstraints(EasySet());
  auto result = dfs.SelectWithOptimizer(optimizer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, "SFFS(NR)");
  EXPECT_TRUE(result->success);
}

TEST(DfsFacadeTest, SelectWithOptimizerFeaturizesWithTheOptimizersOptions) {
  const data::Dataset dataset = testing::MakeLinearDataset(250, 2, 611);
  const ml::ModelKind model = ml::ModelKind::kLogisticRegression;
  const constraints::ConstraintSet set = EasySet();
  const uint64_t facade_seed = 42;

  const OptimizerOptions options = FastOptimizerOptions();
  auto query = FeaturizeScenario(dataset, model, set, options);
  OptimizerOptions defaults;
  defaults.seed = facade_seed;
  auto default_query = FeaturizeScenario(dataset, model, set, defaults);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(default_query.ok());
  ASSERT_NE(query->values, default_query->values);

  // SFFS succeeds at the query's own featurization and SFS at the one the
  // default settings give, so the featurization decides the pick.
  std::vector<DfsOptimizer::TrainingExample> examples;
  for (int i = 0; i < 6; ++i) {
    DfsOptimizer::TrainingExample own, other;
    own.features = *query;
    own.outcomes = {{fs::StrategyId::kSffs, true},
                    {fs::StrategyId::kSfs, false}};
    other.features = *default_query;
    other.outcomes = {{fs::StrategyId::kSffs, false},
                      {fs::StrategyId::kSfs, true}};
    examples.push_back(own);
    examples.push_back(other);
  }
  DfsOptimizer optimizer(options);
  ASSERT_TRUE(optimizer
                  .Train(examples,
                         {fs::StrategyId::kSfs, fs::StrategyId::kSffs})
                  .ok());
  auto expected = optimizer.Choose(
      FeaturizeScenario(dataset, model, set, optimizer.options()).value());
  auto default_pick = optimizer.Choose(*default_query);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(default_pick.ok());
  ASSERT_NE(*expected, *default_pick);

  DeclarativeFeatureSelection dfs(dataset, facade_seed);
  dfs.SetModel(model).SetConstraints(set);
  auto result = dfs.SelectWithOptimizer(optimizer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, fs::StrategyIdToString(*expected));
}

}  // namespace
}  // namespace dfs::core
