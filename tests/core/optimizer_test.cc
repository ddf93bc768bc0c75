#include "core/optimizer.h"

#include <gtest/gtest.h>

#include "data/benchmark_suite.h"
#include "testing/test_util.h"

namespace dfs::core {
namespace {

TEST(FeaturizeTest, VectorMatchesDeclaredNames) {
  const data::Dataset dataset = testing::MakeLinearDataset(200, 3, 501);
  constraints::ConstraintSet set;
  set.min_f1 = 0.7;
  set.min_equal_opportunity = 0.9;
  auto features = FeaturizeScenario(
      dataset, ml::ModelKind::kLogisticRegression, set, OptimizerOptions());
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->values.size(), ScenarioFeatures::Names().size());
}

TEST(FeaturizeTest, ModelOneHotIsExclusive) {
  const data::Dataset dataset = testing::MakeLinearDataset(150, 1, 502);
  constraints::ConstraintSet set;
  for (ml::ModelKind model : {ml::ModelKind::kLogisticRegression,
                              ml::ModelKind::kNaiveBayes,
                              ml::ModelKind::kDecisionTree}) {
    auto features =
        FeaturizeScenario(dataset, model, set, OptimizerOptions());
    ASSERT_TRUE(features.ok());
    // Indices 2..4 are the one-hot block.
    const double sum = features->values[2] + features->values[3] +
                       features->values[4];
    EXPECT_DOUBLE_EQ(sum, 1.0);
  }
}

TEST(FeaturizeTest, ConstraintThresholdsEncodedWithDefaults) {
  const data::Dataset dataset = testing::MakeLinearDataset(150, 1, 503);
  constraints::ConstraintSet set;
  set.min_f1 = 0.66;
  auto features = FeaturizeScenario(dataset, ml::ModelKind::kNaiveBayes, set,
                                    OptimizerOptions());
  ASSERT_TRUE(features.ok());
  const auto names = ScenarioFeatures::Names();
  auto value_of = [&](const std::string& name) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return features->values[i];
    }
    ADD_FAILURE() << "missing feature " << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(value_of("min_f1"), 0.66);
  EXPECT_DOUBLE_EQ(value_of("max_feature_fraction"), 1.0);  // default
  EXPECT_DOUBLE_EQ(value_of("min_eo"), 0.0);                // default
  EXPECT_DOUBLE_EQ(value_of("has_privacy"), 0.0);
}

TEST(FeaturizeTest, LandmarkSlackTracksThresholdHardness) {
  const data::Dataset dataset = testing::MakeLinearDataset(300, 2, 504);
  constraints::ConstraintSet easy, hard;
  easy.min_f1 = 0.5;
  hard.min_f1 = 0.99;
  OptimizerOptions options;
  auto easy_features = FeaturizeScenario(
      dataset, ml::ModelKind::kLogisticRegression, easy, options);
  auto hard_features = FeaturizeScenario(
      dataset, ml::ModelKind::kLogisticRegression, hard, options);
  ASSERT_TRUE(easy_features.ok());
  ASSERT_TRUE(hard_features.ok());
  const size_t slack_index = 12;  // landmark_f1_slack
  ASSERT_EQ(ScenarioFeatures::Names()[slack_index], "landmark_f1_slack");
  EXPECT_GT(easy_features->values[slack_index],
            hard_features->values[slack_index]);
}

DfsOptimizer::TrainingExample MakeExample(double rows_signal, bool sfs_wins,
                                          uint64_t seed) {
  // Synthetic meta-learning task: SFS succeeds iff rows_signal > 0.5,
  // chi2 succeeds iff rows_signal <= 0.5.
  Rng rng(seed);
  DfsOptimizer::TrainingExample example;
  example.features.values.assign(ScenarioFeatures::Names().size(), 0.0);
  example.features.values[0] = rows_signal + 0.02 * rng.Normal();
  example.features.values[5] = rng.Uniform();  // irrelevant noise
  example.outcomes[fs::StrategyId::kSfs] = sfs_wins;
  example.outcomes[fs::StrategyId::kTpeChi2] = !sfs_wins;
  return example;
}

TEST(DfsOptimizerTest, LearnsWhichStrategyFitsWhichScenario) {
  std::vector<DfsOptimizer::TrainingExample> examples;
  Rng rng(505);
  for (int i = 0; i < 120; ++i) {
    const double signal = rng.Uniform();
    examples.push_back(MakeExample(signal, signal > 0.5, 506 + i));
  }
  DfsOptimizer optimizer;
  ASSERT_TRUE(optimizer
                  .Train(examples, {fs::StrategyId::kSfs,
                                    fs::StrategyId::kTpeChi2})
                  .ok());
  // Query far on each side of the boundary.
  int correct = 0;
  for (double signal : {0.05, 0.1, 0.15, 0.85, 0.9, 0.95}) {
    ScenarioFeatures query;
    query.values.assign(ScenarioFeatures::Names().size(), 0.0);
    query.values[0] = signal;
    auto chosen = optimizer.Choose(query);
    ASSERT_TRUE(chosen.ok());
    const fs::StrategyId expected =
        signal > 0.5 ? fs::StrategyId::kSfs : fs::StrategyId::kTpeChi2;
    correct += *chosen == expected ? 1 : 0;
  }
  EXPECT_GE(correct, 5);
}

TEST(DfsOptimizerTest, ProbabilitiesInUnitInterval) {
  std::vector<DfsOptimizer::TrainingExample> examples;
  Rng rng(507);
  for (int i = 0; i < 40; ++i) {
    examples.push_back(MakeExample(rng.Uniform(), rng.Bernoulli(0.5), i));
  }
  DfsOptimizer optimizer;
  ASSERT_TRUE(optimizer
                  .Train(examples,
                         {fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2})
                  .ok());
  ScenarioFeatures query;
  query.values.assign(ScenarioFeatures::Names().size(), 0.3);
  auto probabilities = optimizer.PredictProbabilities(query);
  ASSERT_TRUE(probabilities.ok());
  for (const auto& [id, p] : *probabilities) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(DfsOptimizerTest, DegenerateLabelsGetConstantProbability) {
  std::vector<DfsOptimizer::TrainingExample> examples;
  for (int i = 0; i < 20; ++i) {
    auto example = MakeExample(0.5, true, i);
    example.outcomes[fs::StrategyId::kSfs] = true;        // always succeeds
    example.outcomes[fs::StrategyId::kTpeChi2] = false;   // never succeeds
    examples.push_back(example);
  }
  DfsOptimizer optimizer;
  ASSERT_TRUE(optimizer
                  .Train(examples,
                         {fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2})
                  .ok());
  ScenarioFeatures query;
  query.values.assign(ScenarioFeatures::Names().size(), 0.5);
  auto probabilities = optimizer.PredictProbabilities(query);
  ASSERT_TRUE(probabilities.ok());
  EXPECT_DOUBLE_EQ(probabilities->at(fs::StrategyId::kSfs), 1.0);
  EXPECT_DOUBLE_EQ(probabilities->at(fs::StrategyId::kTpeChi2), 0.0);
  auto chosen = optimizer.Choose(query);
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(*chosen, fs::StrategyId::kSfs);
}

TEST(DfsOptimizerTest, UntrainedRejectsQueries) {
  DfsOptimizer optimizer;
  ScenarioFeatures query;
  query.values.assign(ScenarioFeatures::Names().size(), 0.0);
  EXPECT_FALSE(optimizer.Choose(query).ok());
  EXPECT_FALSE(optimizer.Train({}, {fs::StrategyId::kSfs}).ok());
}

// A tiny pool: three scenarios on small benchmark datasets with
// millisecond budgets. With no strategies, every record has no outcomes.
ExperimentPool TinyPool(std::vector<fs::StrategyId> strategies) {
  ExperimentConfig config;
  config.num_scenarios = 3;
  config.use_hpo = false;
  config.seed = 31;
  config.row_scale = 0.05;
  config.sampler.min_search_seconds = 0.02;
  config.sampler.max_search_seconds = 0.05;
  config.strategies = std::move(strategies);
  auto pool = ExperimentPool::Run(config, /*verbose=*/false);
  DFS_CHECK(pool.ok()) << pool.status().ToString();
  return std::move(pool).value();
}

// One example per record, in record order: the record's featurization and
// its strategy -> success map.
void ExpectOneExamplePerRecord(const ExperimentPool& pool) {
  OptimizerOptions options;
  options.landmark_sample_size = 40;
  options.landmark_folds = 2;
  auto examples = BuildTrainingExamples(pool, options);
  ASSERT_TRUE(examples.ok()) << examples.status().ToString();
  const auto& records = pool.records();
  ASSERT_EQ(examples->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const ScenarioRecord& record = records[i];
    auto dataset = data::GenerateBenchmarkDataset(
        record.dataset_index, pool.config().seed, pool.config().row_scale);
    ASSERT_TRUE(dataset.ok());
    auto features = FeaturizeScenario(*dataset, record.model,
                                      record.constraint_set, options);
    ASSERT_TRUE(features.ok());
    EXPECT_EQ((*examples)[i].features.values, features->values) << i;
    std::map<fs::StrategyId, bool> outcomes;
    for (const StrategyOutcome& outcome : record.outcomes) {
      outcomes[outcome.id] = outcome.success;
    }
    EXPECT_EQ((*examples)[i].outcomes, outcomes) << i;
  }
}

TEST(BuildTrainingExamplesTest, OneExamplePerRecordInRecordOrder) {
  const ExperimentPool pool =
      TinyPool({fs::StrategyId::kOriginalFeatureSet, fs::StrategyId::kSfs,
                fs::StrategyId::kTpeChi2});
  for (const ScenarioRecord& record : pool.records()) {
    ASSERT_EQ(record.outcomes.size(), 3u);
  }
  ExpectOneExamplePerRecord(pool);
}

TEST(BuildTrainingExamplesTest, RecordWithoutOutcomesGivesEmptyOutcomeMap) {
  const ExperimentPool pool = TinyPool({});
  for (const ScenarioRecord& record : pool.records()) {
    ASSERT_TRUE(record.outcomes.empty());
  }
  ExpectOneExamplePerRecord(pool);
}

}  // namespace
}  // namespace dfs::core
