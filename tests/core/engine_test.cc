#include "core/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "fs/registry.h"
#include "testing/test_util.h"

namespace dfs::core {
namespace {

MlScenario MakeTestScenario(const constraints::ConstraintSet& set,
                            ml::ModelKind model = ml::ModelKind::kLogisticRegression,
                            int rows = 300, int noise = 4) {
  Rng rng(301);
  auto scenario = MakeScenario(testing::MakeLinearDataset(rows, noise, 300),
                               model, set, rng);
  DFS_CHECK(scenario.ok());
  return std::move(scenario).value();
}

constraints::ConstraintSet EasySet() {
  constraints::ConstraintSet set;
  set.min_f1 = 0.6;
  set.max_search_seconds = 5.0;
  return set;
}

TEST(DfsEngineTest, ContextViewMatchesScenario) {
  const MlScenario scenario = MakeTestScenario(EasySet());
  DfsEngine engine(scenario, EngineOptions());
  EXPECT_EQ(engine.num_features(), 6);
  EXPECT_EQ(engine.max_feature_count(), 6);
  EXPECT_EQ(engine.train_data().num_rows(), scenario.split.train.num_rows());
  EXPECT_EQ(engine.train_data().labels(), scenario.split.train.labels());
}

TEST(DfsEngineTest, MaxFeatureCountFollowsConstraint) {
  constraints::ConstraintSet set = EasySet();
  set.max_feature_fraction = 0.34;
  DfsEngine engine(MakeTestScenario(set), EngineOptions());
  EXPECT_EQ(engine.max_feature_count(), 2);  // floor(0.34 * 6)
}

TEST(DfsEngineTest, SffsSolvesEasyScenario) {
  DfsEngine engine(MakeTestScenario(EasySet()), EngineOptions());
  auto strategy = fs::CreateStrategy(fs::StrategyId::kSffs, 1);
  const RunResult result = engine.Run(*strategy);
  EXPECT_TRUE(result.success);
  EXPECT_FALSE(result.selected.empty());
  EXPECT_GE(result.validation_values.f1, 0.6);
  EXPECT_GE(result.test_values.f1, 0.6);
  EXPECT_GT(result.evaluations, 0);
  EXPECT_FALSE(result.timed_out);
}

TEST(DfsEngineTest, ImpossibleAccuracyFails) {
  constraints::ConstraintSet set;
  set.min_f1 = 0.999;  // unreachable with label noise
  set.max_search_seconds = 0.3;
  DfsEngine engine(MakeTestScenario(set), EngineOptions());
  auto strategy = fs::CreateStrategy(fs::StrategyId::kTpeChi2, 2);
  const RunResult result = engine.Run(*strategy);
  EXPECT_FALSE(result.success);
  // Failure analysis fields populated (Table 4).
  EXPECT_LT(result.best_distance_validation, 1.0);
  EXPECT_GT(result.best_distance_validation, 0.0);
  EXPECT_LT(result.best_distance_test, 1e17);
}

TEST(DfsEngineTest, DeadlineIsEnforced) {
  constraints::ConstraintSet set = EasySet();
  set.min_f1 = 0.999;
  set.max_search_seconds = 0.05;
  // 22 features: exhaustive search cannot finish 2^22 subsets in 50 ms.
  DfsEngine engine(MakeTestScenario(set, ml::ModelKind::kLogisticRegression,
                                    300, 20),
                   EngineOptions());
  auto strategy = fs::CreateStrategy(fs::StrategyId::kExhaustive, 3);
  Stopwatch stopwatch;
  const RunResult result = engine.Run(*strategy);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.timed_out);
  // Generous slack: one evaluation can overshoot the deadline slightly.
  EXPECT_LT(stopwatch.ElapsedSeconds(), 2.0);
}

TEST(DfsEngineTest, StopTokenCancelsARunningSearch) {
  constraints::ConstraintSet set;
  set.min_f1 = 0.999;          // unreachable: the search never succeeds
  set.max_search_seconds = 30.0;  // the test must finish long before this

  // Flips the shared token after a handful of evaluations, simulating a
  // cancel request arriving from another thread mid-search.
  class CancelAfterThree : public fs::FeatureSelectionStrategy {
   public:
    explicit CancelAfterThree(std::shared_ptr<std::atomic<bool>> token)
        : token_(std::move(token)) {}
    std::string name() const override { return "cancel-after-three"; }
    fs::StrategyInfo info() const override { return {}; }
    void Run(fs::EvalContext& context) override {
      int evaluations = 0;
      while (!context.ShouldStop()) {
        fs::FeatureMask mask(context.num_features(), false);
        mask[evaluations % context.num_features()] = true;
        // Distinct single-feature masks cycle, but the cache makes repeats
        // free, so the loop spins fast once the token flips.
        mask[(evaluations / context.num_features()) %
             context.num_features()] = true;
        context.Evaluate(mask);
        if (++evaluations == 3) token_->store(true);
      }
    }

   private:
    std::shared_ptr<std::atomic<bool>> token_;
  };

  EngineOptions options;
  options.stop_token = std::make_shared<std::atomic<bool>>(false);
  DfsEngine engine(MakeTestScenario(set), options);
  CancelAfterThree strategy(options.stop_token);
  Stopwatch stopwatch;
  const RunResult result = engine.Run(strategy);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.timed_out);
  EXPECT_FALSE(result.search_exhausted);
  EXPECT_LE(result.evaluations, 4);  // stops within one evaluation
  EXPECT_LT(stopwatch.ElapsedSeconds(), 5.0);  // nowhere near the 30 s budget
}

TEST(DfsEngineTest, UnsetStopTokenDoesNotCancel) {
  EngineOptions options;
  options.stop_token = std::make_shared<std::atomic<bool>>(false);
  DfsEngine engine(MakeTestScenario(EasySet()), options);
  const RunResult result =
      engine.Run(*fs::CreateStrategy(fs::StrategyId::kSffs, 1));
  EXPECT_FALSE(result.cancelled);
  EXPECT_TRUE(result.success);
}

// The evaluation memo is per run: within a run a repeated Evaluate is a
// hit with an equal outcome, and a second Run on the same engine starts
// cold, evaluating the mask again.
TEST(DfsEngineTest, EvaluationCacheHitsOnRepeatedMask) {
  class EvaluateFullMask : public fs::FeatureSelectionStrategy {
   public:
    explicit EvaluateFullMask(int repeats) : repeats_(repeats) {}
    std::string name() const override { return "evaluate-full-mask"; }
    fs::StrategyInfo info() const override { return {}; }
    void Run(fs::EvalContext& context) override {
      for (int i = 0; i < repeats_; ++i) {
        outcomes.push_back(
            context.Evaluate(fs::FullMask(context.num_features())));
      }
    }
    std::vector<fs::EvalOutcome> outcomes;

   private:
    int repeats_;
  };

  DfsEngine engine(MakeTestScenario(EasySet()), EngineOptions());
  EvaluateFullMask twice(2);
  const RunResult first = engine.Run(twice);
  EXPECT_EQ(first.evaluations, 1);
  EXPECT_EQ(first.cache_hits, 1);
  ASSERT_EQ(twice.outcomes.size(), 2u);
  const fs::EvalOutcome& evaluated = twice.outcomes[0];
  const fs::EvalOutcome& hit = twice.outcomes[1];
  EXPECT_TRUE(evaluated.evaluated);
  EXPECT_EQ(hit.evaluated, evaluated.evaluated);
  EXPECT_EQ(hit.success, evaluated.success);
  EXPECT_EQ(hit.satisfied_validation, evaluated.satisfied_validation);
  EXPECT_EQ(hit.objective, evaluated.objective);
  EXPECT_EQ(hit.distance, evaluated.distance);
  EXPECT_EQ(hit.seconds, evaluated.seconds);
  EXPECT_EQ(hit.validation.f1, evaluated.validation.f1);

  EvaluateFullMask once(1);
  const RunResult second = engine.Run(once);
  EXPECT_EQ(second.evaluations, 1);
  EXPECT_EQ(second.cache_hits, 0);
}

TEST(DfsEngineTest, CacheCountsRecorded) {
  const MlScenario scenario = MakeTestScenario(EasySet());

  // A strategy that evaluates the same mask twice.
  class RepeatStrategy : public fs::FeatureSelectionStrategy {
   public:
    std::string name() const override { return "repeat"; }
    fs::StrategyInfo info() const override { return {}; }
    void Run(fs::EvalContext& context) override {
      const fs::FeatureMask mask = fs::FullMask(context.num_features());
      context.Evaluate(mask);
      context.Evaluate(mask);
    }
  };
  EngineOptions options;
  DfsEngine engine(scenario, options);
  RepeatStrategy strategy;
  const RunResult result = engine.Run(strategy);
  EXPECT_EQ(result.evaluations, 1);
  EXPECT_EQ(result.cache_hits, 1);
}

// The strategy-level cache-hit counter sees exactly the run's hits.
TEST(DfsEngineTest, StrategyCacheHitCounterMatchesRunResult) {
  class RepeatFullMask : public fs::FeatureSelectionStrategy {
   public:
    std::string name() const override { return "repeat-full-mask"; }
    fs::StrategyInfo info() const override { return {}; }
    void Run(fs::EvalContext& context) override {
      for (int i = 0; i < 3; ++i) {
        context.Evaluate(fs::FullMask(context.num_features()));
      }
    }
  };
  RepeatFullMask strategy;
  obs::Counter& hits = obs::MetricsRegistry::Global().counter(
      "strategy." + obs::SanitizeLabel(strategy.name()) + ".cache_hits");
  const uint64_t before = hits.value();
  DfsEngine engine(MakeTestScenario(EasySet()), EngineOptions());
  const RunResult result = engine.Run(strategy);
  EXPECT_EQ(result.cache_hits, 2);
  EXPECT_EQ(hits.value() - before, static_cast<uint64_t>(result.cache_hits));
}

// Constraints no subset meets (label noise rules out F1 >= 0.999), so only
// the search space or the budget can end a run.
constraints::ConstraintSet UnreachableSet() {
  constraints::ConstraintSet set;
  set.min_f1 = 0.999;
  set.max_search_seconds = 30.0;  // the tests must finish long before this
  return set;
}

TEST(DfsEngineTest, TopKRankingEndsExhaustedOnceEveryKIsTried) {
  DfsEngine engine(MakeTestScenario(UnreachableSet()), EngineOptions());
  ASSERT_EQ(engine.max_feature_count(), 6);
  auto strategy = fs::CreateStrategy(fs::StrategyId::kTpeChi2, 2);
  const RunResult result = engine.Run(*strategy);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.search_exhausted);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.evaluations, 6);  // one per k in [1, 6]
  EXPECT_LT(result.search_seconds, 10.0);
}

// Proposes random masks of one or two features until told to stop.
class RandomSmallMasks : public fs::FeatureSelectionStrategy {
 public:
  std::string name() const override { return "random-small-masks"; }
  fs::StrategyInfo info() const override { return {}; }
  void Run(fs::EvalContext& context) override {
    const int n = context.num_features();
    while (!context.ShouldStop()) {
      fs::FeatureMask mask(n, false);
      mask[context.rng().UniformInt(0, n - 1)] = true;
      mask[context.rng().UniformInt(0, n - 1)] = true;
      context.Evaluate(mask);
    }
  }
};

// 4 features, at most 2 selected: C(4,1) + C(4,2) = 10 feasible masks.
MlScenario FourFeaturesAtMostTwo(double max_search_seconds) {
  constraints::ConstraintSet set = UnreachableSet();
  set.max_feature_fraction = 0.5;
  set.max_search_seconds = max_search_seconds;
  return MakeTestScenario(set, ml::ModelKind::kLogisticRegression, 300, 2);
}

TEST(DfsEngineTest, RunEndsExhaustedOnceEveryFeasibleMaskIsMemoized) {
  DfsEngine engine(FourFeaturesAtMostTwo(30.0), EngineOptions());
  ASSERT_EQ(engine.num_features(), 4);
  ASSERT_EQ(engine.max_feature_count(), 2);
  RandomSmallMasks strategy;
  const RunResult result = engine.Run(strategy);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.search_exhausted);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.evaluations, 10);
  EXPECT_LT(result.search_seconds, 10.0);
}

// Over-bound masks (the full set SBS and RFE start from) are memoized but
// do not count toward covering the feasible space.
TEST(DfsEngineTest, OverBoundMaskDoesNotStopTheRunEarly) {
  class FullMaskThenSmallMasks : public fs::FeatureSelectionStrategy {
   public:
    std::string name() const override { return "full-then-small"; }
    fs::StrategyInfo info() const override { return {}; }
    void Run(fs::EvalContext& context) override {
      const int n = context.num_features();
      context.Evaluate(fs::FullMask(n));
      for (int a = 0; a < n; ++a) {
        for (int b = a; b < n; ++b) {  // a == b: the singletons
          stop_before_each.push_back(context.ShouldStop());
          fs::FeatureMask mask(n, false);
          mask[a] = true;
          mask[b] = true;
          context.Evaluate(mask);
        }
      }
      stop_after_all = context.ShouldStop();
    }
    std::vector<bool> stop_before_each;
    bool stop_after_all = false;
  };

  DfsEngine engine(FourFeaturesAtMostTwo(30.0), EngineOptions());
  FullMaskThenSmallMasks strategy;
  const RunResult result = engine.Run(strategy);
  EXPECT_EQ(strategy.stop_before_each, std::vector<bool>(10, false));
  EXPECT_TRUE(strategy.stop_after_all);
  EXPECT_EQ(result.evaluations, 11);
  EXPECT_TRUE(result.search_exhausted);
}

TEST(DfsEngineTest, PrivacyConstraintTrainsDpModel) {
  constraints::ConstraintSet set = EasySet();
  set.min_f1 = 0.2;
  set.privacy_epsilon = 100.0;  // mild noise
  DfsEngine engine(MakeTestScenario(set), EngineOptions());
  auto strategy = fs::CreateStrategy(fs::StrategyId::kSfs, 5);
  const RunResult result = engine.Run(*strategy);
  // Generous epsilon + low bar: should succeed with the DP model.
  EXPECT_TRUE(result.success);
}

TEST(DfsEngineTest, EoConstraintMeasured) {
  constraints::ConstraintSet set = EasySet();
  set.min_f1 = 0.2;
  set.min_equal_opportunity = 0.5;
  DfsEngine engine(MakeTestScenario(set), EngineOptions());
  auto strategy = fs::CreateStrategy(fs::StrategyId::kSfs, 6);
  const RunResult result = engine.Run(*strategy);
  if (result.success) {
    EXPECT_GE(result.validation_values.equal_opportunity, 0.5);
    EXPECT_GE(result.test_values.equal_opportunity, 0.5);
  }
}

TEST(DfsEngineTest, HpoImprovesOrMatchesValidationF1) {
  const MlScenario scenario =
      MakeTestScenario(EasySet(), ml::ModelKind::kDecisionTree);
  EngineOptions default_options;
  EngineOptions hpo_options;
  hpo_options.use_hpo = true;
  DfsEngine default_engine(scenario, default_options);
  DfsEngine hpo_engine(scenario, hpo_options);
  const fs::FeatureMask mask = fs::FullMask(6);
  default_engine.Run(*fs::CreateStrategy(fs::StrategyId::kOriginalFeatureSet, 1));
  hpo_engine.Run(*fs::CreateStrategy(fs::StrategyId::kOriginalFeatureSet, 1));
  const fs::EvalOutcome plain = default_engine.Evaluate(mask);
  const fs::EvalOutcome tuned = hpo_engine.Evaluate(mask);
  ASSERT_TRUE(plain.evaluated);
  ASSERT_TRUE(tuned.evaluated);
  EXPECT_GE(tuned.validation.f1 + 1e-9, plain.validation.f1);
}

TEST(DfsEngineTest, UtilityModeKeepsSearchingAndMaximizesF1) {
  constraints::ConstraintSet set;
  set.min_f1 = 0.3;  // easy
  set.max_search_seconds = 0.4;
  EngineOptions options;
  options.maximize_f1_utility = true;
  // 22 features: SA cannot cover 4M masks in the budget, so it runs to the
  // deadline (a covered space would end the run early, in utility mode too).
  DfsEngine engine(MakeTestScenario(set, ml::ModelKind::kLogisticRegression,
                                    300, 20),
                   options);
  auto strategy = fs::CreateStrategy(fs::StrategyId::kSimulatedAnnealing, 7);
  const RunResult result = engine.Run(*strategy);
  EXPECT_TRUE(result.success);
  // Utility mode runs to the deadline, not to first success.
  EXPECT_GE(result.search_seconds, 0.3);
  EXPECT_GT(result.test_f1, 0.3);
}

TEST(DfsEngineTest, EmptyMaskNotEvaluated) {
  DfsEngine engine(MakeTestScenario(EasySet()), EngineOptions());
  engine.Run(*fs::CreateStrategy(fs::StrategyId::kOriginalFeatureSet, 8));
  const fs::EvalOutcome outcome = engine.Evaluate(fs::FeatureMask(6, 0));
  EXPECT_FALSE(outcome.evaluated);
}

TEST(DfsEngineTest, TraceRecordsEveryUncachedEvaluation) {
  EngineOptions options;
  options.record_trace = true;
  DfsEngine engine(MakeTestScenario(EasySet()), options);
  auto strategy = fs::CreateStrategy(fs::StrategyId::kSfs, 9);
  const RunResult result = engine.Run(*strategy);
  EXPECT_EQ(static_cast<int>(result.trace.size()), result.evaluations);
  ASSERT_FALSE(result.trace.empty());
  double last_seconds = -1.0;
  for (const TracePoint& point : result.trace) {
    EXPECT_GE(point.seconds, last_seconds);  // monotone timestamps
    last_seconds = point.seconds;
    EXPECT_GE(point.selected_features, 1);
    EXPECT_GE(point.distance, 0.0);
  }
  if (result.success) {
    // Candidate batches are attempted in full (the determinism contract),
    // so evaluations recorded after the successful one may trail it in the
    // trace; the success point itself must still be present.
    bool any_success = false;
    for (const TracePoint& point : result.trace) {
      any_success = any_success || point.success;
    }
    EXPECT_TRUE(any_success);
  }
}

TEST(DfsEngineTest, TraceOffByDefault) {
  DfsEngine engine(MakeTestScenario(EasySet()), EngineOptions());
  auto strategy = fs::CreateStrategy(fs::StrategyId::kSfs, 9);
  const RunResult result = engine.Run(*strategy);
  EXPECT_TRUE(result.trace.empty());
}

TEST(DfsEngineTest, FittedImportancesMatchSelectionSize) {
  DfsEngine engine(MakeTestScenario(EasySet()), EngineOptions());
  auto importances = engine.FittedImportances(fs::IndicesToMask(6, {0, 3}));
  ASSERT_TRUE(importances.ok());
  EXPECT_EQ(importances->size(), 2u);
}

TEST(DfsEngineTest, FittedImportancesFallsBackToPermutationForNb) {
  const MlScenario scenario =
      MakeTestScenario(EasySet(), ml::ModelKind::kNaiveBayes);
  DfsEngine engine(scenario, EngineOptions());
  auto importances = engine.FittedImportances(fs::FullMask(6));
  ASSERT_TRUE(importances.ok());
  EXPECT_EQ(importances->size(), 6u);
}

// RFE(model) on NB draws its permutation importances from the engine RNG.
// Run resets that RNG with the rest of the per-run state, so a reused
// engine reproduces a fresh engine's run whatever ran on it before.
TEST(DfsEngineTest, RunResetsEngineRngBetweenRuns) {
  const auto scenario = std::make_shared<const MlScenario>(MakeTestScenario(
      UnreachableSet(), ml::ModelKind::kNaiveBayes, 300, 10));
  DfsEngine fresh(scenario, EngineOptions());
  const RunResult expected =
      fresh.Run(*fs::CreateStrategy(fs::StrategyId::kRfe, 3));
  ASSERT_FALSE(expected.timed_out);

  DfsEngine reused(scenario, EngineOptions());
  reused.Run(*fs::CreateStrategy(fs::StrategyId::kRfe, 3));
  reused.Run(*fs::CreateStrategy(fs::StrategyId::kSfs, 4));
  const RunResult actual =
      reused.Run(*fs::CreateStrategy(fs::StrategyId::kRfe, 3));
  ASSERT_FALSE(actual.timed_out);
  EXPECT_EQ(actual.selected, expected.selected);
  EXPECT_EQ(actual.evaluations, expected.evaluations);
  EXPECT_EQ(actual.best_distance_validation, expected.best_distance_validation);
}

}  // namespace
}  // namespace dfs::core
