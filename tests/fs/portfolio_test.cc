#include "fs/portfolio.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/scenario.h"
#include "testing/test_util.h"

namespace dfs::fs {
namespace {

TEST(PortfolioTest, NameListsMembers) {
  TimeSlicedPortfolio portfolio({StrategyId::kSfs, StrategyId::kTpeChi2}, 1);
  EXPECT_EQ(portfolio.name(), "Portfolio(SFS(NR)+TPE(Chi2))");
}

TEST(PortfolioTest, SolvesWhatAnyMemberSolves) {
  // Objective solvable at any 3-feature subset; every member can find it,
  // the portfolio certainly must.
  auto objective = [](const FeatureMask& mask) {
    return std::abs(CountSelected(mask) - 3.0);
  };
  testing::FakeEvalContext context(6, objective, 3000);
  context.set_train_data(testing::MakeLinearDataset(120, 4, 700));
  TimeSlicedPortfolio portfolio(
      {StrategyId::kSfs, StrategyId::kSimulatedAnnealing}, 3);
  portfolio.Run(context);
  EXPECT_TRUE(context.success());
}

TEST(PortfolioTest, SucceedsWhenOnlyOneMemberCan) {
  // Target only reachable through mask search, not through the baseline:
  // pair {1, 4} exactly. The baseline member burns its slice; SA solves it.
  const FeatureMask target = IndicesToMask(8, {1, 4});
  testing::FakeEvalContext context(
      8, testing::BitMismatchObjective(target), 4000);
  context.set_train_data(testing::MakeLinearDataset(100, 6, 701));
  TimeSlicedPortfolio portfolio(
      {StrategyId::kOriginalFeatureSet, StrategyId::kSimulatedAnnealing}, 5);
  portfolio.Run(context);
  EXPECT_TRUE(context.success());
}

TEST(PortfolioTest, RespectsEngineDeadlineEndToEnd) {
  Rng rng(702);
  auto scenario = core::MakeScenario(
      testing::MakeLinearDataset(200, 10, 703),
      ml::ModelKind::kLogisticRegression,
      [] {
        constraints::ConstraintSet set;
        set.min_f1 = 0.999;  // unsatisfiable
        set.max_search_seconds = 0.25;
        return set;
      }(),
      rng);
  ASSERT_TRUE(scenario.ok());
  core::DfsEngine engine(*scenario, core::EngineOptions());
  TimeSlicedPortfolio portfolio(
      {StrategyId::kSfs, StrategyId::kTpeChi2, StrategyId::kTpeMask}, 7);
  Stopwatch stopwatch;
  const core::RunResult result = engine.Run(portfolio);
  EXPECT_FALSE(result.success);
  EXPECT_LT(stopwatch.ElapsedSeconds(), 2.0);
  EXPECT_TRUE(result.timed_out);
}

TEST(PortfolioTest, CacheMakesRestartsCheap) {
  // Two rounds of the same member re-evaluate the same masks; with the
  // engine cache the second round is nearly free (cache_hits > 0).
  Rng rng(704);
  auto scenario = core::MakeScenario(
      testing::MakeLinearDataset(150, 4, 705),
      ml::ModelKind::kDecisionTree,
      [] {
        constraints::ConstraintSet set;
        set.min_f1 = 0.995;  // unsatisfiable: forces multiple rounds
        set.max_search_seconds = 0.4;
        return set;
      }(),
      rng);
  ASSERT_TRUE(scenario.ok());
  core::DfsEngine engine(*scenario, core::EngineOptions());
  TimeSlicedPortfolio portfolio({StrategyId::kSfs, StrategyId::kSfs}, 9);
  const core::RunResult result = engine.Run(portfolio);
  EXPECT_GT(result.cache_hits, 0);
}

TEST(PortfolioDeathTest, EmptyPortfolioAborts) {
  EXPECT_DEATH(TimeSlicedPortfolio({}, 1), "at least one member");
}

}  // namespace
}  // namespace dfs::fs
