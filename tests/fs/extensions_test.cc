// Tests for the strategy/ranking extensions beyond the paper's benchmark:
// BPSO(NR), GA(NR), TPE(mRMR).

#include <gtest/gtest.h>

#include <cmath>

#include "fs/evolutionary.h"
#include "fs/rankings/mrmr.h"
#include "fs/registry.h"
#include "testing/test_util.h"
#include "util/math_util.h"

namespace dfs::fs {
namespace {

using ::dfs::testing::BitMismatchObjective;
using ::dfs::testing::FakeEvalContext;

TEST(ExtensionRegistryTest, ExtensionsAreRegisteredButNotInTheSixteen) {
  EXPECT_EQ(AllStrategies().size(), 16u);  // paper benchmark untouched
  EXPECT_EQ(ExtensionStrategies().size(), 3u);
  for (StrategyId id : ExtensionStrategies()) {
    EXPECT_EQ(std::count(AllStrategies().begin(), AllStrategies().end(), id),
              0);
    auto strategy = CreateStrategy(id, 1);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), StrategyIdToString(id));
    auto parsed = StrategyIdFromString(strategy->name());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, id);
  }
}

class ExtensionStrategyTest : public ::testing::TestWithParam<StrategyId> {};

TEST_P(ExtensionStrategyTest, SolvesSizeThreeTarget) {
  auto objective = [](const FeatureMask& mask) {
    return std::abs(CountSelected(mask) - 3.0);
  };
  FakeEvalContext context(6, objective, 5000);
  context.set_train_data(testing::MakeLinearDataset(120, 4, 800));
  auto strategy = CreateStrategy(GetParam(), 11);
  strategy->Run(context);
  EXPECT_TRUE(context.success()) << strategy->name();
}

TEST_P(ExtensionStrategyTest, StopsOnBudget) {
  FakeEvalContext context(8, [](const FeatureMask&) { return 1.0; }, 60);
  context.set_train_data(testing::MakeLinearDataset(80, 6, 801));
  auto strategy = CreateStrategy(GetParam(), 13);
  strategy->Run(context);
  EXPECT_FALSE(context.success());
  EXPECT_LE(context.evaluations(), 60);
}

INSTANTIATE_TEST_SUITE_P(
    Extensions, ExtensionStrategyTest,
    ::testing::ValuesIn(ExtensionStrategies()),
    [](const auto& info) {
      std::string clean;
      for (char c : StrategyIdToString(info.param)) {
        if (std::isalnum(static_cast<unsigned char>(c))) clean += c;
      }
      return clean;
    });

TEST(BinaryPsoTest, FindsBitTarget) {
  const FeatureMask target = IndicesToMask(10, {1, 4, 8});
  FakeEvalContext context(10, BitMismatchObjective(target), 6000);
  BinaryPsoStrategy pso(21);
  pso.Run(context);
  EXPECT_TRUE(context.success());
}

TEST(BinaryPsoTest, RespectsMaxFeatureCount) {
  FakeEvalContext context(10, [](const FeatureMask&) { return 1.0; }, 200);
  context.set_max_feature_count(2);
  BinaryPsoStrategy pso(22);
  pso.Run(context);
  EXPECT_LE(CountSelected(context.best_mask()), 2);
}

TEST(GeneticAlgorithmTest, FindsBitTarget) {
  const FeatureMask target = IndicesToMask(10, {0, 5});
  FakeEvalContext context(10, BitMismatchObjective(target), 6000);
  GeneticAlgorithmStrategy ga(23);
  ga.Run(context);
  EXPECT_TRUE(context.success());
}

TEST(GeneticAlgorithmTest, ElitismPreservesBest) {
  // Track: once a low objective is seen, the best never regresses because
  // elites survive unmodified. Verified via FakeEvalContext best tracking
  // plus a generation count large enough to churn the population.
  const FeatureMask target = IndicesToMask(8, {2, 6});
  FakeEvalContext context(8, BitMismatchObjective(target), 1500);
  GeneticAlgorithmStrategy ga(24);
  ga.Run(context);
  EXPECT_LE(context.best_objective(), 1.0);
}

TEST(MrmrRankerTest, SignalBeatsNoise) {
  const data::Dataset train = testing::MakeLinearDataset(400, 5, 802);
  Rng rng(803);
  auto scores = MrmrRanker().Rank(train, rng);
  ASSERT_TRUE(scores.ok());
  const auto order = ArgsortDescending(*scores);
  EXPECT_TRUE((order[0] == 0 && order[1] == 1) ||
              (order[0] == 1 && order[1] == 0));
}

TEST(MrmrRankerTest, RedundantDuplicateRankedBelowComplementaryFeature) {
  // f0 = signal, f1 = exact duplicate of f0, f2 = independent second
  // signal. Plain MIM would rank the duplicate second; mRMR's redundancy
  // term must push the complementary f2 ahead of the duplicate.
  Rng data_rng(804);
  const int n = 500;
  std::vector<double> a(n), duplicate(n), b(n);
  std::vector<int> labels(n), groups(n, 0);
  for (int r = 0; r < n; ++r) {
    a[r] = data_rng.Uniform();
    duplicate[r] = a[r];
    b[r] = data_rng.Uniform();
    labels[r] = a[r] + b[r] > 1.0 ? 1 : 0;
  }
  auto dataset = data::Dataset::Create("mrmr", {"a", "dup", "b"},
                                       {a, duplicate, b}, labels, groups);
  ASSERT_TRUE(dataset.ok());
  Rng rng(805);
  auto scores = MrmrRanker().Rank(*dataset, rng);
  ASSERT_TRUE(scores.ok());
  const auto order = ArgsortDescending(*scores);
  // First pick: a or dup (identical relevance); second pick must be b.
  EXPECT_EQ(order[1], 2) << "complementary feature must precede duplicate";
}

TEST(MrmrRankerTest, DeterministicAndCompleteOrdering) {
  const data::Dataset train = testing::MakeLinearDataset(150, 6, 806);
  Rng rng_a(1), rng_b(1);
  MrmrRanker ranker;
  auto a = ranker.Rank(train, rng_a);
  auto b = ranker.Rank(train, rng_b);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, *b);
  // All scores distinct: the encoding is a total order.
  std::set<double> unique(a->begin(), a->end());
  EXPECT_EQ(unique.size(), a->size());
}

}  // namespace
}  // namespace dfs::fs
