#include "router/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "router/replay.h"
#include "testing/test_util.h"
#include "util/file_util.h"
#include "util/rng.h"

namespace dfs::router {
namespace {

constexpr char kDataset[] = "router-lin";

/// Small landmark settings so featurization costs milliseconds; the tests
/// exercise routing plumbing, not meta-model quality.
core::OptimizerOptions FastOptimizerOptions() {
  core::OptimizerOptions options;
  options.landmark_sample_size = 40;
  options.landmark_folds = 2;
  return options;
}

int FeatureDims() {
  return static_cast<int>(core::ScenarioFeatures::Names().size());
}

core::ScenarioFeatures RandomFeatures(int dims, uint64_t seed) {
  Rng rng(seed);
  core::ScenarioFeatures features;
  for (int d = 0; d < dims; ++d) features.values.push_back(rng.Uniform());
  return features;
}

/// Trains forests (non-degenerate labels per strategy) over random
/// feature vectors, so the argmax runs the real predict path.
core::DfsOptimizer TrainedOptimizer(
    const std::vector<fs::StrategyId>& strategies, uint64_t seed,
    const core::OptimizerOptions& options = FastOptimizerOptions()) {
  Rng rng(seed);
  std::vector<core::DfsOptimizer::TrainingExample> examples;
  for (int i = 0; i < 24; ++i) {
    core::DfsOptimizer::TrainingExample example;
    example.features = RandomFeatures(FeatureDims(), seed * 1000 + i);
    for (size_t s = 0; s < strategies.size(); ++s) {
      // Mixed labels with different per-strategy rates, never constant.
      example.outcomes[strategies[s]] =
          rng.Bernoulli(0.2 + 0.6 * static_cast<double>(s) /
                                  static_cast<double>(strategies.size()));
    }
    // Pin one success and one failure per strategy so no label degenerates.
    if (i == 0) {
      for (fs::StrategyId id : strategies) example.outcomes[id] = true;
    }
    if (i == 1) {
      for (fs::StrategyId id : strategies) example.outcomes[id] = false;
    }
    examples.push_back(std::move(example));
  }
  core::DfsOptimizer optimizer(options);
  EXPECT_TRUE(optimizer.Train(examples, strategies).ok());
  return optimizer;
}

const std::vector<fs::StrategyId>& ThreeStrategies() {
  static const std::vector<fs::StrategyId> strategies = {
      fs::StrategyId::kSfs, fs::StrategyId::kSbs, fs::StrategyId::kTpeChi2};
  return strategies;
}

/// A router snapshot whose feature cache holds `features` under
/// fingerprints 1..N, so ReplayDecision runs the router's decision on
/// arbitrary feature vectors.
std::string SnapshotWithFeatures(
    const core::DfsOptimizer& optimizer,
    const std::vector<core::ScenarioFeatures>& features) {
  std::ostringstream out;
  out.precision(17);
  out << "dfs-router v2\nsequence 0\ngeneration 1\ncache " << features.size()
      << "\n";
  for (size_t i = 0; i < features.size(); ++i) {
    out << i + 1 << " " << features[i].values.size();
    for (const double value : features[i].values) out << " " << value;
    out << "\n";
  }
  const std::string blob = optimizer.Serialize().value();
  out << "optimizer " << blob.size() << "\n" << blob << "\n";
  return out.str();
}

// ---- The decision rule: the static argmax of Algorithm 1 -------------

// A routed decision with an installed optimizer is DfsOptimizer::Choose on
// the same features, bit for bit — same iteration order, same
// strictly-greater tie-break.
TEST(StaticPolicyTest, MatchesOptimizerChooseBitForBit) {
  const std::vector<fs::StrategyId> strategies = {
      fs::StrategyId::kSfs, fs::StrategyId::kSbs, fs::StrategyId::kTpeChi2,
      fs::StrategyId::kSffs};
  const core::DfsOptimizer optimizer = TrainedOptimizer(strategies, 5);
  std::vector<core::ScenarioFeatures> features;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    features.push_back(RandomFeatures(FeatureDims(), 100 + seed));
  }
  StrategyRouter router;
  ASSERT_TRUE(
      router.RestoreState(SnapshotWithFeatures(optimizer, features)).ok());
  for (size_t i = 0; i < features.size(); ++i) {
    auto expected = optimizer.Choose(features[i]);
    ASSERT_TRUE(expected.ok());
    auto decision = router.ReplayDecision(i + 1, /*featurized=*/true);
    ASSERT_TRUE(decision.ok()) << decision.status().ToString();
    EXPECT_EQ(decision->chosen, *expected) << "features " << i;
    auto probabilities = optimizer.PredictProbabilities(features[i]);
    ASSERT_TRUE(probabilities.ok());
    ASSERT_EQ(decision->probabilities.size(), strategies.size());
    for (const auto& [id, probability] : decision->probabilities) {
      EXPECT_EQ(probability, probabilities->at(id));
    }
  }
}

// No optimizer → the default strategy the router was built with, and no
// probabilities.
TEST(StaticPolicyTest, FallsBackWithoutProbabilities) {
  StrategyRouter router(fs::StrategyId::kSfs);
  auto decision = router.ReplayDecision(7, /*featurized=*/false);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->chosen, fs::StrategyId::kSfs);
  EXPECT_FALSE(decision->featurized);
  EXPECT_TRUE(decision->probabilities.empty());
}

// ---- FeatureCache ---------------------------------------------------

TEST(FeatureCacheTest, FifoEvictionAndCounters) {
  FeatureCache cache(2);
  core::ScenarioFeatures features;
  features.values = {1.0, 2.0};
  core::ScenarioFeatures out;
  EXPECT_FALSE(cache.Lookup(7, &out));  // miss 1
  cache.Insert(7, features);
  cache.Insert(8, features);
  cache.Insert(9, features);  // evicts 7
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup(7, &out));  // miss 2
  EXPECT_TRUE(cache.Lookup(9, &out));   // hit 1
  EXPECT_EQ(out.values, features.values);
  // Peek is invisible to the counters (replay must not perturb them).
  EXPECT_TRUE(cache.Peek(8, &out));
  EXPECT_FALSE(cache.Peek(7, &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

// ---- StrategyRouter -------------------------------------------------

TEST(StrategyRouterTest, UnroutedDefaultMatchesServingFallback) {
  // No optimizer: every decision is the default, unfeaturized (no
  // landmark CV on the submit path).
  StrategyRouter router;
  const data::Dataset dataset = testing::MakeLinearDataset(80, 3, 99);
  constraints::ConstraintSet set;
  set.min_f1 = 0.5;
  const RouteDecision decision = router.Route(
      dataset, kDataset, ml::ModelKind::kLogisticRegression, set);
  EXPECT_FALSE(decision.featurized);
  EXPECT_EQ(decision.chosen, fs::StrategyId::kSffs);  // "SFFS(NR)"
  EXPECT_TRUE(decision.probabilities.empty());
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.decisions, 1u);
  EXPECT_EQ(stats.feature_cache_size, 0u);
}

TEST(StrategyRouterTest, InstalledOptimizerDrivesArgmaxBitForBit) {
  core::DfsOptimizer optimizer = TrainedOptimizer(ThreeStrategies(), 21);
  auto reference = core::DfsOptimizer::Deserialize(*optimizer.Serialize());
  ASSERT_TRUE(reference.ok());

  StrategyRouter router;
  router.InstallOptimizer(std::move(optimizer));

  const data::Dataset dataset = testing::MakeLinearDataset(80, 3, 99);
  constraints::ConstraintSet set;
  set.min_f1 = 0.5;
  const RouteDecision decision = router.Route(
      dataset, kDataset, ml::ModelKind::kLogisticRegression, set);
  ASSERT_TRUE(decision.featurized);
  ASSERT_EQ(decision.probabilities.size(), ThreeStrategies().size());
  core::ScenarioFeatures features;
  ASSERT_TRUE(router.PeekFeatures(decision.fingerprint, &features));
  auto expected = reference->Choose(features);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(decision.chosen, *expected);

  // Same scenario again: the feature cache absorbs the landmark CV.
  (void)router.Route(dataset, kDataset, ml::ModelKind::kLogisticRegression,
                     set);
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.feature_cache_misses, 1u);
  EXPECT_EQ(stats.feature_cache_hits, 1u);
  EXPECT_TRUE(stats.optimizer_loaded);
}

// The router featurizes with the installed optimizer's landmark settings,
// not its own defaults, and a newly installed optimizer with other
// settings never reads features cached for the previous one.
TEST(StrategyRouterTest, FeaturizesWithInstalledOptimizerOptions) {
  const data::Dataset dataset = testing::MakeLinearDataset(80, 3, 99);
  constraints::ConstraintSet set;
  set.min_f1 = 0.5;
  const ml::ModelKind model = ml::ModelKind::kLogisticRegression;

  core::OptimizerOptions other = FastOptimizerOptions();
  other.landmark_sample_size = 60;
  other.landmark_folds = 3;
  other.seed = 5;
  StrategyRouter router;
  for (const core::OptimizerOptions& options :
       {FastOptimizerOptions(), other}) {
    core::DfsOptimizer optimizer =
        TrainedOptimizer(ThreeStrategies(), 3, options);
    const core::OptimizerOptions installed = optimizer.options();
    router.InstallOptimizer(std::move(optimizer));
    const RouteDecision decision = router.Route(dataset, kDataset, model, set);
    ASSERT_TRUE(decision.featurized);
    core::ScenarioFeatures routed;
    ASSERT_TRUE(router.PeekFeatures(decision.fingerprint, &routed));
    auto expected =
        core::FeaturizeScenario(dataset, model, set, installed);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(routed.values, expected->values)
        << "landmark_sample_size " << installed.landmark_sample_size;
  }
}

TEST(StrategyRouterTest, SnapshotRoundTripIsByteIdentical) {
  StrategyRouter router;
  router.InstallOptimizer(TrainedOptimizer(ThreeStrategies(), 8));

  const data::Dataset dataset = testing::MakeLinearDataset(80, 3, 99);
  constraints::ConstraintSet sets[2];
  sets[0].min_f1 = 0.5;
  sets[1].min_f1 = 0.2;
  for (int i = 0; i < 8; ++i) {
    (void)router.Route(dataset, kDataset, ml::ModelKind::kLogisticRegression,
                       sets[i % 2]);
  }

  auto snapshot = router.Serialize();
  ASSERT_TRUE(snapshot.ok());
  StrategyRouter restored;
  ASSERT_TRUE(restored.RestoreState(*snapshot).ok());
  auto again = restored.Serialize();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*snapshot, *again);

  const RouterStats stats = restored.Stats();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.feature_cache_size, 2u);
  EXPECT_TRUE(stats.optimizer_loaded);
}

// A v1 snapshot (policy, seed and replay-buffer fields) is refused by name
// rather than half-read.
TEST(StrategyRouterTest, RestoreRejectsVersion1Snapshot) {
  StrategyRouter router;
  const Status status = router.RestoreState(
      "dfs-router v1\npolicy static\nseed 17\nsequence 0\n");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'v1'"), std::string::npos)
      << status.message();
  EXPECT_EQ(router.RestoreState("not a snapshot").code(),
            StatusCode::kInvalidArgument);
}

// A save that cannot complete leaves the previous snapshot byte-identical.
TEST(StrategyRouterTest, FailedSaveKeepsPreviousSnapshot) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_router_save_test.state")
          .string();
  StrategyRouter router;
  ASSERT_TRUE(router.SaveToFile(path).ok());
  const std::string before = ReadFileToString(path).value();

  router.InstallOptimizer(TrainedOptimizer(ThreeStrategies(), 4));
  std::filesystem::create_directory(path + ".tmp");
  EXPECT_FALSE(router.SaveToFile(path).ok());
  EXPECT_EQ(ReadFileToString(path).value(), before);

  std::filesystem::remove(path + ".tmp");
  ASSERT_TRUE(router.SaveToFile(path).ok());
  EXPECT_NE(ReadFileToString(path).value(), before);
  std::filesystem::remove(path);
}

TEST(StrategyRouterTest, ReplayDecisionMatchesLiveTrace) {
  StrategyRouter router;
  router.InstallOptimizer(TrainedOptimizer(ThreeStrategies(), 13));

  const data::Dataset dataset = testing::MakeLinearDataset(80, 3, 99);
  constraints::ConstraintSet sets[2];
  sets[0].min_f1 = 0.5;
  sets[1].min_f1 = 0.2;
  std::vector<RouteDecision> live;
  for (int i = 0; i < 6; ++i) {
    live.push_back(router.Route(dataset, kDataset,
                                ml::ModelKind::kLogisticRegression,
                                sets[i % 2]));
  }
  // Decisions must replay byte-identically from a restored snapshot.
  auto snapshot = router.Serialize();
  ASSERT_TRUE(snapshot.ok());
  StrategyRouter restored;
  ASSERT_TRUE(restored.RestoreState(*snapshot).ok());
  for (const RouteDecision& decision : live) {
    auto replayed =
        restored.ReplayDecision(decision.fingerprint, decision.featurized);
    ASSERT_TRUE(replayed.ok());
    replayed->sequence = decision.sequence;  // history, not state
    EXPECT_EQ(DecisionDetail(*replayed), DecisionDetail(decision));
  }
}

// ---- Concurrency churn (runs under TSan via check.sh --sanitize) ----

TEST(StrategyRouterChurnTest, ConcurrentRouteInstallSnapshot) {
  const std::string blob =
      TrainedOptimizer({fs::StrategyId::kSfs, fs::StrategyId::kSbs}, 77)
          .Serialize()
          .value();
  // Installed up front so every route featurizes, overlapping the
  // installs below (each of which starts a fresh feature cache).
  StrategyRouter router;
  router.InstallOptimizer(core::DfsOptimizer::Deserialize(blob).value());
  const data::Dataset dataset = testing::MakeLinearDataset(80, 3, 99);
  // Two scenario shapes: one cached fingerprint per constraint set, so
  // concurrent routes mix cache hits with (duplicate) featurizations.
  constraints::ConstraintSet sets[2];
  sets[0].min_f1 = 0.0;
  sets[1].min_f1 = 0.3;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&router, &dataset, &sets] {
      for (int i = 0; i < 25; ++i) {
        (void)router.Route(dataset, kDataset,
                           ml::ModelKind::kLogisticRegression, sets[i % 2]);
      }
    });
  }
  // Snapshot/stats churn against the routing threads.
  threads.emplace_back([&router, &stop] {
    while (!stop.load()) {
      (void)router.Stats();
      auto snapshot = router.Serialize();
      ASSERT_TRUE(snapshot.ok());
      StrategyRouter scratch;
      ASSERT_TRUE(scratch.RestoreState(*snapshot).ok());
    }
  });
  // Concurrent warm-restart installs.
  threads.emplace_back([&router, &stop, &blob] {
    while (!stop.load()) {
      router.InstallOptimizer(core::DfsOptimizer::Deserialize(blob).value());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int t = 0; t < 4; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = 4; t < threads.size(); ++t) threads[t].join();

  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.decisions, 100u);
  uint64_t routed = 0;
  for (const auto& [name, count] : stats.routes) routed += count;
  EXPECT_EQ(routed, stats.decisions);
}

}  // namespace
}  // namespace dfs::router
