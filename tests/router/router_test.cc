#include "router/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "obs/trace.h"
#include "serve/line_protocol.h"
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

/// Distinct constraint sets: each is its own scenario fingerprint, so
/// routing them featurizes one scenario shape per set.
std::vector<constraints::ConstraintSet> ConstraintSets() {
  std::vector<constraints::ConstraintSet> sets;
  for (const double min_f1 : {0.2, 0.5, 0.8}) {
    for (const bool bounded : {false, true}) {
      constraints::ConstraintSet set;
      set.min_f1 = min_f1;
      if (bounded) set.max_feature_fraction = 0.5;
      sets.push_back(set);
    }
  }
  return sets;
}

// ---- The decision rule: the static argmax of Algorithm 1 -------------

// A routed decision with an installed optimizer is DfsOptimizer::Choose on
// the same features, bit for bit — same iteration order, same
// strictly-greater tie-break — and carries the optimizer's own
// probabilities.
TEST(StaticPolicyTest, MatchesOptimizerChooseBitForBit) {
  const std::vector<fs::StrategyId> strategies = {
      fs::StrategyId::kSfs, fs::StrategyId::kSbs, fs::StrategyId::kTpeChi2,
      fs::StrategyId::kSffs};
  core::DfsOptimizer optimizer = TrainedOptimizer(strategies, 5);
  auto reference = core::DfsOptimizer::Deserialize(*optimizer.Serialize());
  ASSERT_TRUE(reference.ok());
  StrategyRouter router;
  router.InstallOptimizer(std::move(optimizer));

  const data::Dataset dataset = testing::MakeLinearDataset(80, 3, 99);
  for (const constraints::ConstraintSet& set : ConstraintSets()) {
    const RouteDecision decision = router.Route(
        dataset, kDataset, ml::ModelKind::kLogisticRegression, set);
    ASSERT_TRUE(decision.featurized) << "min_f1 " << set.min_f1;
    core::ScenarioFeatures features;
    ASSERT_TRUE(router.PeekFeatures(decision.fingerprint, &features));
    auto expected = reference->Choose(features);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(decision.chosen, *expected) << "min_f1 " << set.min_f1;
    auto probabilities = reference->PredictProbabilities(features);
    ASSERT_TRUE(probabilities.ok());
    ASSERT_EQ(decision.probabilities.size(), strategies.size());
    for (size_t s = 0; s < strategies.size(); ++s) {
      EXPECT_EQ(decision.probabilities[s].first, strategies[s]);
      EXPECT_EQ(decision.probabilities[s].second,
                probabilities->at(strategies[s]));
    }
  }
  EXPECT_EQ(router.Stats().feature_cache_size, ConstraintSets().size());
}

// No optimizer → the default strategy the router was built with, and no
// probabilities.
TEST(StaticPolicyTest, FallsBackWithoutProbabilities) {
  StrategyRouter router(fs::StrategyId::kSfs);
  EXPECT_EQ(router.default_strategy(), fs::StrategyId::kSfs);
  const data::Dataset dataset = testing::MakeLinearDataset(80, 3, 99);
  const RouteDecision decision =
      router.Route(dataset, kDataset, ml::ModelKind::kLogisticRegression,
                   constraints::ConstraintSet{});
  EXPECT_EQ(decision.chosen, fs::StrategyId::kSfs);
  EXPECT_FALSE(decision.featurized);
  EXPECT_TRUE(decision.probabilities.empty());
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
  // Peek is invisible to the counters.
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

// The "router.decision" trace record states the decision on its own: one
// flat-JSON line per Route call, whose `chosen` is the argmax of its own
// `probs` in optimizer order and whose `probs` read back bit-equal to the
// returned decision's.
TEST(StrategyRouterTest, TraceRecordStatesTheDecision) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_router_trace_test.jsonl")
          .string();
  const data::Dataset dataset = testing::MakeLinearDataset(80, 3, 99);
  StrategyRouter router;
  std::vector<RouteDecision> decisions;
  ASSERT_TRUE(obs::TraceWriter::Open(path).ok());
  // One decision before the install (the default, "probs=-"), then one per
  // constraint set with the optimizer's probabilities.
  decisions.push_back(router.Route(dataset, kDataset,
                                   ml::ModelKind::kLogisticRegression,
                                   constraints::ConstraintSet{}));
  router.InstallOptimizer(TrainedOptimizer(ThreeStrategies(), 13));
  for (const constraints::ConstraintSet& set : ConstraintSets()) {
    decisions.push_back(router.Route(
        dataset, kDataset, ml::ModelKind::kLogisticRegression, set));
  }
  obs::TraceWriter::Close();
  const std::string trace = ReadFileToString(path).value();
  std::filesystem::remove(path);

  std::vector<std::string> details;
  std::istringstream lines(trace);
  for (std::string line; std::getline(lines, line);) {
    auto span = serve::ParseJsonLine(line);
    ASSERT_TRUE(span.ok()) << line;
    if (serve::GetString(*span, "span").value_or("") != "router.decision") {
      continue;
    }
    auto detail = serve::GetString(*span, "detail");
    ASSERT_TRUE(detail.ok()) << line;
    details.push_back(*detail);
  }
  ASSERT_EQ(details.size(), decisions.size());

  for (size_t i = 0; i < decisions.size(); ++i) {
    const RouteDecision& decision = decisions[i];
    std::map<std::string, std::string> fields;
    std::istringstream tokens(details[i]);
    for (std::string token; tokens >> token;) {
      const size_t eq = token.find('=');
      ASSERT_NE(eq, std::string::npos) << details[i];
      fields[token.substr(0, eq)] = token.substr(eq + 1);
    }
    EXPECT_EQ(fields.size(), 5u) << details[i];  // gen fp feat chosen probs
    EXPECT_EQ(fields["gen"], std::to_string(decision.generation));
    EXPECT_EQ(fields["fp"], std::to_string(decision.fingerprint));
    EXPECT_EQ(fields["feat"], decision.featurized ? "1" : "0");
    EXPECT_EQ(fields["chosen"],
              std::to_string(static_cast<int>(decision.chosen)));

    if (decision.probabilities.empty()) {
      EXPECT_EQ(fields["probs"], "-");
      continue;
    }
    // probs: "<id>:<%.17g>,..." in optimizer order.
    std::vector<std::pair<int, double>> traced;
    std::istringstream pairs(fields["probs"]);
    for (std::string pair; std::getline(pairs, pair, ',');) {
      const size_t colon = pair.find(':');
      ASSERT_NE(colon, std::string::npos) << pair;
      traced.emplace_back(std::stoi(pair.substr(0, colon)),
                          std::strtod(pair.c_str() + colon + 1, nullptr));
    }
    ASSERT_EQ(traced.size(), decision.probabilities.size());
    size_t best = 0;
    for (size_t s = 0; s < traced.size(); ++s) {
      EXPECT_EQ(traced[s].first,
                static_cast<int>(decision.probabilities[s].first));
      EXPECT_EQ(traced[s].second, decision.probabilities[s].second);
      if (traced[s].second > traced[best].second) best = s;
    }
    EXPECT_EQ(fields["chosen"], std::to_string(traced[best].first));
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
  // Stats snapshots and feature-cache peeks against the routing threads.
  threads.emplace_back([&router, &stop] {
    core::ScenarioFeatures features;
    while (!stop.load()) {
      (void)router.Stats();
      (void)router.PeekFeatures(0, &features);
    }
  });
  // Concurrent optimizer installs.
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
