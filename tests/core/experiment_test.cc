#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "data/benchmark_suite.h"
#include "util/csv.h"

namespace dfs::core {
namespace {

// A small but real pool configuration: 4 scenarios, tiny budgets, a strategy
// subset covering the main families. Shared across tests via a suite-level
// cache because running the pool trains real models.
ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.num_scenarios = 4;
  config.use_hpo = false;
  config.seed = 77;
  config.row_scale = 0.08;
  config.sampler.min_search_seconds = 0.02;
  config.sampler.max_search_seconds = 0.08;
  config.strategies = {fs::StrategyId::kOriginalFeatureSet,
                       fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2,
                       fs::StrategyId::kSimulatedAnnealing};
  return config;
}

const ExperimentPool& SmallPool() {
  static const ExperimentPool& pool = *new ExperimentPool([] {
    auto result = ExperimentPool::Run(SmallConfig(), /*verbose=*/false);
    DFS_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }());
  return pool;
}

TEST(ExperimentPoolTest, RunsRequestedScenarioCount) {
  const auto& records = SmallPool().records();
  ASSERT_EQ(records.size(), 4u);
  for (const auto& record : records) {
    EXPECT_EQ(record.outcomes.size(), 4u);
    EXPECT_GT(record.rows, 0);
    EXPECT_GT(record.features, 0);
    EXPECT_FALSE(record.dataset_name.empty());
  }
}

TEST(ExperimentPoolTest, OutcomesCarrySearchTimes) {
  for (const auto& record : SmallPool().records()) {
    for (const auto& outcome : record.outcomes) {
      EXPECT_GE(outcome.seconds, 0.0);
      if (outcome.success) {
        // Successful runs finish within (roughly) the sampled budget.
        EXPECT_LE(outcome.seconds,
                  record.constraint_set.max_search_seconds + 0.5);
      }
    }
  }
}

TEST(ExperimentPoolTest, OutcomeLookupByStrategy) {
  const auto& record = SmallPool().records().front();
  EXPECT_NE(record.OutcomeOf(fs::StrategyId::kSfs), nullptr);
  EXPECT_EQ(record.OutcomeOf(fs::StrategyId::kNsga2), nullptr);
}

TEST(ExperimentPoolTest, DeterministicAcrossRuns) {
  auto again = ExperimentPool::Run(SmallConfig(), false);
  ASSERT_TRUE(again.ok());
  const auto& a = SmallPool().records();
  const auto& b = again->records();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dataset_name, b[i].dataset_name);
    EXPECT_EQ(a[i].model, b[i].model);
    for (size_t j = 0; j < a[i].outcomes.size(); ++j) {
      // Success is deterministic modulo wall-clock deadline jitter; the
      // sampled scenario itself must be identical.
      EXPECT_EQ(a[i].outcomes[j].id, b[i].outcomes[j].id);
    }
  }
}

TEST(ExperimentPoolTest, CsvRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_pool_test.csv").string();
  ASSERT_TRUE(SmallPool().SaveCsv(path).ok());
  auto loaded = ExperimentPool::LoadCsv(path, SmallConfig());
  ASSERT_TRUE(loaded.ok());
  const auto& a = SmallPool().records();
  const auto& b = loaded->records();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dataset_name, b[i].dataset_name);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].constraint_set.min_equal_opportunity.has_value(),
              b[i].constraint_set.min_equal_opportunity.has_value());
    ASSERT_EQ(a[i].outcomes.size(), b[i].outcomes.size());
    for (size_t j = 0; j < a[i].outcomes.size(); ++j) {
      EXPECT_EQ(a[i].outcomes[j].success, b[i].outcomes[j].success);
      EXPECT_NEAR(a[i].outcomes[j].distance_validation,
                  b[i].outcomes[j].distance_validation, 1e-6);
    }
  }
  std::remove(path.c_str());
}

TEST(ExperimentPoolTest, LoadRejectsDifferentConfig) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_pool_test2.csv")
          .string();
  ASSERT_TRUE(SmallPool().SaveCsv(path).ok());
  ExperimentConfig other = SmallConfig();
  other.seed = 78;
  EXPECT_FALSE(ExperimentPool::LoadCsv(path, other).ok());
  std::remove(path.c_str());
}

TEST(ExperimentPoolTest, RunOrLoadUsesCache) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_pool_cache.csv")
          .string();
  std::remove(path.c_str());
  auto first = ExperimentPool::RunOrLoad(SmallConfig(), path, false);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(std::filesystem::exists(path));
  // Second call loads: must return identical outcome bits (wall-clock
  // reruns could differ, a cache load cannot).
  auto second = ExperimentPool::RunOrLoad(SmallConfig(), path, false);
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < first->records().size(); ++i) {
    for (size_t j = 0; j < first->records()[i].outcomes.size(); ++j) {
      EXPECT_EQ(first->records()[i].outcomes[j].success,
                second->records()[i].outcomes[j].success);
      EXPECT_NEAR(first->records()[i].outcomes[j].seconds,
                  second->records()[i].outcomes[j].seconds, 1e-6);
    }
  }
  std::remove(path.c_str());
}

// Writes `lines` of `path` (header included) back to `path`.
void KeepLines(const std::string& path, int lines) {
  std::ifstream in(path);
  std::stringstream kept;
  std::string line;
  for (int i = 0; i < lines && std::getline(in, line); ++i) {
    kept << line << '\n';
  }
  in.close();
  std::ofstream(path) << kept.str();
}

TEST(ExperimentPoolTest, LoadRejectsFileCutAtRowBoundary) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_pool_cut.csv").string();
  ASSERT_TRUE(SmallPool().SaveCsv(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  ASSERT_TRUE(ExperimentPool::LoadCsv(path, SmallConfig()).ok());
  // Header + 3 full scenarios + 2 of the last scenario's 4 rows: the
  // scenario count still matches, the last scenario's outcomes do not.
  KeepLines(path, 1 + 3 * 4 + 2);
  const auto loaded = ExperimentPool::LoadCsv(path, SmallConfig());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ExperimentPoolTest, LoadRejectsHeaderWithDroppedColumn) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_pool_header.csv")
          .string();
  ASSERT_TRUE(SmallPool().SaveCsv(path).ok());
  auto read = ReadCsvFile(path);
  ASSERT_TRUE(read.ok());
  CsvTable table = std::move(read).value();
  // Drop the last column everywhere, so the file still parses.
  table.header.pop_back();
  for (auto& row : table.rows) row.pop_back();
  ASSERT_TRUE(WriteCsvFile(table, path).ok());
  const auto loaded = ExperimentPool::LoadCsv(path, SmallConfig());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ExperimentPoolTest, RunOrLoadRecomputesTruncatedCache) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dfs_pool_recompute.csv")
          .string();
  ASSERT_TRUE(SmallPool().SaveCsv(path).ok());
  KeepLines(path, 1 + 3 * 4 + 2);
  auto pool = ExperimentPool::RunOrLoad(SmallConfig(), path, false);
  ASSERT_TRUE(pool.ok());
  for (const auto& record : pool->records()) {
    EXPECT_EQ(record.outcomes.size(), SmallConfig().strategies.size());
  }
  EXPECT_TRUE(ExperimentPool::LoadCsv(path, SmallConfig()).ok());
  std::remove(path.c_str());
}

// Only strategies whose search never reads the clock, with budgets far
// above need: no deadline can bite, so every cell is a pure function of its
// seeds, whatever the thread count and the schedule.
ExperimentConfig ClockFreeConfig() {
  ExperimentConfig config;
  config.num_scenarios = 3;
  config.use_hpo = false;
  config.seed = 5;
  config.row_scale = 0.05;
  config.sampler.min_search_seconds = 600.0;
  config.sampler.max_search_seconds = 1200.0;
  config.strategies = {fs::StrategyId::kOriginalFeatureSet,
                       fs::StrategyId::kSfs, fs::StrategyId::kSbs,
                       fs::StrategyId::kRfe};
  return config;
}

ExperimentPool RunWithThreads(const char* threads) {
  setenv("DFS_THREADS", threads, 1);
  auto pool = ExperimentPool::Run(ClockFreeConfig(), /*verbose=*/false);
  unsetenv("DFS_THREADS");
  DFS_CHECK(pool.ok()) << pool.status().ToString();
  return std::move(pool).value();
}

void ExpectSameCell(const StrategyOutcome& a, const StrategyOutcome& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.distance_validation, b.distance_validation);
  EXPECT_EQ(a.distance_test, b.distance_test);
  EXPECT_EQ(a.test_f1, b.test_f1);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.search_exhausted, b.search_exhausted);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(ExperimentPoolTest, ClockFreeCellsIgnoreThreadCountAndSchedule) {
  const ExperimentConfig config = ClockFreeConfig();
  const ExperimentPool serial = RunWithThreads("1");
  const ExperimentPool parallel = RunWithThreads("4");
  ASSERT_EQ(serial.records().size(), parallel.records().size());
  for (size_t s = 0; s < serial.records().size(); ++s) {
    const ScenarioRecord& a = serial.records()[s];
    const ScenarioRecord& b = parallel.records()[s];
    EXPECT_EQ(a.dataset_index, b.dataset_index);
    EXPECT_EQ(a.model, b.model);
    ASSERT_EQ(a.outcomes.size(), config.strategies.size());
    ASSERT_EQ(b.outcomes.size(), config.strategies.size());

    // The cell's standalone run: same scenario, same engine and strategy
    // seeds, fresh engine.
    auto dataset = data::GenerateBenchmarkDataset(a.dataset_index, config.seed,
                                                  config.row_scale);
    ASSERT_TRUE(dataset.ok());
    Rng split_rng(config.seed * 7919 + s);
    auto scenario =
        MakeScenario(*dataset, a.model, a.constraint_set, split_rng);
    ASSERT_TRUE(scenario.ok());
    const auto shared =
        std::make_shared<const MlScenario>(std::move(scenario).value());
    EngineOptions options;
    options.robustness = config.robustness;
    options.seed = config.seed * 104729 + s;
    options.num_threads = 1;

    for (size_t i = 0; i < config.strategies.size(); ++i) {
      SCOPED_TRACE("scenario " + std::to_string(s) + " cell " +
                   std::to_string(i));
      EXPECT_FALSE(a.outcomes[i].timed_out);
      ExpectSameCell(a.outcomes[i], b.outcomes[i]);

      DfsEngine engine(shared, options);
      auto strategy =
          fs::CreateStrategy(config.strategies[i], options.seed * 31 + i + 1);
      const RunResult result = engine.Run(*strategy);
      StrategyOutcome standalone;
      standalone.id = config.strategies[i];
      standalone.success = result.success;
      standalone.distance_validation = result.best_distance_validation;
      standalone.distance_test = result.best_distance_test;
      standalone.test_f1 = result.test_f1;
      standalone.timed_out = result.timed_out;
      standalone.search_exhausted = result.search_exhausted;
      standalone.evaluations = result.evaluations;
      ExpectSameCell(a.outcomes[i], standalone);
    }
  }
}

TEST(ExperimentConfigTest, HashSensitiveToEveryKnob) {
  const ExperimentConfig base = SmallConfig();
  ExperimentConfig changed = base;
  changed.num_scenarios = 5;
  EXPECT_NE(base.Hash(), changed.Hash());
  changed = base;
  changed.use_hpo = true;
  EXPECT_NE(base.Hash(), changed.Hash());
  changed = base;
  changed.utility_mode = true;
  EXPECT_NE(base.Hash(), changed.Hash());
  changed = base;
  changed.time_scale = 2.0;
  EXPECT_NE(base.Hash(), changed.Hash());
  changed = base;
  changed.strategies.pop_back();
  EXPECT_NE(base.Hash(), changed.Hash());
  EXPECT_EQ(base.Hash(), SmallConfig().Hash());
}

TEST(EnvironmentOverridesTest, ReadsVariables) {
  ExperimentConfig config = SmallConfig();
  setenv("DFS_SCENARIOS", "9", 1);
  setenv("DFS_TIME_SCALE", "2.5", 1);
  setenv("DFS_DATA_SCALE", "0.5", 1);
  setenv("DFS_SEED", "31337", 1);
  ApplyEnvironmentOverrides(config);
  EXPECT_EQ(config.num_scenarios, 9);
  EXPECT_DOUBLE_EQ(config.time_scale, 2.5);
  EXPECT_DOUBLE_EQ(config.row_scale, 0.5);
  EXPECT_EQ(config.seed, 31337u);
  unsetenv("DFS_SCENARIOS");
  unsetenv("DFS_TIME_SCALE");
  unsetenv("DFS_DATA_SCALE");
  unsetenv("DFS_SEED");
  ExperimentConfig untouched = SmallConfig();
  ApplyEnvironmentOverrides(untouched);
  EXPECT_EQ(untouched.num_scenarios, SmallConfig().num_scenarios);
}

}  // namespace
}  // namespace dfs::core
