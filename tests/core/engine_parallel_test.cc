// Determinism tests for the parallel evaluation engine: EvaluateBatch must
// select byte-identical masks (and identical evaluation and cache-hit
// totals, and the same trace) at any thread count, including batches that
// hold a mask more than once.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "fs/registry.h"
#include "testing/test_util.h"

namespace dfs::core {
namespace {

MlScenario MakeTestScenario(const constraints::ConstraintSet& set) {
  Rng rng(301);
  auto scenario =
      MakeScenario(testing::MakeLinearDataset(300, 4, 300),
                   ml::ModelKind::kLogisticRegression, set, rng);
  DFS_CHECK(scenario.ok());
  return std::move(scenario).value();
}

constraints::ConstraintSet GenerousSet(double min_f1) {
  constraints::ConstraintSet set;
  set.min_f1 = min_f1;
  // Generous deadline: determinism comparisons need both runs to finish
  // their search, not race the clock.
  set.max_search_seconds = 60.0;
  return set;
}

RunResult RunWithThreads(const MlScenario& scenario, fs::StrategyId id,
                         int num_threads) {
  EngineOptions options;
  options.seed = 77;
  options.num_threads = num_threads;
  DfsEngine engine(scenario, options);
  auto strategy = fs::CreateStrategy(id, /*seed=*/5);
  return engine.Run(*strategy);
}

void ExpectIdenticalRuns(fs::StrategyId id, double min_f1) {
  const MlScenario scenario = MakeTestScenario(GenerousSet(min_f1));
  const RunResult serial = RunWithThreads(scenario, id, 1);
  const RunResult parallel = RunWithThreads(scenario, id, 4);
  EXPECT_EQ(serial.selected, parallel.selected);
  EXPECT_EQ(serial.success, parallel.success);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.cache_hits, parallel.cache_hits);
  EXPECT_EQ(serial.search_exhausted, parallel.search_exhausted);
  EXPECT_DOUBLE_EQ(serial.best_distance_validation,
                   parallel.best_distance_validation);
}

// An achievable accuracy bound exercises the success path; an unreachable
// one forces a full sweep of the search space (more evaluations, more
// cache traffic) and the Table-4 failure bookkeeping.
TEST(EngineParallelTest, SequentialForwardDeterministic) {
  ExpectIdenticalRuns(fs::StrategyId::kSfs, 0.6);
}

TEST(EngineParallelTest, SequentialFloatingDeterministicUnderFullSweep) {
  ExpectIdenticalRuns(fs::StrategyId::kSffs, 0.999);
}

TEST(EngineParallelTest, RfeDeterministic) {
  ExpectIdenticalRuns(fs::StrategyId::kRfe, 0.999);
}

// NSGA-II never exhausts its space, so only the success path terminates
// deterministically before the deadline: an achievable bound makes both
// runs stop at the same (first) satisfying mask.
TEST(EngineParallelTest, Nsga2Deterministic) {
  ExpectIdenticalRuns(fs::StrategyId::kNsga2, 0.6);
}

TEST(EngineParallelTest, ExhaustiveDeterministic) {
  ExpectIdenticalRuns(fs::StrategyId::kExhaustive, 0.999);
}

// EvaluateBatch outcomes must be positionally identical to a serial
// Evaluate loop over the same masks (including the duplicate mask, which
// the parallel path resolves from the run memo during the reduction).
TEST(EngineParallelTest, BatchMatchesSerialEvaluateLoop) {
  const MlScenario scenario = MakeTestScenario(GenerousSet(0.999));
  EngineOptions options;
  options.seed = 77;

  class NullStrategy : public fs::FeatureSelectionStrategy {
   public:
    std::string name() const override { return "null"; }
    fs::StrategyInfo info() const override { return {}; }
    void Run(fs::EvalContext&) override {}
  } warmup;

  std::vector<fs::FeatureMask> masks;
  const int n = 6;
  for (int f = 0; f < n; ++f) masks.push_back(fs::IndicesToMask(n, {f}));
  masks.push_back(fs::IndicesToMask(n, {0}));  // duplicate -> cache path
  masks.push_back(fs::IndicesToMask(n, {1, 3, 5}));

  options.num_threads = 1;
  DfsEngine serial(scenario, options);
  serial.Run(warmup);  // arms the deadline
  std::vector<fs::EvalOutcome> expected;
  for (const auto& mask : masks) expected.push_back(serial.Evaluate(mask));

  options.num_threads = 4;
  DfsEngine parallel(scenario, options);
  parallel.Run(warmup);
  const std::vector<fs::EvalOutcome> actual = parallel.EvaluateBatch(masks);

  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].evaluated, actual[i].evaluated) << "mask " << i;
    EXPECT_EQ(expected[i].satisfied_validation,
              actual[i].satisfied_validation)
        << "mask " << i;
    EXPECT_EQ(expected[i].success, actual[i].success) << "mask " << i;
    EXPECT_DOUBLE_EQ(expected[i].objective, actual[i].objective)
        << "mask " << i;
    EXPECT_DOUBLE_EQ(expected[i].distance, actual[i].distance)
        << "mask " << i;
  }
}

// A strategy that submits one batch holding mask A twice: [A, B, A].
class DuplicateBatchStrategy : public fs::FeatureSelectionStrategy {
 public:
  DuplicateBatchStrategy(const fs::FeatureMask& a, const fs::FeatureMask& b)
      : masks_{a, b, a} {}
  std::string name() const override { return "duplicate-batch"; }
  fs::StrategyInfo info() const override { return {}; }
  void Run(fs::EvalContext& context) override {
    context.EvaluateBatch(masks_);
  }

 private:
  std::vector<fs::FeatureMask> masks_;
};

// With A and B both satisfying the constraints, the first occurrence of A
// in submission order must own its evaluation and the first success, and
// the repeat must be a cache hit — whichever worker finishes first. The
// 4-thread run is repeated to give the scheduler many chances to finish
// the repeat's slot before the first one.
TEST(EngineParallelTest, DuplicateInBatchReducesLikeSerial) {
  const MlScenario scenario = MakeTestScenario(GenerousSet(0.5));
  const fs::FeatureMask a = fs::FullMask(scenario.split.train.num_features());
  fs::FeatureMask b = a;
  b.back() = 0;

  auto run = [&](int num_threads) {
    EngineOptions options;
    options.seed = 77;
    options.num_threads = num_threads;
    options.record_trace = true;
    DfsEngine engine(scenario, options);
    DuplicateBatchStrategy strategy(a, b);
    return engine.Run(strategy);
  };

  const RunResult serial = run(1);
  ASSERT_EQ(serial.trace.size(), 2u);
  ASSERT_TRUE(serial.trace[0].success);  // A
  ASSERT_TRUE(serial.trace[1].success);  // B

  for (int repeat = 0; repeat <= 50; ++repeat) {
    // Repeat 0 is the serial run itself; the rest run on 4 threads.
    const RunResult result = repeat == 0 ? serial : run(4);
    SCOPED_TRACE(repeat == 0 ? "serial" : "parallel run " +
                                             std::to_string(repeat));
    EXPECT_EQ(result.selected, a);
    EXPECT_EQ(result.evaluations, 2);
    EXPECT_EQ(result.cache_hits, 1);
    ASSERT_EQ(result.trace.size(), serial.trace.size());
    for (size_t i = 0; i < serial.trace.size(); ++i) {
      // Timestamps are wall clock; every other field must match.
      const TracePoint& want = serial.trace[i];
      const TracePoint& got = result.trace[i];
      EXPECT_EQ(got.selected_features, want.selected_features) << i;
      EXPECT_EQ(got.objective, want.objective) << i;
      EXPECT_EQ(got.distance, want.distance) << i;
      EXPECT_EQ(got.satisfied_validation, want.satisfied_validation) << i;
      EXPECT_EQ(got.success, want.success) << i;
    }
  }
}

}  // namespace
}  // namespace dfs::core
