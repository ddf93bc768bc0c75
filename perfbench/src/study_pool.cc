// study_pool: a cold Table-3 run. The default-parameter and HPO pools over
// a fixed scenario stream, every Table-3 strategy plus the baseline, and
// the leave-one-dataset-out optimizer row, exactly as bench_table3_coverage
// computes them, but always through ExperimentPool::Run: it neither loads
// nor saves a pool CSV (only RunOrLoad does), so every repetition is cold.

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "core/experiment.h"
#include "core/optimizer.h"
#include "core/scenario_sampler.h"
#include "data/benchmark_suite.h"
#include "harness.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace dfs::perfbench {
namespace {

// Table 3's reference stream (bench_common.cc PoolConfig) at a reduced
// scenario count. The scenario stream is fixed: --seed re-orders the
// strategies instead, which re-seeds each strategy's own search (a cell's
// strategy seed is engine_seed * 31 + position + 1) without swapping the
// scenario mix, whose solved share alone moves by a quarter between
// streams of this size.
constexpr int kScenarios = 8;
constexpr uint64_t kStreamSeed = 2021;
constexpr double kRowScale = 0.35;

core::ExperimentConfig PoolConfig(bool use_hpo, uint64_t seed) {
  core::ExperimentConfig config;
  config.num_scenarios = kScenarios;
  config.use_hpo = use_hpo;
  config.seed = kStreamSeed;
  config.row_scale = kRowScale;
  config.sampler.min_search_seconds = 0.04;
  config.sampler.max_search_seconds = 0.50;
  config.strategies = fs::AllStrategiesWithBaseline();
  Rng rng(seed);
  for (int i = static_cast<int>(config.strategies.size()) - 1; i > 0; --i) {
    std::swap(config.strategies[i], config.strategies[rng.UniformInt(0, i)]);
  }
  return config;
}

// The datasets the pool's scenario stream touches, generated the way
// ExperimentPool::Run generates them (its Phase 1).
std::map<int, data::Dataset> GeneratePoolDatasets(
    const core::ExperimentConfig& config) {
  std::map<int, data::Dataset> datasets;
  Rng sampler_rng(config.seed);
  for (int s = 0; s < config.num_scenarios; ++s) {
    const core::SampledScenario sampled = core::SampleScenario(
        data::BenchmarkSize(), config.sampler, sampler_rng);
    if (datasets.count(sampled.dataset_index) == 0) {
      auto dataset = data::GenerateBenchmarkDataset(
          sampled.dataset_index, config.seed, config.row_scale);
      if (dataset.ok()) datasets.emplace(sampled.dataset_index, *std::move(dataset));
    }
  }
  return datasets;
}

struct PoolRep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double pool_wall_s = 0.0;  // both pools, without LODO
  double lodo_s = 0.0;
  uint64_t evaluations = 0;
  int solved = 0;
  int cells = 0;
  int timed_out = 0;
  int exhausted = 0;
  std::vector<double> pool_ms;  // one ExperimentPool::Run each
  std::vector<double> scenario_ms;
  std::vector<int> tpe_domains;
};

void CheckPool(const StatusOr<core::ExperimentPool>& pool,
               const core::ExperimentConfig& config,
               const std::map<int, data::Dataset>& datasets, PoolRep& rep,
               Report& report) {
  const std::string name = config.use_hpo ? "hpo" : "default";
  const int expected_cells =
      config.num_scenarios * static_cast<int>(config.strategies.size());
  rep.cells += expected_cells;
  if (!pool.ok()) {
    report.failed += expected_cells;
    report.Fail("study_pool: " + name + " pool failed: " +
                pool.status().ToString());
    return;
  }
  // The check is structural: under wall-clock budgets which cells succeed
  // depends on the host's speed (evaluations per budget), so cell values
  // are not compared across runs.
  report.Check(static_cast<int>(pool->records().size()) == config.num_scenarios,
               "study_pool: " + name + " pool is missing scenarios");
  for (const core::ScenarioRecord& record : pool->records()) {
    auto dataset = datasets.find(record.dataset_index);
    report.Check(dataset != datasets.end() &&
                     record.rows == dataset->second.num_rows() &&
                     record.features == dataset->second.num_features(),
                 "study_pool: scenario dataset shape differs from the suite");
    report.Check(record.outcomes.size() == config.strategies.size(),
                 "study_pool: scenario is missing cells");
    double scenario_s = 0.0;
    for (size_t i = 0; i < record.outcomes.size(); ++i) {
      const core::StrategyOutcome& cell = record.outcomes[i];
      report.Check(i < config.strategies.size() &&
                       cell.id == config.strategies[i],
                   "study_pool: cell strategy out of order");
      report.Check(std::isfinite(cell.seconds) && cell.seconds >= 0 &&
                       cell.evaluations >= 0 && cell.test_f1 >= 0 &&
                       cell.test_f1 <= 1,
                   "study_pool: cell values out of range");
      // A satisfying subset has zero constraint distance on both splits.
      report.Check(!cell.success || (cell.distance_validation == 0 &&
                                     cell.distance_test == 0),
                   "study_pool: successful cell with nonzero distance");
      if (cell.id == fs::StrategyId::kOriginalFeatureSet) {
        report.Check(cell.evaluations <= 1,
                     "study_pool: baseline evaluated more than one subset");
      }
      rep.solved += cell.success ? 1 : 0;
      rep.timed_out += cell.timed_out ? 1 : 0;
      rep.exhausted += cell.search_exhausted ? 1 : 0;
      scenario_s += cell.seconds;
    }
    rep.scenario_ms.push_back(1e3 * scenario_s);
    rep.tpe_domains.push_back(
        record.constraint_set.MaxFeatureCount(record.features));
  }
}

PoolRep RunRep(const RunOptions& options, Tracer& tracer,
               const std::map<int, data::Dataset>& datasets, int rep_index,
               Report& report) {
  PoolRep rep;
  const uint64_t evaluations_before =
      obs::MetricsRegistry::Global().counter("engine.evaluations").value();
  const double cpu_before = ProcessCpuSeconds();
  const auto start = Clock::now();
  ScopedSpan rep_span(tracer, "study.rep", "rep=" + std::to_string(rep_index));
  std::optional<StatusOr<core::ExperimentPool>> hpo_pool;
  for (bool use_hpo : {false, true}) {
    const core::ExperimentConfig config = PoolConfig(use_hpo, options.seed);
    ScopedSpan span(tracer, "study.pool", use_hpo ? "hpo" : "default",
                    rep_span.id());
    const auto pool_start = Clock::now();
    auto pool = core::ExperimentPool::Run(config, /*verbose=*/false);
    rep.pool_ms.push_back(1e3 * SecondsSince(pool_start));
    CheckPool(pool, config, datasets, rep, report);
    if (use_hpo) hpo_pool.emplace(std::move(pool));
  }
  rep.pool_wall_s = SecondsSince(start);
  if (hpo_pool->ok()) {
    ScopedSpan span(tracer, "study.lodo", "", rep_span.id());
    const auto lodo_start = Clock::now();
    auto lodo = core::EvaluateOptimizerLodo(**hpo_pool, core::OptimizerOptions());
    rep.lodo_s = SecondsSince(lodo_start);
    report.Check(lodo.ok() && std::isfinite(lodo->coverage_mean),
                 "study_pool: optimizer LODO row failed");
  }
  rep.wall_s = SecondsSince(start);
  rep.cpu_s = ProcessCpuSeconds() - cpu_before;
  rep.evaluations =
      obs::MetricsRegistry::Global().counter("engine.evaluations").value() -
      evaluations_before;
  return rep;
}

}  // namespace

Report RunStudyPool(const RunOptions& options, Tracer& tracer) {
  Report report;
  const core::ExperimentConfig reference = PoolConfig(false, options.seed);

  // Set-up: generate the suite datasets the stream touches (the harness
  // keeps them for the structural check and the replays). kSetups times,
  // median reported.
  std::vector<double> setup_s;
  std::map<int, data::Dataset> datasets;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    datasets = GeneratePoolDatasets(reference);
    setup_s.push_back(SecondsSince(start));
  }
  report.Set("setup_s", Median(setup_s));

  std::vector<PoolRep> reps;
  const auto measure_start = Clock::now();
  if (!options.trace) {
    do {
      reps.push_back(RunRep(options, tracer, datasets,
                            static_cast<int>(reps.size()), report));
    } while (SecondsSince(measure_start) + reps.back().wall_s <=
             options.seconds);
  } else {
    // One untraced repetition as the overhead baseline, then the traced
    // one, whose instruments the per-layer metrics read.
    Tracer untraced(false);
    const PoolRep baseline = RunRep(options, untraced, datasets, 0, report);
    report.attempted += baseline.cells;
    ResetInstruments(report);
    if (!obs::TraceWriter::Open(options.work_dir + "/study_pool.program.jsonl")
             .ok()) {
      report.Fail("study_pool: cannot open the program trace");
    }
    reps.push_back(RunRep(options, tracer, datasets, 1, report));
    obs::TraceWriter::Close();
    const PoolRep& traced = reps.back();
    // The study is budget-bound: tracing costs show as CPU per evaluation,
    // not as wall time.
    const auto per_eval = [](const PoolRep& rep) {
      return rep.cpu_s / std::max<double>(1, rep.evaluations);
    };
    report.Set("trace.overhead_share", per_eval(traced) / per_eval(baseline) - 1);

    const EngineSums sums =
        ReadEngineSums(obs::MetricsRegistry::Global().Snapshot());
    const int budget = ThreadBudget();
    const int engine_threads = std::max(1, budget / std::min(budget, kScenarios));
    ReportEngineLayers(sums, engine_threads, report);
    CheckReconciliation(sums, engine_threads, report);
    // Every pool thread spins on its budget, so run time is CPU time.
    const double busy_ratio = sums.run_s / std::max(1e-9, traced.cpu_s);
    report.context["reconcile.run_over_cpu"] = busy_ratio;
    report.Check(busy_ratio > 0.75 && busy_ratio < 1.15,
                 "reconcile: study sum(run) is not within [0.75, 1.15] of cpu_s");

    double busy_ms = 0.0;
    for (double ms : traced.scenario_ms) busy_ms += ms;
    const int outer = std::min(budget, kScenarios);
    report.Set("pool.scenario_s_max",
               1e-3 * *std::max_element(traced.scenario_ms.begin(),
                                        traced.scenario_ms.end()));
    report.Set("pool.idle_share",
               std::max(0.0, 1.0 - 1e-3 * busy_ms / (outer * traced.pool_wall_s)));
    report.Set("pool.timed_out_cells", traced.timed_out);
    report.Set("pool.exhausted_cells", traced.exhausted);
    report.Set("optimizer.lodo_s", traced.lodo_s);

    // Replays on the suite dataset of median width, at half its columns.
    std::vector<const data::Dataset*> by_width;
    for (const auto& [index, dataset] : datasets) by_width.push_back(&dataset);
    std::sort(by_width.begin(), by_width.end(), [](auto* a, auto* b) {
      return a->num_features() < b->num_features();
    });
    const data::Dataset& replay = *by_width[by_width.size() / 2];
    ReportReplays(replay, replay.num_features() / 2, traced.tpe_domains,
                  options.seed, report);
  }

  std::vector<double> wall, cpu, solved, pool_ms, scenario_ms;
  for (const PoolRep& rep : reps) {
    wall.push_back(rep.wall_s);
    cpu.push_back(rep.cpu_s);
    solved.push_back(rep.solved);
    pool_ms.insert(pool_ms.end(), rep.pool_ms.begin(), rep.pool_ms.end());
    scenario_ms.insert(scenario_ms.end(), rep.scenario_ms.begin(),
                       rep.scenario_ms.end());
    report.attempted += rep.cells;
  }
  report.Set("wall_s", Median(wall));
  report.Set("cpu_s", Median(cpu));
  report.Set("solved_cells", Median(solved));
  // The researcher's request is a pool: two per repetition, so p90 is the
  // slower one. (Cell times would not do: their median falls between the
  // scenarios' discrete budgets and jumps between runs.)
  report.Set("request_p50_ms", Percentile(pool_ms, 0.50));
  report.Set("request_p90_ms", Percentile(pool_ms, 0.90));
  report.Set("job_p50_ms", Percentile(scenario_ms, 0.50));
  report.Set("job_p99_ms", Percentile(scenario_ms, 0.99));
  return report;
}

}  // namespace dfs::perfbench
