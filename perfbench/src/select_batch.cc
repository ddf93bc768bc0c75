// select_batch: a closed loop with one client sending a fixed list of
// declarative selection requests, each through DfsEngine::Run with the
// process thread budget. Only clock-free strategies run here and budgets
// never bite, so every pass does the same work and selects the same masks;
// the clock-driven family is measured by study_pool.

#include <algorithm>

#include "core/engine.h"
#include "core/scenario.h"
#include "data/benchmark_suite.h"
#include "fs/registry.h"
#include "harness.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace dfs::perfbench {
namespace {

constexpr double kRowScale = 0.5;
// The work is fixed: the datasets (the suite's default seed) and every
// request's split, engine and strategy seeds do not depend on --seed, which
// only orders the list. A request's cost moves by a fifth with its split,
// and a pass of 72 requests does not average that out.
constexpr uint64_t kDataSeed = 7;
// Never reached by any request in the list (they finish in well under a
// second), so no run depends on the clock.
constexpr double kBudgetSeconds = 600.0;

const std::vector<std::string>& Datasets() {
  static const std::vector<std::string> names = {
      "Indian Liver Patient", "Irish Educational Transitions", "COMPAS",
      "Brazil Tourism"};
  return names;
}

const std::vector<fs::StrategyId>& Strategies() {
  static const std::vector<fs::StrategyId> ids = {
      fs::StrategyId::kSfs, fs::StrategyId::kSffs, fs::StrategyId::kSbs,
      fs::StrategyId::kSbfs, fs::StrategyId::kRfe, fs::StrategyId::kExhaustive};
  return ids;
}

constexpr ml::ModelKind kModels[] = {
    ml::ModelKind::kLogisticRegression, ml::ModelKind::kNaiveBayes,
    ml::ModelKind::kDecisionTree, ml::ModelKind::kLinearSvm};

// The constraint mix. Satisfiable sets use thresholds every list dataset
// clears with a few features; unsatisfiable ones demand F1 = 1, which label
// noise rules out, so the strategy walks its whole space.
enum class Kind { kUnsatF1, kSatF1Size, kUnsatF1Eo, kSatF1Eo };

struct Request {
  int dataset = 0;  // index into Datasets()
  fs::StrategyId strategy = fs::StrategyId::kSfs;
  ml::ModelKind model = ml::ModelKind::kLogisticRegression;
  Kind kind = Kind::kUnsatF1;
  bool safety = false;
  uint64_t seed = 0;
};

// 4 datasets x 6 strategies x 3 model slots = 72 requests. Models rotate so
// every (strategy, model) pair appears; kinds rotate so each is a quarter
// of the list; every fourth request also carries MinSafety(0.9). The
// client sends them in an order shuffled by `seed`.
std::vector<Request> BuildRequests(uint64_t seed) {
  std::vector<Request> requests;
  int i = 0;
  for (int d = 0; d < static_cast<int>(Datasets().size()); ++d) {
    for (int s = 0; s < static_cast<int>(Strategies().size()); ++s) {
      for (int slot = 0; slot < 3; ++slot, ++i) {
        Request request;
        request.dataset = d;
        request.strategy = Strategies()[s];
        request.model = kModels[(d + s + slot) % 4];
        request.kind = static_cast<Kind>((d + 2 * s + slot) % 4);
        request.safety = (i % 4) == 3;
        request.seed = kDataSeed * 1000003 + i;
        requests.push_back(request);
      }
    }
  }
  Rng order(seed);
  for (int k = static_cast<int>(requests.size()) - 1; k > 0; --k) {
    std::swap(requests[k], requests[order.UniformInt(0, k)]);
  }
  return requests;
}

StatusOr<constraints::ConstraintSet> BuildConstraints(const Request& request,
                                                      int num_features) {
  constraints::ConstraintSetBuilder builder;
  builder.MaxSearchSeconds(kBudgetSeconds);
  switch (request.kind) {
    case Kind::kUnsatF1:
      builder.MinF1(1.0);
      break;
    case Kind::kSatF1Size:
      builder.MinF1(0.5).MaxFeatureFraction(0.5);
      break;
    case Kind::kUnsatF1Eo:
      builder.MinF1(1.0).MinEqualOpportunity(0.9);
      break;
    case Kind::kSatF1Eo:
      builder.MinF1(0.5).MinEqualOpportunity(0.5);
      break;
  }
  if (request.safety) builder.MinSafety(0.9);
  if (request.strategy == fs::StrategyId::kExhaustive) {
    // ES enumerates every subset up to the size bound: two features keeps
    // it at n(n+1)/2 subsets.
    builder.MaxFeatureFraction(2.5 / num_features);
  }
  return builder.Build();
}

struct RequestOutcome {
  bool ok = false;
  bool success = false;
  int selected = 0;
  double request_ms = 0.0;
  double run_ms = 0.0;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int solved = 0;
  int failed = 0;
  std::string digest;
  std::vector<double> request_ms;
  std::vector<double> run_ms;
  std::vector<double> selected;
};

RequestOutcome RunRequest(const Request& request, const data::Dataset& dataset,
                          int engine_threads, Digest& digest, Report& report) {
  RequestOutcome outcome;
  const auto start = Clock::now();
  auto constraint_set = BuildConstraints(request, dataset.num_features());
  if (!constraint_set.ok()) {
    report.Fail("select_batch: " + constraint_set.status().ToString());
    return outcome;
  }
  Rng split_rng(request.seed);
  auto scenario =
      core::MakeScenario(dataset, request.model, *constraint_set, split_rng);
  if (!scenario.ok()) {
    report.Fail("select_batch: " + scenario.status().ToString());
    return outcome;
  }
  core::EngineOptions engine_options;
  engine_options.seed = request.seed;
  engine_options.num_threads = engine_threads;
  core::DfsEngine engine(*std::move(scenario), engine_options);
  auto strategy = fs::CreateStrategy(request.strategy, request.seed);
  const auto run_start = Clock::now();
  const core::RunResult result = engine.Run(*strategy);
  outcome.run_ms = 1e3 * SecondsSince(run_start);
  outcome.request_ms = 1e3 * SecondsSince(start);

  // A run cut by its deadline would make the output depend on the clock.
  outcome.ok = !result.timed_out && !result.cancelled;
  outcome.success = result.success;
  outcome.selected = static_cast<int>(fs::MaskToIndices(result.selected).size());
  report.Check(result.selected.size() ==
                   static_cast<size_t>(dataset.num_features()),
               "select_batch: selected mask has the wrong width");
  report.Check(!result.success ||
                   (outcome.selected >= 1 &&
                    outcome.selected <= constraint_set->MaxFeatureCount(
                                            dataset.num_features())),
               "select_batch: a successful mask breaks its size bound");
  std::string mask(result.selected.begin(), result.selected.end());
  for (char& bit : mask) bit = bit ? '1' : '0';
  digest.Add(mask);
  digest.Add(result.success ? 1 : 0);
  digest.Add(static_cast<uint64_t>(result.evaluations));
  return outcome;
}

Pass RunPass(const std::vector<Request>& requests,
             const std::vector<data::Dataset>& datasets, int engine_threads,
             Tracer& tracer, Report& report) {
  Pass pass;
  Digest digest;
  const double cpu_before = ProcessCpuSeconds();
  const auto start = Clock::now();
  ScopedSpan pass_span(tracer, "select.pass");
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    ScopedSpan span(tracer, "select.request",
                    fs::StrategyIdToString(request.strategy) + " " +
                        ml::ModelKindToString(request.model) + " " +
                        Datasets()[request.dataset],
                    pass_span.id());
    digest.Add(static_cast<uint64_t>(i));
    const RequestOutcome outcome = RunRequest(
        request, datasets[request.dataset], engine_threads, digest, report);
    ++report.attempted;
    if (!outcome.ok) {
      ++pass.failed;
      ++report.failed;
      continue;  // a failed request is missing from every percentile
    }
    pass.solved += outcome.success ? 1 : 0;
    pass.request_ms.push_back(outcome.request_ms);
    pass.run_ms.push_back(outcome.run_ms);
    pass.selected.push_back(outcome.selected);
  }
  pass.wall_s = SecondsSince(start);
  pass.cpu_s = ProcessCpuSeconds() - cpu_before;
  pass.digest = digest.Hex();
  return pass;
}

}  // namespace

Report RunSelectBatch(const RunOptions& options, Tracer& tracer) {
  Report report;
  const std::vector<Request> requests = BuildRequests(options.seed);
  const int engine_threads = ThreadBudget();

  // Set-up: generate the list's datasets and warm up with one small
  // satisfiable request per dataset. kSetups times, median reported.
  std::vector<double> setup_s;
  std::vector<data::Dataset> datasets;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    datasets.clear();
    for (const std::string& name : Datasets()) {
      auto spec = data::BenchmarkSpecByName(name);
      auto dataset = spec.ok() ? data::GenerateDataset(*spec, kDataSeed, kRowScale)
                               : StatusOr<data::Dataset>(spec.status());
      if (!dataset.ok()) {
        report.Fail("select_batch: " + dataset.status().ToString());
        return report;
      }
      datasets.push_back(*std::move(dataset));
    }
    for (size_t d = 0; d < datasets.size(); ++d) {
      Request warm;
      warm.dataset = static_cast<int>(d);
      warm.kind = Kind::kSatF1Size;
      Digest unused;
      RunRequest(warm, datasets[d], engine_threads, unused, report);
    }
    setup_s.push_back(SecondsSince(start));
  }
  report.Set("setup_s", Median(setup_s));

  // Passes continue while another one fits in the measured window. In a
  // traced run the first half is untraced (the overhead baseline) and the
  // second half traced.
  std::vector<Pass> passes, baseline;
  const auto run_passes = [&](std::vector<Pass>& out, double seconds,
                              Tracer& pass_tracer) {
    const auto window = Clock::now();
    do {
      out.push_back(
          RunPass(requests, datasets, engine_threads, pass_tracer, report));
    } while (SecondsSince(window) + out.back().wall_s <= seconds);
  };
  if (!options.trace) {
    run_passes(passes, options.seconds, tracer);
  } else {
    Tracer untraced(false);
    run_passes(baseline, options.seconds / 2, untraced);
    ResetInstruments(report);
    if (!obs::TraceWriter::Open(options.work_dir + "/select_batch.program.jsonl")
             .ok()) {
      report.Fail("select_batch: cannot open the program trace");
    }
    run_passes(passes, options.seconds / 2, tracer);
    obs::TraceWriter::Close();
  }

  // Output checks: every pass selects the same masks with the same success
  // flags and evaluation counts (the self-test also compares this digest
  // with a single-thread run of the same list).
  std::vector<Pass> all = baseline;
  all.insert(all.end(), passes.begin(), passes.end());
  for (const Pass& pass : all) {
    report.Check(pass.digest == all.front().digest,
                 "select_batch: passes selected different masks");
  }
  report.digest = all.front().digest;

  std::vector<double> wall, cpu, request_ms, run_ms, selected;
  for (const Pass& pass : passes) {
    wall.push_back(pass.wall_s);
    cpu.push_back(pass.cpu_s);
    request_ms.insert(request_ms.end(), pass.request_ms.begin(),
                      pass.request_ms.end());
    run_ms.insert(run_ms.end(), pass.run_ms.begin(), pass.run_ms.end());
    selected.insert(selected.end(), pass.selected.begin(), pass.selected.end());
  }
  report.Set("wall_s", Median(wall));
  report.Set("cpu_s", Median(cpu));
  report.Set("solved_cells", passes.front().solved);
  report.context["samples.requests"] = request_ms.size();
  report.Set("request_p50_ms", Percentile(request_ms, 0.50));
  report.Set("request_p90_ms", Percentile(request_ms, 0.90));
  report.Set("job_p50_ms", Percentile(run_ms, 0.50));
  report.Set("job_p99_ms", Percentile(run_ms, 0.99));

  if (options.trace) {
    std::vector<double> base_wall;
    for (const Pass& pass : baseline) base_wall.push_back(pass.wall_s);
    report.Set("trace.overhead_share", Median(wall) / Median(base_wall) - 1);
    const EngineSums sums =
        ReadEngineSums(obs::MetricsRegistry::Global().Snapshot());
    ReportEngineLayers(sums, engine_threads, report);
    CheckReconciliation(sums, engine_threads, report);
    // Replays on the list's dataset of median width at the median width of
    // the selected masks. No TPE runs here, so its replay stays 0.
    const data::Dataset& replay = datasets[datasets.size() / 2];
    ReportReplays(replay, static_cast<int>(Median(selected)), {}, options.seed,
                  report);
  }
  return report;
}

}  // namespace dfs::perfbench
