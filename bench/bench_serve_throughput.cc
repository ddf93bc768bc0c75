// Job-service throughput (google-benchmark): jobs/sec through a DfsServer
// at worker counts 1/2/4/8, plus submit-path latency under backpressure
// and the router's cost on the submit path (router-off explicit jobs vs
// router-on "auto" jobs).
// Each job runs the cheapest strategy ("Original Feature Set", one wrapper
// evaluation) on a tiny registered dataset, so the measurement is dominated
// by queue/dispatch/bookkeeping overhead rather than model training.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "serve/server.h"
#include "util/logging.h"

namespace dfs::serve {
namespace {

constexpr char kDataset[] = "bench-tiny";

data::Dataset TinyDataset() {
  data::SyntheticSpec spec;
  spec.name = kDataset;
  spec.sensitive_attribute = "Group";
  spec.rows = 120;
  spec.informative_numeric = 3;
  spec.redundant_numeric = 1;
  spec.noise_numeric = 2;
  spec.proxy_features = 1;
  spec.categorical_attributes = 0;
  auto dataset = data::GenerateDataset(spec, /*seed=*/11);
  DFS_CHECK(dataset.ok());
  return std::move(dataset).value();
}

JobRequest CheapJob(uint64_t seed) {
  JobRequest request;
  request.dataset = kDataset;
  request.strategy = "Original Feature Set";
  constraints::ConstraintSet set;
  set.min_f1 = 0.0;  // always satisfiable: one evaluation per job
  set.max_search_seconds = 10.0;
  request.constraint_set = set;
  request.seed = seed;
  return request;
}

void BM_ServeThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  ServerOptions options;
  options.num_workers = workers;
  options.queue_capacity = 256;
  DfsServer server(options);
  server.RegisterDataset(kDataset, TinyDataset());

  uint64_t seed = 1;
  int64_t jobs = 0;
  for (auto _ : state) {
    constexpr int kBatch = 32;
    std::vector<JobId> ids;
    ids.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      auto id = server.Submit(CheapJob(seed++));
      DFS_CHECK(id.ok());
      ids.push_back(*id);
    }
    for (const JobId id : ids) {
      DFS_CHECK(server.WaitForTerminal(id, 120.0).ok());
    }
    jobs += kBatch;
  }
  state.SetItemsProcessed(jobs);
  state.SetLabel(std::to_string(workers) + " workers");
}
BENCHMARK(BM_ServeThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Submit-path cost when the queue is full: must return kResourceExhausted
// without blocking, so this measures pure rejection overhead.
void BM_ServeBackpressureReject(benchmark::State& state) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  DfsServer server(options);
  server.RegisterDataset(kDataset, TinyDataset());

  // Occupy the worker and the single queue slot with endless jobs.
  JobRequest endless = CheapJob(1);
  endless.constraint_set.min_f1 = 0.999;
  endless.constraint_set.max_search_seconds = 3600.0;
  endless.strategy = "SA(NR)";
  DFS_CHECK(server.Submit(endless).ok());
  // The worker pops the first job quickly; retry until the second submit
  // lands in the (single-slot) queue and stays there.
  while (!server.Submit(endless).ok()) {
  }

  uint64_t seed = 100;
  for (auto _ : state) {
    auto rejected = server.Submit(CheapJob(seed++));
    benchmark::DoNotOptimize(rejected);
    DFS_CHECK(rejected.status().code() == StatusCode::kResourceExhausted);
  }
  server.Shutdown(/*cancel_pending=*/true);
}
BENCHMARK(BM_ServeBackpressureReject);

// Routed ("auto") job mix through the strategy router, against the
// explicit-strategy baseline above. Arg(0): router off — the job names its
// strategy and never touches the router. Arg(1): router on, no optimizer —
// the submit path pays fingerprint + default + trace only. Both arms run
// 2 workers so bench_diff.py isolates router cost.
void BM_ServeRoutedThroughput(benchmark::State& state) {
  const bool routed = state.range(0) != 0;
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 256;
  // All arms run the same one-evaluation strategy ("auto" resolves to it
  // through the untrained router), so the delta is routing overhead, not
  // a strategy change.
  options.default_auto_strategy = "Original Feature Set";
  DfsServer server(options);
  server.RegisterDataset(kDataset, TinyDataset());

  uint64_t seed = 1;
  int64_t jobs = 0;
  for (auto _ : state) {
    constexpr int kBatch = 32;
    std::vector<JobId> ids;
    ids.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      JobRequest request = CheapJob(seed++);
      if (routed) request.strategy = "auto";
      auto id = server.Submit(request);
      DFS_CHECK(id.ok());
      ids.push_back(*id);
    }
    for (const JobId id : ids) {
      DFS_CHECK(server.WaitForTerminal(id, 120.0).ok());
    }
    jobs += kBatch;
  }
  state.SetItemsProcessed(jobs);
  state.SetLabel(routed ? "router on" : "router off");
}
BENCHMARK(BM_ServeRoutedThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace dfs::serve

// BENCHMARK_MAIN plus the `--json` convenience flag of bench_micro:
// `--json <path>` / `--json=<path>` writes the google-benchmark JSON
// report to <path> (console output stays); bare `--json` switches the
// console reporter itself. `scripts/check.sh --bench-smoke` uses it to
// fold the routed-throughput rows into BENCH_results.json.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(argc + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc &&
        argv[i + 1][0] != '-') {
      args.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      args.push_back("--benchmark_out_format=json");
      ++i;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      args.push_back("--benchmark_format=json");
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      args.push_back(std::string("--benchmark_out=") + (argv[i] + 7));
      args.push_back("--benchmark_out_format=json");
    } else {
      args.push_back(argv[i]);
    }
  }
  std::vector<char*> argv_rewritten;
  argv_rewritten.reserve(args.size());
  for (std::string& arg : args) argv_rewritten.push_back(arg.data());
  int argc_rewritten = static_cast<int>(argv_rewritten.size());

#ifdef NDEBUG
  benchmark::AddCustomContext("dfs_build_type", "release");
#else
  benchmark::AddCustomContext("dfs_build_type", "debug");
#endif
  benchmark::Initialize(&argc_rewritten, argv_rewritten.data());
  if (benchmark::ReportUnrecognizedArguments(argc_rewritten,
                                             argv_rewritten.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
