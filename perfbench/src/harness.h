#ifndef DFS_PERFBENCH_HARNESS_H_
#define DFS_PERFBENCH_HARNESS_H_

// Shared plumbing of the end-to-end benchmark: the metric catalogue, the
// report every workload fills, in-memory harness spans, exact percentiles,
// process CPU / RSS probes and the output digest.

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "obs/metrics.h"

namespace dfs::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Arguments of one benchmark run (see README.md for the command line).
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for trace files and per-run scratch (inside the checkout).
  std::string work_dir = ".bench_build/perfbench/work";
};

/// One metric of the catalogue. `end_to_end` metrics come from untraced
/// runs, the others from traced runs.
struct MetricDef {
  std::string name;
  std::string unit;
  bool end_to_end = false;
};

/// Every metric the benchmark can print, in print order. BENCHMARK.json
/// lists the same names; run.py refuses a result whose keys differ.
const std::vector<MetricDef>& Catalogue();

/// Per-strategy labels of the study's 17 cells ("sfs_nr", ...), sanitized
/// the way the engine names its "strategy.<label>.*" instruments.
const std::vector<std::string>& StrategyLabels();

/// What a workload hands back: metric values by name, operation counts and
/// the output checks.
struct Report {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;
  /// Digest of the workload's outputs where they are clock-free
  /// (select_batch); printed in the context line for the self-test.
  std::string digest;
  /// Run context printed beside the result (e.g. the open loop's lateness,
  /// which qualifies every serve_jobs row).
  std::map<std::string, double> context;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// Records a failed output check (correct becomes false).
  void Fail(const std::string& why);
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
};

/// Exact nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Keeps every CPU of the process awake while it lives: one SCHED_IDLE
/// spinner per CPU, which runs only when nothing else wants that CPU and
/// yields at once when a program thread wakes there. On a virtualized host
/// a halted vCPU can take milliseconds to wake, so without this, wall time
/// and wake-up-bound latencies would measure the hypervisor, not the
/// program. The spinners' CPU time is excluded from ProcessCpuSeconds().
class AwakeCpus {
 public:
  AwakeCpus();
  ~AwakeCpus();
  AwakeCpus(const AwakeCpus&) = delete;
  AwakeCpus& operator=(const AwakeCpus&) = delete;

  /// CPU seconds the spinners consumed so far.
  double CpuSeconds() const;

 private:
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<clockid_t> clocks_;  // guarded by mu_
  std::vector<std::thread> threads_;
};

/// Process user+sys CPU seconds so far, without the AwakeCpus spinners.
double ProcessCpuSeconds();
/// Peak resident set size of this process in MB.
double PeakRssMb();

/// FNV-1a digest over a byte stream; Hex() renders it.
class Digest {
 public:
  void Add(const std::string& bytes);
  void Add(uint64_t value) { Add(std::to_string(value)); }
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// In-memory harness spans (name, detail, start, end, parent) recorded
/// around calls into the program's public API. Disabled tracers record
/// nothing; an enabled one writes its spans as JSONL when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  /// Opens a span and returns its id (-1 when disabled).
  int Begin(const std::string& name, const std::string& detail = "",
            int parent = -1);
  void End(int id);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string detail;
    double start_s = 0.0;
    double end_s = -1.0;
    int parent = -1;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII wrapper over Tracer::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name,
             const std::string& detail = "", int parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, detail, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Sums of the engine's dfs::obs instruments, read through the public
/// snapshot API. Used for the per-layer attribution of every workload.
struct EngineSums {
  double run_s = 0.0;
  double evaluation_s = 0.0;
  double fit_s = 0.0;
  double ranking_s = 0.0;
  double importance_s = 0.0;
  uint64_t evaluations = 0;
  uint64_t parallel_evaluations = 0;
  uint64_t cache_hits = 0;
  uint64_t rankings_computed = 0;
  double batch_width_mean = 0.0;
  std::map<std::string, double> strategy_run_s;  // by sanitized label
};
EngineSums ReadEngineSums(const obs::MetricsSnapshot& snapshot);

/// Fills the engine/fs/ml/metrics per-layer metrics from `sums`.
/// `engine_threads` bounds how many evaluations can overlap one run.
void ReportEngineLayers(const EngineSums& sums, int engine_threads,
                        Report& report);

/// Reconciliation of the traced run: fit <= evaluation <= run x threads.
/// Failures go to report.check_failures.
void CheckReconciliation(const EngineSums& sums, int engine_threads,
                         Report& report);

/// Set-ups per run; setup_s is their median. Millisecond set-ups swing by
/// half between neighbours on a shared host, so one sample would not do.
constexpr int kSetups = 15;

/// Fails `report` when the engine counted a failed training since the last
/// reset: a failed training leaves its mask unevaluated, and no workload
/// has one.
void CheckTrainFailures(Report& report);

/// Starts the traced half of a run: checks the untraced half's trainings
/// (CheckTrainFailures), then zeroes every dfs::obs instrument, so the
/// per-layer metrics read the traced half alone.
void ResetInstruments(Report& report);

/// Threads the program may use (DFS_THREADS, set from nproc by main).
int ThreadBudget();

/// Replayed single-layer costs, timed in isolation after a traced run:
/// Classifier::Fit per model (ml.fit_us.*), PredictBatch (ml.predict_us),
/// Dataset::GatherInto (data.gather_us) at `mask_width` columns of
/// `dataset`, EmpiricalRobustness (metrics.robustness_ms), and
/// TpeIntegerOptimizer::Propose with a full history over each domain size
/// in `tpe_domains` (fs.tpe_propose_us).
void ReportReplays(const data::Dataset& dataset, int mask_width,
                   const std::vector<int>& tpe_domains, uint64_t seed,
                   Report& report);

// Workloads. Each runs for about options.seconds, fills every metric it
// defines and leaves the rest to main (which fills bypassed per-layer
// metrics with 0).
Report RunStudyPool(const RunOptions& options, Tracer& tracer);
Report RunSelectBatch(const RunOptions& options, Tracer& tracer);
Report RunServeJobs(const RunOptions& options, Tracer& tracer);

}  // namespace dfs::perfbench

#endif  // DFS_PERFBENCH_HARNESS_H_
