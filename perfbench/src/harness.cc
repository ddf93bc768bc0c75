#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "fs/registry.h"

namespace dfs::perfbench {

const std::vector<std::string>& StrategyLabels() {
  static const std::vector<std::string> labels = [] {
    std::vector<std::string> out;
    for (fs::StrategyId id : fs::AllStrategiesWithBaseline()) {
      out.push_back(obs::SanitizeLabel(fs::StrategyIdToString(id)));
    }
    return out;
  }();
  return labels;
}

const std::vector<MetricDef>& Catalogue() {
  static const std::vector<MetricDef> catalogue = [] {
    std::vector<MetricDef> c = {
        {"setup_s", "s", true},
        {"peak_rss_mb", "MB", true},
        {"cpu_s", "s", true},
        {"wall_s", "s", true},
        {"solved_cells", "count", true},
        {"request_p50_ms", "ms", true},
        {"request_p90_ms", "ms", true},
        {"job_p50_ms", "ms", true},
        {"job_p99_ms", "ms", true},
        {"fs.proposal_new_share", "ratio"},
    };
    for (const std::string& label : StrategyLabels()) {
      c.push_back({"strategy." + label + ".run_s", "s"});
    }
    const std::vector<MetricDef> layers = {
        {"fs.search_self_s", "s"},
        {"fs.ranking_s", "s"},
        {"fs.rankings_computed", "count"},
        {"fs.importance_s", "s"},
        {"fs.tpe_propose_us", "us"},
        {"engine.evaluations", "count"},
        {"engine.cache_hits", "count"},
        {"engine.eval_busy_s", "s"},
        {"engine.eval_us_mean", "us"},
        {"engine.parallel_share", "ratio"},
        {"engine.batch_width_mean", "count"},
        {"pool.scenario_s_max", "s"},
        {"pool.idle_share", "ratio"},
        {"pool.timed_out_cells", "count"},
        {"pool.exhausted_cells", "count"},
        {"optimizer.lodo_s", "s"},
        {"ml.fit_busy_s", "s"},
        {"ml.fit_us.LR", "us"},
        {"ml.fit_us.NB", "us"},
        {"ml.fit_us.DT", "us"},
        {"ml.fit_us.SVM", "us"},
        {"ml.predict_us", "us"},
        {"data.gather_us", "us"},
        {"metrics.measure_busy_s", "s"},
        {"metrics.robustness_ms", "ms"},
        {"poll_p50_us", "us"},
        {"poll_p99_us", "us"},
        {"serve.request_us_p50", "us"},
        {"serve.request_us_p99", "us"},
        {"serve.wire_us_p50", "us"},
        {"serve.queue_wait_ms_p50", "ms"},
        {"serve.queue_wait_ms_p99", "ms"},
        {"serve.run_ms_p50", "ms"},
        {"serve.run_ms_p99", "ms"},
        {"serve.submit_auto_us_p50", "us"},
        {"serve.submit_explicit_us_p50", "us"},
        {"router.decisions", "count"},
        {"cache.shared_hit_share", "ratio"},
        {"loadgen.lateness_p99_us", "us"},
        {"trace.overhead_share", "ratio"},
    };
    c.insert(c.end(), layers.begin(), layers.end());
    return c;
  }();
  return catalogue;
}

void Report::Fail(const std::string& why) {
  correct = false;
  check_failures.push_back(why);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

// The live AwakeCpus, if any (one per process, owned by main).
std::atomic<const AwakeCpus*> g_awake{nullptr};

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

AwakeCpus::AwakeCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      clockid_t clock;
      if (pthread_getcpuclockid(pthread_self(), &clock) == 0) {
        std::lock_guard<std::mutex> lock(mu_);
        clocks_.push_back(clock);
      }
      while (!stop_.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();
      }
    });
  }
  g_awake.store(this);
}

AwakeCpus::~AwakeCpus() {
  g_awake.store(nullptr);
  stop_.store(true);
  for (std::thread& thread : threads_) thread.join();
}

double AwakeCpus::CpuSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (clockid_t clock : clocks_) total += ClockSeconds(clock);
  return total;
}

double ProcessCpuSeconds() {
  const AwakeCpus* awake = g_awake.load();
  return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID) -
         (awake != nullptr ? awake->CpuSeconds() : 0.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Digest::Add(const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }
  hash_ ^= 0xff;  // field separator
  hash_ *= 0x100000001b3ULL;
}

std::string Digest::Hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Begin(const std::string& name, const std::string& detail,
                  int parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, detail, SecondsSince(origin_), -1.0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double now = SecondsSince(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_s = now;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"parent\":%d,\"span\":\"%s\",\"detail\":\"%s\","
                  "\"start_us\":%.1f,\"dur_us\":%.1f}\n",
                  i, s.parent, s.name.c_str(), s.detail.c_str(),
                  s.start_s * 1e6, std::max(0.0, s.end_s - s.start_s) * 1e6);
    out << line;
  }
  return static_cast<bool>(out);
}

EngineSums ReadEngineSums(const obs::MetricsSnapshot& snapshot) {
  EngineSums sums;
  const auto hist_sum = [&](const std::string& name) {
    auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? 0.0 : it->second.sum;
  };
  const auto count = [&](const std::string& name) -> uint64_t {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  sums.run_s = hist_sum("engine.run_seconds");
  sums.evaluation_s = hist_sum("engine.evaluation_seconds");
  sums.fit_s = hist_sum("engine.fit_seconds");
  sums.importance_s = hist_sum("fs.importance_seconds");
  sums.evaluations = count("engine.evaluations");
  sums.parallel_evaluations = count("engine.parallel_evaluations");
  sums.cache_hits = count("engine.cache_hits");
  sums.rankings_computed = count("fs.rankings_computed");
  if (auto it = snapshot.histograms.find("engine.batch_size");
      it != snapshot.histograms.end()) {
    sums.batch_width_mean = it->second.mean();
  }
  const std::string ranking_prefix = "fs.ranking.";
  const std::string seconds_suffix = "_seconds";
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (name.rfind(ranking_prefix, 0) == 0 && name.size() > seconds_suffix.size() &&
        name.compare(name.size() - seconds_suffix.size(), seconds_suffix.size(),
                     seconds_suffix) == 0) {
      sums.ranking_s += histogram.sum;
    }
  }
  for (const std::string& label : StrategyLabels()) {
    sums.strategy_run_s[label] =
        hist_sum("strategy." + label + ".run_seconds");
  }
  return sums;
}

namespace {

// Evaluation time that blocks the runs: serial evaluations count fully,
// parallel ones overlap by up to min(threads, mean batch width).
double BlockingEvaluationSeconds(const EngineSums& sums, int engine_threads) {
  if (sums.evaluations == 0) return 0.0;
  const double parallel_share = static_cast<double>(sums.parallel_evaluations) /
                                static_cast<double>(sums.evaluations);
  const double overlap = std::max(
      1.0, std::min<double>(engine_threads, sums.batch_width_mean));
  return sums.evaluation_s * (1.0 - parallel_share) +
         sums.evaluation_s * parallel_share / overlap;
}

}  // namespace

void ReportEngineLayers(const EngineSums& sums, int engine_threads,
                        Report& report) {
  const double proposals =
      static_cast<double>(sums.evaluations + sums.cache_hits);
  report.Set("fs.proposal_new_share",
             proposals > 0 ? sums.evaluations / proposals : 0.0);
  for (const auto& [label, seconds] : sums.strategy_run_s) {
    report.Set("strategy." + label + ".run_s", seconds);
  }
  report.Set("fs.search_self_s",
             std::max(0.0, sums.run_s -
                               BlockingEvaluationSeconds(sums, engine_threads) -
                               sums.ranking_s - sums.importance_s));
  report.Set("fs.ranking_s", sums.ranking_s);
  report.Set("fs.rankings_computed", static_cast<double>(sums.rankings_computed));
  report.Set("fs.importance_s", sums.importance_s);
  report.Set("engine.evaluations", static_cast<double>(sums.evaluations));
  report.Set("engine.cache_hits", static_cast<double>(sums.cache_hits));
  report.Set("engine.eval_busy_s", sums.evaluation_s);
  report.Set("engine.eval_us_mean",
             sums.evaluations > 0 ? 1e6 * sums.evaluation_s / sums.evaluations
                                  : 0.0);
  report.Set("engine.parallel_share",
             sums.evaluations > 0
                 ? static_cast<double>(sums.parallel_evaluations) /
                       static_cast<double>(sums.evaluations)
                 : 0.0);
  report.Set("engine.batch_width_mean", sums.batch_width_mean);
  report.Set("ml.fit_busy_s", sums.fit_s);
  report.Set("metrics.measure_busy_s",
             std::max(0.0, sums.evaluation_s - sums.fit_s));
}

void CheckReconciliation(const EngineSums& sums, int engine_threads,
                         Report& report) {
  // Fits run inside evaluations, or inside RFE's importance fits, which
  // fs.importance_seconds times separately. 1 ms absorbs histogram rounding.
  const double slack = 1e-3;
  report.context["reconcile.fit_s"] = sums.fit_s;
  report.context["reconcile.evaluation_s"] = sums.evaluation_s;
  report.context["reconcile.importance_s"] = sums.importance_s;
  report.context["reconcile.run_s"] = sums.run_s;
  report.Check(sums.fit_s <= sums.evaluation_s + sums.importance_s + slack,
               "reconcile: sum(fit) > sum(evaluation) + sum(importance)");
  // Evaluations happen inside runs; a run overlaps at most engine_threads
  // of them, so busy time is bounded by run time x threads.
  report.Check(sums.evaluation_s <=
                   sums.run_s * std::max(1, engine_threads) + slack,
               "reconcile: sum(evaluation) > sum(run) x engine threads");
}

void CheckTrainFailures(Report& report) {
  report.Check(
      obs::MetricsRegistry::Global().counter("engine.train_failures").value() == 0,
      "engine.train_failures is not 0");
}

void ResetInstruments(Report& report) {
  CheckTrainFailures(report);
  obs::MetricsRegistry::Global().Reset();
}

int ThreadBudget() {
  if (const char* env = std::getenv("DFS_THREADS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return 1;
}

}  // namespace dfs::perfbench
