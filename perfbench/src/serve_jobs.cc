// serve_jobs: an open loop of served jobs. An in-process DfsServer behind
// the epoll EventLoopFrontEnd, driven over loopback by one client thread
// on one connection: submits leave at fixed absolute send times, every
// in-flight job is polled with `status` at a fixed interval until it is
// terminal, then fetched with `result`.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "data/benchmark_suite.h"
#include "harness.h"
#include "obs/trace.h"
#include "serve/event_loop.h"
#include "serve/line_protocol.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "util/rng.h"

namespace dfs::perfbench {
namespace {

constexpr double kRowScale = 0.3;
// The served datasets are a fixed deployment (the suite's default seed);
// --seed varies the requests: their split and engine seeds.
constexpr uint64_t kDataSeed = 7;
// Fixed arrival rate: 60-70% of what the fleet below completed when
// saturated with this job mix and poll interval (see README.md,
// serve_jobs "Rate"). Never recomputed per run.
constexpr double kJobsPerSecond = 100.0;
constexpr double kPollIntervalS = 0.002;
// Far above any job's run time, so no job's output depends on the clock.
constexpr double kBudgetSeconds = 60.0;
// A repeat re-submits the request of the job this many arrivals earlier,
// which has long finished, so the shared L2 cache can serve it.
constexpr int kRepeatDistance = 63;

const std::vector<std::string>& Datasets() {
  static const std::vector<std::string> names = {
      "Indian Liver Patient", "Irish Educational Transitions", "Brazil Tourism"};
  return names;
}

// A job shape: dataset (index into Datasets()), strategy, model.
struct Shape {
  int dataset;
  const char* strategy;
  ml::ModelKind model;
};

constexpr ml::ModelKind kLR = ml::ModelKind::kLogisticRegression;
constexpr ml::ModelKind kDT = ml::ModelKind::kDecisionTree;
constexpr ml::ModelKind kSVM = ml::ModelKind::kLinearSvm;

// Every new job walks a fixed part of its search space, so job costs stay
// within 5-40 ms on one engine thread and the latency percentiles do not
// sit on a gap between trivial and heavy jobs:
//   * SBS and RFE jobs are satisfiable (F1 >= 0.5 with at most 30% of the
//     features): they eliminate features down to the size bound, then
//     succeed;
//   * SFS, ES and "auto" jobs demand F1 = 1, which label noise rules out,
//     so they traverse their whole space and report no success.
// NB is left out: its fits take microseconds (select_batch covers it).
const std::vector<Shape>& ExplicitShapes() {
  static const std::vector<Shape> shapes = {
      {0, "SFS(NR)", kLR},    {1, "SBS(NR)", kSVM},   {2, "RFE(Model)", kLR},
      {0, "SBS(NR)", kDT},    {1, "ES(NR)", kLR},     {2, "SFS(NR)", kSVM},
      {0, "RFE(Model)", kDT}, {1, "SFS(NR)", kDT},    {2, "ES(NR)", kDT},
      {1, "SBS(NR)", kLR},    {1, "RFE(Model)", kDT}, {2, "SBS(NR)", kSVM},
  };
  return shapes;
}

// "auto" jobs: the router resolves them to the default, SFS(NR).
const std::vector<Shape>& AutoShapes() {
  static const std::vector<Shape> shapes = {
      {0, "auto", kLR}, {1, "auto", kSVM}, {2, "auto", kSVM}, {0, "auto", kDT}};
  return shapes;
}

struct JobSpec {
  serve::JobRequest request;
  bool is_auto = false;
  int repeat_of = -1;  // index of the job whose request this repeats
};

// Shares, by arrival index i: i % 4 == 1 is an "auto" job, i % 4 == 3 (once
// i >= kRepeatDistance) repeats job i - kRepeatDistance, the rest name a
// clock-free strategy.
std::vector<JobSpec> BuildJobs(int count, uint64_t seed) {
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  int explicit_jobs = 0, auto_jobs = 0;
  for (int i = 0; i < count; ++i) {
    if (i % 4 == 3 && i >= kRepeatDistance) {
      JobSpec job = jobs[i - kRepeatDistance];
      job.repeat_of = i - kRepeatDistance;
      jobs.push_back(job);
      continue;
    }
    JobSpec job;
    job.is_auto = i % 4 == 1;
    const Shape& shape =
        job.is_auto ? AutoShapes()[auto_jobs++ % AutoShapes().size()]
                    : ExplicitShapes()[explicit_jobs++ % ExplicitShapes().size()];
    serve::JobRequest& request = job.request;
    request.dataset = Datasets()[shape.dataset];
    request.strategy = shape.strategy;
    request.model = shape.model;
    const std::string strategy = shape.strategy;
    constraints::ConstraintSetBuilder builder;
    builder.MaxSearchSeconds(kBudgetSeconds);
    if (strategy == "SBS(NR)" || strategy == "RFE(Model)") {
      builder.MinF1(0.4).MaxFeatureFraction(0.4);
    } else {
      builder.MinF1(1.0);
    }
    // ES enumerates every subset up to the size bound: two features.
    if (strategy == "ES(NR)") builder.MaxFeatureFraction(0.12);
    request.constraint_set = *builder.Build();
    request.seed = seed * 7919 + static_cast<uint64_t>(i);
    jobs.push_back(job);
  }
  return jobs;
}

// One booted service: server, front-end and the client's connection.
struct Service {
  std::unique_ptr<serve::DfsServer> server;
  std::unique_ptr<serve::EventLoopFrontEnd> frontend;
  std::unique_ptr<serve::LineChannel> channel;

  ~Service() {
    channel.reset();
    if (frontend != nullptr) {
      frontend->RequestStop();
      frontend->Wait();
    }
    if (server != nullptr) server->Shutdown();
  }
};

// Pins the calling thread (and the threads it creates from now on) to
// `cpus`; false when the host refuses.
bool PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// Boots the service. With `worker_cpus` and `client_cpus` set, the worker
// fleet runs on the first set and the front-end's threads plus the calling
// (client) thread on the second: the client spins between requests and
// blocks in read() while the I/O thread serves it, so each request is a
// hand-off on an awake core, never a wake-up of an idle one.
StatusOr<std::unique_ptr<Service>> Boot(int workers,
                                        const std::vector<int>& worker_cpus,
                                        const std::vector<int>& client_cpus) {
  auto service = std::make_unique<Service>();
  const bool pin = !worker_cpus.empty() && PinTo(worker_cpus);
  serve::ServerOptions server_options;
  server_options.num_workers = workers;
  server_options.queue_capacity = 4096;
  server_options.dataset_row_scale = kRowScale;
  server_options.seed = kDataSeed;
  // The clock-free default keeps "auto" jobs deterministic and small.
  server_options.default_auto_strategy = "SFS(NR)";
  service->server = std::make_unique<serve::DfsServer>(server_options);
  if (pin) PinTo(client_cpus);
  for (const std::string& name : Datasets()) {
    DFS_ASSIGN_OR_RETURN(auto spec, data::BenchmarkSpecByName(name));
    DFS_ASSIGN_OR_RETURN(auto dataset,
                         data::GenerateDataset(spec, kDataSeed, kRowScale));
    service->server->RegisterDataset(name, std::move(dataset));
  }
  serve::EventLoopOptions frontend_options;
  frontend_options.io_threads = 1;
  service->frontend = std::make_unique<serve::EventLoopFrontEnd>(
      *service->server, frontend_options);
  DFS_RETURN_IF_ERROR(service->frontend->Start());
  DFS_ASSIGN_OR_RETURN(
      int fd, serve::TcpConnect("127.0.0.1", service->frontend->port()));
  service->channel = std::make_unique<serve::LineChannel>(fd);
  return service;
}

StatusOr<serve::JsonObject> Call(serve::LineChannel& channel,
                                 const std::string& line) {
  DFS_RETURN_IF_ERROR(channel.WriteLine(line));
  DFS_ASSIGN_OR_RETURN(std::string response, channel.ReadLine());
  return serve::ParseJsonLine(response);
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// Absolute-time pacing by spinning: the client owns its core, and a
// sleeping vCPU can take milliseconds to wake on a virtualized host.
void WaitUntil(Clock::time_point deadline) {
  while (Clock::now() < deadline) {
  }
}

// CPU seconds of the calling thread.
double ThreadCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

// What one open-loop schedule measured.
struct Schedule {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int jobs = 0;
  int failed = 0;
  int solved = 0;
  std::vector<double> job_ms, submit_auto_us, submit_explicit_us, poll_us,
      lateness_us, queue_ms, run_ms, widths;
  std::vector<std::string> check_failures;
};

// The result fields a repeated fingerprint must reproduce.
std::string ResultKey(const serve::JsonObject& result) {
  std::string key;
  for (const char* field : {"success", "strategy", "features", "validation_f1",
                            "test_f1", "validation_eo", "test_eo"}) {
    auto it = result.find(field);
    if (it == result.end()) return "";
    key += serve::WriteJsonLine({{field, it->second}});
  }
  return key;
}

int CountWords(const std::string& text) {
  int count = 0;
  bool in_word = false;
  for (char c : text) {
    if (c != ' ' && !in_word) ++count;
    in_word = c != ' ';
  }
  return count;
}

// A submitted job the client still polls.
struct InFlight {
  int index = 0;
  uint64_t id = 0;
  Clock::time_point intended;
  Clock::time_point next_poll;
};

// One client thread on one connection, spinning between events. Submit i
// is due at start + i / rate
// whatever the server is doing (the open loop); between submits every
// in-flight job is polled each kPollIntervalS until terminal, then its
// result is fetched. Job latency runs from the intended send time to the
// result. A submit that comes due while a poll is on the wire leaves late;
// the lateness is reported.
Schedule RunSchedule(Service& service, const std::vector<JobSpec>& jobs,
                     Tracer& tracer) {
  Schedule schedule;
  schedule.jobs = static_cast<int>(jobs.size());
  serve::LineChannel& channel = *service.channel;
  const auto interval = ToDuration(1.0 / kJobsPerSecond);
  const auto poll_interval = ToDuration(kPollIntervalS);
  const double cpu_before = ProcessCpuSeconds();
  const double client_cpu_before = ThreadCpuSeconds();
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto give_up = start + interval * static_cast<int64_t>(jobs.size()) +
                       std::chrono::seconds(90);
  std::vector<std::string> result_keys(jobs.size());
  std::vector<InFlight> in_flight;
  auto last_result = start;
  size_t next_submit = 0;
  const auto fail_job = [&](const std::string& why) {
    ++schedule.failed;
    schedule.check_failures.push_back(why);
  };

  while (next_submit < jobs.size() || !in_flight.empty()) {
    if (Clock::now() > give_up) {
      schedule.failed +=
          static_cast<int>(in_flight.size() + jobs.size() - next_submit);
      schedule.check_failures.push_back(
          "jobs still running long after the schedule");
      break;
    }
    const auto submit_due = start + interval * static_cast<int64_t>(next_submit);
    auto earliest = std::min_element(
        in_flight.begin(), in_flight.end(),
        [](const InFlight& a, const InFlight& b) { return a.next_poll < b.next_poll; });
    const bool submit_next =
        next_submit < jobs.size() &&
        (earliest == in_flight.end() || submit_due <= earliest->next_poll);

    if (submit_next) {
      WaitUntil(submit_due);
      const JobSpec& job = jobs[next_submit];
      const auto sent = Clock::now();
      schedule.lateness_us.push_back(
          1e6 * std::chrono::duration<double>(sent - submit_due).count());
      const int span =
          tracer.Begin("serve.submit", job.is_auto ? "auto" : "explicit");
      auto response = Call(channel, serve::FormatSubmitLine(job.request));
      tracer.End(span);
      (job.is_auto ? schedule.submit_auto_us : schedule.submit_explicit_us)
          .push_back(1e6 * SecondsSince(sent));
      if (!response.ok() || !serve::GetBool(*response, "ok").value_or(false)) {
        // queue_full sheds and errors alike: the job is missing.
        fail_job("submit refused for job " + std::to_string(next_submit));
      } else {
        if (job.is_auto &&
            serve::GetString(*response, "strategy").value_or("") != "SFS(NR)") {
          schedule.check_failures.push_back("auto job not routed to the default");
        }
        // Each job's poll grid starts at its own seeded phase, so job
        // latencies are not quantized to the poll interval.
        Rng phase(job.request.seed);
        in_flight.push_back(
            {static_cast<int>(next_submit),
             static_cast<uint64_t>(serve::GetNumber(*response, "id").value_or(0)),
             submit_due, sent + ToDuration(kPollIntervalS * phase.Uniform())});
      }
      ++next_submit;
      continue;
    }

    WaitUntil(earliest->next_poll);
    InFlight& job = *earliest;
    const std::string id = std::to_string(job.id);
    const auto sent = Clock::now();
    const int span = tracer.Begin("serve.poll", "id=" + id);
    auto status = Call(channel, "{\"op\":\"status\",\"id\":" + id + "}");
    tracer.End(span);
    schedule.poll_us.push_back(1e6 * SecondsSince(sent));
    const std::string state =
        status.ok() ? serve::GetString(*status, "state").value_or("") : "";
    if (state == "QUEUED" || state == "RUNNING") {
      while (job.next_poll <= Clock::now()) job.next_poll += poll_interval;
      continue;
    }
    const int index = job.index;
    const auto intended = job.intended;
    in_flight.erase(earliest);
    if (state != "DONE") {
      // TIMED_OUT, FAILED or CANCELLED: the output is missing or depends on
      // the clock.
      fail_job("job " + std::to_string(index) + " ended " +
               (state.empty() ? "without a status" : state));
      continue;
    }
    schedule.queue_ms.push_back(
        1e3 * serve::GetNumber(*status, "queue_seconds").value_or(0));
    schedule.run_ms.push_back(
        1e3 * serve::GetNumber(*status, "run_seconds").value_or(0));
    const int result_span = tracer.Begin("serve.result", "id=" + id);
    auto result = Call(channel, "{\"op\":\"result\",\"id\":" + id + "}");
    tracer.End(result_span);
    last_result = Clock::now();
    if (!result.ok() || !serve::GetBool(*result, "ok").value_or(false)) {
      fail_job("result unavailable for job " + std::to_string(index));
      continue;
    }
    schedule.job_ms.push_back(
        1e3 * std::chrono::duration<double>(last_result - intended).count());
    const bool success = serve::GetBool(*result, "success").value_or(false);
    schedule.solved += success ? 1 : 0;
    const double width = serve::GetNumber(*result, "num_features").value_or(-1);
    schedule.widths.push_back(width);
    if (width != CountWords(serve::GetString(*result, "features").value_or("")) ||
        (success && width < 1)) {
      schedule.check_failures.push_back("result features are inconsistent");
    }
    result_keys[index] = ResultKey(*result);
    if (result_keys[index].empty()) {
      schedule.check_failures.push_back("result is missing fields");
    }
    const int original = jobs[index].repeat_of;
    if (original >= 0 && !result_keys[original].empty() &&
        result_keys[index] != result_keys[original]) {
      schedule.check_failures.push_back(
          "a repeated fingerprint returned another result");
    }
  }
  schedule.wall_s = std::chrono::duration<double>(last_result - start).count();
  // The server's CPU: the spinning client's own time is harness cost.
  schedule.cpu_s = (ProcessCpuSeconds() - cpu_before) -
                   (ThreadCpuSeconds() - client_cpu_before);
  return schedule;
}

}  // namespace

Report RunServeJobs(const RunOptions& options, Tracer& tracer) {
  Report report;
  // The fleet gets every core but one, one engine thread per job (the
  // server splits DFS_THREADS across its workers); the client and the
  // front-end's threads share the last core.
  const int budget = ThreadBudget();
  const int workers = std::max(1, budget - 1);
  ::setenv("DFS_THREADS", std::to_string(workers).c_str(), 1);
  std::vector<int> worker_cpus, client_cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (budget >= 2 && sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      (static_cast<int>(worker_cpus.size()) < workers ? worker_cpus : client_cpus)
          .push_back(cpu);
    }
  }

  // Set-up: boot (datasets, server, front-end, connection) and warm up with
  // one job per dataset. kSetups times, median reported; the last stays up.
  std::vector<double> setup_s;
  std::unique_ptr<Service> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    const auto start = Clock::now();
    auto booted = Boot(workers, worker_cpus, client_cpus);
    if (!booted.ok()) {
      report.Fail("serve_jobs: boot failed: " + booted.status().ToString());
      return report;
    }
    service = std::move(*booted);
    for (size_t d = 0; d < Datasets().size(); ++d) {
      serve::JobRequest warm;
      warm.dataset = Datasets()[d];
      warm.strategy = "SFS(NR)";
      warm.constraint_set =
          *constraints::ConstraintSetBuilder().MinF1(0.5).MaxSearchSeconds(kBudgetSeconds).Build();
      warm.seed = ~options.seed - d;  // never a measured job's fingerprint
      auto id = service->server->Submit(warm);
      if (!id.ok() || !service->server->WaitForTerminal(*id, 60).ok()) {
        report.Fail("serve_jobs: warm-up job failed");
        return report;
      }
    }
    setup_s.push_back(SecondsSince(start));
  }
  report.Set("setup_s", Median(setup_s));

  const auto jobs_for = [&](double seconds, uint64_t offset) {
    const int count = std::max(1, static_cast<int>(seconds * kJobsPerSecond));
    return BuildJobs(count, options.seed + offset);
  };
  std::optional<Schedule> baseline;
  Schedule measured;
  if (!options.trace) {
    measured = RunSchedule(*service, jobs_for(options.seconds, 0), tracer);
  } else {
    // First half untraced (the overhead baseline), second half traced with
    // fresh fingerprints, so both halves see the same cache behaviour.
    Tracer untraced(false);
    baseline = RunSchedule(*service, jobs_for(options.seconds / 2, 0), untraced);
    ResetInstruments(report);
    if (!obs::TraceWriter::Open(options.work_dir + "/serve_jobs.program.jsonl")
             .ok()) {
      report.Fail("serve_jobs: cannot open the program trace");
    }
    measured = RunSchedule(*service, jobs_for(options.seconds / 2, 1u << 20),
                           tracer);
    obs::TraceWriter::Close();
  }
  const int attempted = measured.jobs + (baseline ? baseline->jobs : 0);
  report.attempted = attempted;
  report.failed = measured.failed + (baseline ? baseline->failed : 0);
  for (const Schedule* schedule : {&measured, baseline ? &*baseline : nullptr}) {
    if (schedule == nullptr) continue;
    for (const std::string& why : schedule->check_failures) {
      report.Fail("serve_jobs: " + why);
    }
  }

  const serve::ServerStats stats = service->server->Stats();
  report.Check(stats.rejected == 0, "serve_jobs: the queue shed submissions");
  report.Check(stats.accepted == stats.terminal(),
               "serve_jobs: server counters do not reconcile at quiescence");

  // The server's time per request: queue wait plus run, from each job's
  // terminal status.
  std::vector<double> server_ms(measured.queue_ms.size());
  for (size_t k = 0; k < server_ms.size(); ++k) {
    server_ms[k] = measured.queue_ms[k] + measured.run_ms[k];
  }
  report.Set("wall_s", measured.wall_s);
  report.Set("cpu_s", measured.cpu_s);
  report.Set("solved_cells", measured.solved);
  report.Set("request_p50_ms", Percentile(server_ms, 0.50));
  report.Set("request_p90_ms", Percentile(server_ms, 0.90));
  report.Set("job_p50_ms", Percentile(measured.job_ms, 0.50));
  report.Set("job_p99_ms", Percentile(measured.job_ms, 0.99));
  report.context["loadgen.lateness_p99_us"] = Percentile(measured.lateness_us, 0.99);
  report.context["samples.jobs"] = measured.job_ms.size();
  report.context["samples.polls"] = measured.poll_us.size();

  if (options.trace) {
    const auto per_job = [](const Schedule& s) {
      return s.cpu_s / std::max(1, s.jobs);
    };
    report.Set("trace.overhead_share", per_job(measured) / per_job(*baseline) - 1);
    const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
    const EngineSums sums = ReadEngineSums(snapshot);
    const int engine_threads = 1;
    ReportEngineLayers(sums, engine_threads, report);
    CheckReconciliation(sums, engine_threads, report);

    const auto hist = [&](const std::string& name) {
      auto it = snapshot.histograms.find(name);
      return it == snapshot.histograms.end() ? obs::HistogramSnapshot()
                                             : it->second;
    };
    const obs::HistogramSnapshot request = hist("serve.net.request_seconds");
    report.Set("serve.request_us_p50", 1e6 * request.Quantile(0.50));
    report.Set("serve.request_us_p99", 1e6 * request.Quantile(0.99));
    report.Set("serve.wire_us_p50",
               Percentile(measured.poll_us, 0.50) - 1e6 * request.Quantile(0.50));
    report.Set("poll_p50_us", Percentile(measured.poll_us, 0.50));
    report.Set("poll_p99_us", Percentile(measured.poll_us, 0.99));
    report.Set("serve.queue_wait_ms_p50", Percentile(measured.queue_ms, 0.50));
    report.Set("serve.queue_wait_ms_p99", Percentile(measured.queue_ms, 0.99));
    report.Set("serve.run_ms_p50", Percentile(measured.run_ms, 0.50));
    report.Set("serve.run_ms_p99", Percentile(measured.run_ms, 0.99));
    report.Set("serve.submit_auto_us_p50", Percentile(measured.submit_auto_us, 0.50));
    report.Set("serve.submit_explicit_us_p50",
               Percentile(measured.submit_explicit_us, 0.50));
    const auto counter = [&](const std::string& name) -> double {
      auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    report.Set("router.decisions", counter("router.decisions"));
    const double lookups = counter("cache.hits") + counter("cache.misses");
    report.Set("cache.shared_hit_share",
               lookups > 0 ? counter("cache.hits") / lookups : 0.0);
    report.Set("loadgen.lateness_p99_us", Percentile(measured.lateness_us, 0.99));

    // Replays on the list's dataset of median width (as the server holds
    // it) at the median width of the returned masks. No TPE runs here.
    auto spec = data::BenchmarkSpecByName(Datasets()[Datasets().size() / 2]);
    auto dataset = data::GenerateDataset(*spec, kDataSeed, kRowScale);
    if (dataset.ok()) {
      ReportReplays(*dataset, static_cast<int>(Median(measured.widths)), {},
                    options.seed,
                    report);
    }
  }
  service.reset();
  sched_setaffinity(0, sizeof(allowed), &allowed);
  return report;
}

}  // namespace dfs::perfbench
