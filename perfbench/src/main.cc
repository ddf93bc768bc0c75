// dfs_perfbench: runs one benchmark workload and prints its result.
//
//   dfs_perfbench --workload <study_pool|select_batch|serve_jobs>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>]
//
// The last stdout line is the result object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. The line before it carries the run's context
// (host, build, output digest, failed checks). Exit code 1 when an output
// check failed.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "linalg/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace dfs::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dfs_perfbench --workload <study_pool|select_batch|"
               "serve_jobs> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n");
  return 2;
}

// CPUs this process may run on (what nproc prints).
int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace
}  // namespace dfs::perfbench

int main(int argc, char** argv) {
  using namespace dfs::perfbench;
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || options.trace;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage();
  }

  // The program's thread budget: every core this process may use, unless
  // the caller pinned DFS_THREADS.
  const int cpus = AvailableCpus();
  ::setenv("DFS_THREADS", std::to_string(cpus).c_str(), /*overwrite=*/0);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  Tracer tracer(options.trace);
  Report report;
  const AwakeCpus awake;
  if (options.workload == "study_pool") {
    report = RunStudyPool(options, tracer);
  } else if (options.workload == "select_batch") {
    report = RunSelectBatch(options, tracer);
  } else if (options.workload == "serve_jobs") {
    report = RunServeJobs(options, tracer);
  } else {
    return Usage();
  }
  report.Set("peak_rss_mb", PeakRssMb());
  CheckTrainFailures(report);
  if (options.trace) {
    const std::string path =
        options.work_dir + "/" + options.workload + ".harness.jsonl";
    if (!tracer.Write(path)) report.Fail("cannot write the harness trace");
  }

  // Every metric of the mode is printed; a per-layer metric the workload
  // bypasses reads 0. A missing end-to-end metric is a harness bug.
  std::string metrics;
  for (const MetricDef& def : Catalogue()) {
    if (def.end_to_end == options.trace) continue;
    auto it = report.values.find(def.name);
    double value = 0.0;
    if (it != report.values.end()) {
      value = it->second;
    } else if (def.end_to_end) {
      report.Fail("metric not measured: " + def.name);
    }
    if (!std::isfinite(value)) {
      report.Fail("metric not finite: " + def.name);
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(def.name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(def.unit) + "}";
  }

  std::string context = "{\"context\": {\"workload\": " +
                        JsonString(options.workload) +
                        ", \"seed\": " + std::to_string(options.seed) +
                        ", \"trace\": " + (options.trace ? "1" : "0") +
                        ", \"nproc\": " + std::to_string(cpus) +
                        ", \"dfs_threads\": " + JsonString(std::getenv("DFS_THREADS")) +
                        ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                        ", \"release_build\": " +
                        (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0 ? "true" : "false") +
                        ", \"isa\": " + JsonString(dfs::linalg::kernels::ActiveIsa()) +
                        ", \"compiler\": " + JsonString(__VERSION__) +
                        ", \"digest\": " + JsonString(report.digest);
  for (const auto& [name, value] : report.context) {
    context += ", " + JsonString(name) + ": " + JsonNumber(value);
  }
  context += ", \"check_failures\": [";
  for (size_t i = 0; i < report.check_failures.size(); ++i) {
    context += (i ? ", " : "") + JsonString(report.check_failures[i]);
  }
  context += "]}}";
  std::printf("%s\n", context.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, report.attempted)),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
