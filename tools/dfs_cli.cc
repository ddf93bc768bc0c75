// dfs_cli — run declarative feature selection on your own dataset.
//
//   dfs_cli --data loans.csv --target defaulted --sensitive gender
//           --min-f1 0.7 --min-eo 0.9 --budget 30 --strategy "SFFS(NR)"
//
// Input is CSV (binary 0/1 target & sensitive columns) or ARFF (binary
// nominal target & sensitive attributes, chosen by file extension). The
// standard preprocessing pipeline (imputation, scaling, one-hot encoding)
// is applied before the search. `--strategy portfolio` runs the paper's
// best 5-strategy portfolio in parallel; `--strategy list` prints every
// available strategy.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/dfs.h"
#include "core/engine.h"
#include "data/arff.h"
#include "data/preprocess.h"
#include "data/raw_dataset.h"
#include "fs/registry.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace dfs {
namespace {

struct CliOptions {
  std::string data;
  std::string target;
  std::string sensitive;
  std::string model = "LR";
  std::string strategy = "SFFS(NR)";
  double min_f1 = 0.7;
  double min_eo = -1.0;
  double min_safety = -1.0;
  double max_features = -1.0;
  double epsilon = -1.0;
  double budget = 30.0;
  bool hpo = false;
  bool utility = false;
  std::string trace;  // CSV path for the per-evaluation search trace
  int seed = 42;
  bool help = false;
};

void RegisterFlags(FlagParser& parser, CliOptions& options) {
  parser.AddString("data", "input dataset (.csv or .arff)", &options.data);
  parser.AddString("target", "binary target column/attribute",
                   &options.target);
  parser.AddString("sensitive", "binary sensitive column/attribute",
                   &options.sensitive);
  parser.AddString("model", "classification model: LR, NB, DT, SVM",
                   &options.model);
  parser.AddString("strategy",
                   "FS strategy name (e.g. \"SFFS(NR)\", \"TPE(FCBF)\"), "
                   "\"portfolio\", or \"list\"",
                   &options.strategy);
  parser.AddDouble("min-f1", "mandatory minimum F1 score", &options.min_f1);
  parser.AddDouble("min-eo", "minimum equal opportunity (omit to disable)",
                   &options.min_eo);
  parser.AddDouble("min-safety",
                   "minimum adversarial safety (omit to disable)",
                   &options.min_safety);
  parser.AddDouble("max-features",
                   "maximum feature fraction in (0, 1] (omit to disable)",
                   &options.max_features);
  parser.AddDouble("epsilon",
                   "differential-privacy epsilon (omit to disable)",
                   &options.epsilon);
  parser.AddDouble("budget", "maximum search time in seconds",
                   &options.budget);
  parser.AddBool("hpo", "grid-search model hyperparameters per evaluation",
                 &options.hpo);
  parser.AddBool("utility",
                 "maximize F1 subject to the constraints (Eq. 2)",
                 &options.utility);
  parser.AddString("trace",
                   "write the per-evaluation search trace to this CSV file",
                   &options.trace);
  parser.AddInt("seed", "random seed", &options.seed);
  parser.AddBool("help", "print usage", &options.help);
}

void PrintStrategyList() {
  std::printf("benchmarked strategies (Section 4.2):\n");
  for (fs::StrategyId id : fs::AllStrategies()) {
    std::printf("  %s\n", fs::StrategyIdToString(id).c_str());
  }
  std::printf("extensions:\n");
  for (fs::StrategyId id : fs::ExtensionStrategies()) {
    std::printf("  %s\n", fs::StrategyIdToString(id).c_str());
  }
  std::printf("meta:\n  portfolio  (parallel 5-strategy pool, Table 8)\n");
}

StatusOr<data::RawDataset> LoadRaw(const CliOptions& options) {
  if (EndsWith(ToLower(options.data), ".arff")) {
    return data::ReadArffFile(options.data, options.target,
                              options.sensitive);
  }
  DFS_ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(options.data));
  return data::RawDatasetFromCsv(table, options.target, options.sensitive,
                                 options.data);
}

StatusOr<ml::ModelKind> ParseModel(const std::string& name) {
  const std::string upper = ToLower(name);
  if (upper == "lr") return ml::ModelKind::kLogisticRegression;
  if (upper == "nb") return ml::ModelKind::kNaiveBayes;
  if (upper == "dt") return ml::ModelKind::kDecisionTree;
  if (upper == "svm") return ml::ModelKind::kLinearSvm;
  return InvalidArgumentError("unknown model: " + name);
}

int RealMain(int argc, char** argv) {
  CliOptions options;
  FlagParser parser(
      "dfs_cli — declarative feature selection (DFS, SIGMOD 2021 "
      "reproduction)");
  RegisterFlags(parser, options);
  if (Status status = parser.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n\n%s", status.ToString().c_str(),
                 parser.Help().c_str());
    return 1;
  }
  if (options.help) {
    std::fputs(parser.Help().c_str(), stdout);
    return 0;
  }
  if (options.strategy == "list") {
    PrintStrategyList();
    return 0;
  }
  if (options.data.empty() || options.target.empty() ||
      options.sensitive.empty()) {
    std::fprintf(stderr,
                 "--data, --target and --sensitive are required\n\n%s",
                 parser.Help().c_str());
    return 1;
  }

  auto raw = LoadRaw(options);
  if (!raw.ok()) {
    std::fprintf(stderr, "load: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto dataset = data::Preprocess(*raw);
  if (!dataset.ok()) {
    std::fprintf(stderr, "preprocess: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset: %s — %d rows, %d attributes -> %d encoded features\n",
              dataset->name().c_str(), dataset->num_rows(),
              raw->num_attributes(), dataset->num_features());

  constraints::ConstraintSetBuilder builder;
  builder.MinF1(options.min_f1).MaxSearchSeconds(options.budget);
  if (options.min_eo >= 0) builder.MinEqualOpportunity(options.min_eo);
  if (options.min_safety >= 0) builder.MinSafety(options.min_safety);
  if (options.max_features > 0) builder.MaxFeatureFraction(options.max_features);
  if (options.epsilon > 0) builder.PrivacyEpsilon(options.epsilon);
  auto constraint_set = builder.Build();
  if (!constraint_set.ok()) {
    std::fprintf(stderr, "constraints: %s\n",
                 constraint_set.status().ToString().c_str());
    return 1;
  }
  std::printf("constraints: %s\n", constraint_set->ToString().c_str());

  auto model = ParseModel(options.model);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }

  core::DeclarativeFeatureSelection dfs(
      *dataset, static_cast<uint64_t>(options.seed));
  dfs.SetModel(*model)
      .SetConstraints(*constraint_set)
      .UseHpo(options.hpo)
      .MaximizeUtility(options.utility)
      .RecordTrace(!options.trace.empty());

  StatusOr<core::DfsResult> result = [&]() -> StatusOr<core::DfsResult> {
    if (options.strategy == "portfolio") {
      return dfs.SelectParallel(
          {fs::StrategyId::kTpeFcbf, fs::StrategyId::kSffs,
           fs::StrategyId::kTpeMask, fs::StrategyId::kTpeMim,
           fs::StrategyId::kSimulatedAnnealing},
          /*num_threads=*/4);
    }
    DFS_ASSIGN_OR_RETURN(fs::StrategyId id,
                         fs::StrategyIdFromString(options.strategy));
    return dfs.Select(id);
  }();
  if (!result.ok()) {
    std::fprintf(stderr, "search: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nstrategy: %s (model %s)\n", result->strategy.c_str(),
              result->model.c_str());
  std::printf("result:   %s after %.2fs\n",
              result->success ? "ALL CONSTRAINTS SATISFIED"
                              : "not satisfied (closest subset below)",
              result->search_seconds);
  std::printf("selected %zu/%d features:\n", result->features.size(),
              dataset->num_features());
  for (const auto& name : result->feature_names) {
    std::printf("  - %s\n", name.c_str());
  }
  auto print_values = [](const char* split,
                         const constraints::MetricValues& values) {
    std::printf("%s: F1=%.3f EO=%.3f safety=%.3f fraction=%.2f\n", split,
                values.f1, values.equal_opportunity, values.safety,
                values.feature_fraction);
  };
  print_values("validation", result->validation_values);
  print_values("test      ", result->test_values);

  if (!options.trace.empty()) {
    CsvTable trace;
    trace.header = {"seconds", "selected_features", "objective", "distance",
                    "satisfied_validation", "success"};
    for (const core::TracePoint& point : result->trace) {
      trace.rows.push_back({FormatDouble(point.seconds, 6),
                            std::to_string(point.selected_features),
                            FormatDouble(point.objective, 6),
                            FormatDouble(point.distance, 6),
                            point.satisfied_validation ? "1" : "0",
                            point.success ? "1" : "0"});
    }
    if (Status status = WriteCsvFile(trace, options.trace); !status.ok()) {
      std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
    } else {
      std::printf("trace: %zu evaluations written to %s\n",
                  result->trace.size(), options.trace.c_str());
    }
  }
  return result->success ? 0 : 2;
}

}  // namespace
}  // namespace dfs

int main(int argc, char** argv) { return dfs::RealMain(argc, argv); }
