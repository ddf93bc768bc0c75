#include "router/replay.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "data/synthetic.h"
#include "obs/trace.h"
#include "util/file_util.h"

namespace dfs::router {
namespace {

std::string FormatProbability(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Extracts the "detail" string value of one flat-JSON trace line. The
/// details the router emits contain no quotes or backslashes, so a
/// backslash-aware scan to the closing quote is exact.
StatusOr<std::string> ExtractDetail(const std::string& line) {
  static const std::string kKey = "\"detail\":\"";
  const size_t pos = line.find(kKey);
  if (pos == std::string::npos) {
    return InvalidArgumentError("trace line has no detail field: " + line);
  }
  std::string out;
  for (size_t i = pos + kKey.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out.push_back(line[++i]);
      continue;
    }
    if (c == '"') return out;
    out.push_back(c);
  }
  return InvalidArgumentError("unterminated detail field: " + line);
}

StatusOr<uint64_t> ParseU64(const std::string& text) {
  if (text.empty()) return InvalidArgumentError("empty integer field");
  char* end = nullptr;
  const uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return InvalidArgumentError("bad integer field: " + text);
  }
  return value;
}

}  // namespace

std::string DecisionDetail(const RouteDecision& decision) {
  std::ostringstream out;
  out << "seq=" << decision.sequence << " gen=" << decision.generation
      << " fp=" << decision.fingerprint
      << " feat=" << (decision.featurized ? 1 : 0)
      << " chosen=" << static_cast<int>(decision.chosen) << " probs=";
  if (decision.probabilities.empty()) {
    out << "-";
  } else {
    for (size_t i = 0; i < decision.probabilities.size(); ++i) {
      if (i > 0) out << ",";
      out << static_cast<int>(decision.probabilities[i].first) << ":"
          << FormatProbability(decision.probabilities[i].second);
    }
  }
  return out.str();
}

StatusOr<TracedDecision> ParseDecisionDetail(const std::string& detail) {
  std::map<std::string, std::string> fields;
  std::istringstream in(detail);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("bad decision detail token: " + token);
    }
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  for (const char* required : {"seq", "gen", "fp", "feat"}) {
    if (fields.find(required) == fields.end()) {
      return InvalidArgumentError(std::string("decision detail is missing ") +
                                  required + ": " + detail);
    }
  }
  TracedDecision traced;
  DFS_ASSIGN_OR_RETURN(traced.sequence, ParseU64(fields["seq"]));
  DFS_ASSIGN_OR_RETURN(traced.generation, ParseU64(fields["gen"]));
  DFS_ASSIGN_OR_RETURN(traced.fingerprint, ParseU64(fields["fp"]));
  traced.featurized = fields["feat"] == "1";
  return traced;
}

StatusOr<ReplayReport> VerifyTrace(const StrategyRouter& router,
                                   const std::string& trace_jsonl) {
  const uint64_t generation = router.Stats().generation;
  ReplayReport report;
  std::istringstream in(trace_jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"span\":\"router.decision\"") == std::string::npos) {
      continue;
    }
    DFS_ASSIGN_OR_RETURN(const std::string detail, ExtractDetail(line));
    DFS_ASSIGN_OR_RETURN(const TracedDecision traced,
                         ParseDecisionDetail(detail));
    if (traced.generation != generation) {
      ++report.skipped;
      continue;
    }
    ++report.checked;
    auto decision =
        router.ReplayDecision(traced.fingerprint, traced.featurized);
    std::string derived;
    if (decision.ok()) {
      // The sequence is history, not state: replay takes it from the trace.
      decision->sequence = traced.sequence;
      derived = DecisionDetail(*decision);
    } else {
      derived = "<" + decision.status().ToString() + ">";
    }
    if (derived != detail) {
      ++report.mismatched;
      if (report.mismatches.size() < 8) {
        report.mismatches.push_back("seq " + std::to_string(traced.sequence) +
                                    "\n  trace:  " + detail +
                                    "\n  replay: " + derived);
      }
    }
  }
  return report;
}

Status ReplaySelfCheck(const std::string& scratch_prefix) {
  data::SyntheticSpec spec;
  spec.name = "replay-selfcheck";
  spec.sensitive_attribute = "Group";
  spec.rows = 80;
  spec.informative_numeric = 3;
  spec.redundant_numeric = 1;
  spec.noise_numeric = 2;
  spec.proxy_features = 1;
  spec.categorical_attributes = 1;
  DFS_ASSIGN_OR_RETURN(const data::Dataset dataset,
                       data::GenerateDataset(spec, 11));
  const ml::ModelKind model = ml::ModelKind::kLogisticRegression;

  // Four scenario shapes, so the optimizer trains on distinct feature
  // vectors and the feature cache holds several fingerprints.
  std::vector<constraints::ConstraintSet> shapes(4);
  for (size_t i = 0; i < shapes.size(); ++i) {
    shapes[i].min_f1 = 0.2 * static_cast<double>(i);
    shapes[i].max_search_seconds = 10.0;
  }
  shapes[3].max_feature_fraction = 0.8;

  // Tiny landmark settings: the self-check exercises plumbing, not model
  // quality. The router must featurize with these, not its defaults.
  core::OptimizerOptions optimizer_options;
  optimizer_options.landmark_sample_size = 40;
  optimizer_options.landmark_folds = 2;
  const fs::StrategyId strategies[] = {
      fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2, fs::StrategyId::kSbs};
  std::vector<core::DfsOptimizer::TrainingExample> examples;
  for (size_t i = 0; i < shapes.size(); ++i) {
    core::DfsOptimizer::TrainingExample example;
    DFS_ASSIGN_OR_RETURN(example.features,
                         core::FeaturizeScenario(dataset, model, shapes[i],
                                                 optimizer_options));
    // Mixed labels per strategy, so every strategy trains a forest.
    example.outcomes[strategies[0]] = i % 2 == 0;
    example.outcomes[strategies[1]] = i < 2;
    example.outcomes[strategies[2]] = i == 1 || i == 2;
    examples.push_back(std::move(example));
  }
  core::DfsOptimizer optimizer(optimizer_options);
  DFS_RETURN_IF_ERROR(optimizer.Train(
      examples, {std::begin(strategies), std::end(strategies)}));

  const std::string trace_path = scratch_prefix + ".trace.jsonl";
  DFS_RETURN_IF_ERROR(obs::TraceWriter::Open(trace_path));
  std::string snapshot;
  {
    StrategyRouter live;
    // Generation 0 routes to the default; the replay skips these.
    for (size_t i = 0; i < 4; ++i) {
      (void)live.Route(dataset, spec.name, model, shapes[i % shapes.size()]);
    }
    live.InstallOptimizer(std::move(optimizer));
    // Generation 1: the replayed decisions, with cache misses then hits.
    for (size_t i = 0; i < 8; ++i) {
      (void)live.Route(dataset, spec.name, model, shapes[i % shapes.size()]);
    }
    DFS_ASSIGN_OR_RETURN(snapshot, live.Serialize());
  }
  obs::TraceWriter::Close();
  DFS_ASSIGN_OR_RETURN(const std::string trace, ReadFileToString(trace_path));

  StrategyRouter restored;
  DFS_RETURN_IF_ERROR(restored.RestoreState(snapshot));
  DFS_ASSIGN_OR_RETURN(const ReplayReport report,
                       VerifyTrace(restored, trace));
  if (report.checked != 8 || report.skipped != 4) {
    return InternalError("expected 8 replayable and 4 skipped decisions, "
                         "got " + std::to_string(report.checked) + " and " +
                         std::to_string(report.skipped));
  }
  if (report.mismatched != 0) {
    std::string message = std::to_string(report.mismatched) + "/" +
                          std::to_string(report.checked) +
                          " decisions did not replay byte-identically";
    for (const std::string& diff : report.mismatches) {
      message += "\n" + diff;
    }
    return InternalError(message);
  }
  std::remove(trace_path.c_str());
  return OkStatus();
}

}  // namespace dfs::router
