// Replayed single-layer costs: each public call is timed in isolation on
// the workload's own data, so a per-layer number can move without the
// end-to-end run's scheduling noise.

#include <algorithm>
#include <numeric>

#include "fs/search/tpe.h"
#include "harness.h"
#include "metrics/robustness.h"
#include "ml/classifier.h"
#include "util/rng.h"

namespace dfs::perfbench {
namespace {

// Median seconds of one call of `fn` over `repetitions` calls.
template <typename Fn>
double MedianSeconds(int repetitions, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(repetitions);
  for (int i = 0; i < repetitions; ++i) {
    const auto start = Clock::now();
    fn(i);
    samples.push_back(SecondsSince(start));
  }
  return Median(samples);
}

}  // namespace

void ReportReplays(const data::Dataset& dataset, int mask_width,
                   const std::vector<int>& tpe_domains, uint64_t seed,
                   Report& report) {
  Rng rng(seed * 7907 + 11);
  const int width = std::clamp(mask_width, 1, dataset.num_features());
  std::vector<int> features(dataset.num_features());
  std::iota(features.begin(), features.end(), 0);
  for (int i = dataset.num_features() - 1; i > 0; --i) {
    std::swap(features[i], features[rng.UniformInt(0, i)]);
  }
  features.resize(width);
  std::sort(features.begin(), features.end());

  linalg::Matrix x;
  report.Set("data.gather_us",
             1e6 * MedianSeconds(200, [&](int) { dataset.GatherInto(features, &x); }));

  const std::vector<int>& y = dataset.labels();
  const std::vector<std::pair<ml::ModelKind, std::string>> models = {
      {ml::ModelKind::kLogisticRegression, "LR"},
      {ml::ModelKind::kNaiveBayes, "NB"},
      {ml::ModelKind::kDecisionTree, "DT"},
      {ml::ModelKind::kLinearSvm, "SVM"},
  };
  std::unique_ptr<ml::Classifier> fitted;
  for (const auto& [kind, name] : models) {
    const double fit_s = MedianSeconds(15, [&](int) {
      auto model = ml::CreateClassifier(kind, ml::Hyperparameters());
      if (!model->Fit(x, y).ok()) report.Fail("replay: Fit failed for " + name);
      if (kind == ml::ModelKind::kLogisticRegression) fitted = std::move(model);
    });
    report.Set("ml.fit_us." + name, 1e6 * fit_s);
  }

  std::vector<int> predictions;
  report.Set("ml.predict_us", 1e6 * MedianSeconds(200, [&](int) {
                                fitted->PredictBatch(x, &predictions);
                              }));

  // The engine's default attack configuration (EngineOptions::robustness).
  const metrics::RobustnessOptions robustness;
  report.Set("metrics.robustness_ms", 1e3 * MedianSeconds(5, [&](int i) {
                                        Rng attack_rng(seed + i);
                                        metrics::EmpiricalRobustness(
                                            *fitted, x, y, attack_rng,
                                            robustness);
                                      }));

  // Propose() after every k in the domain was tried: the state TPE(ranking)
  // strategies reach once their domain is exhausted.
  std::vector<double> propose_us;
  for (int domain : tpe_domains) {
    fs::TpeIntegerOptimizer tpe(1, std::max(1, domain), fs::TpeOptions(),
                                seed + domain);
    for (int k = 1; k <= domain; ++k) tpe.Record(k, rng.Uniform());
    propose_us.push_back(
        1e6 * MedianSeconds(50, [&](int) { tpe.Propose(); }));
  }
  report.Set("fs.tpe_propose_us", Median(propose_us));
}

}  // namespace dfs::perfbench
