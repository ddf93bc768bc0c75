#include "router/router.h"

#include <cstdio>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dfs::router {
namespace {

/// dfs::obs instruments of the router (registry: docs/PROTOCOL.md). The
/// counters reconcile with RouterStats at quiescence; the histogram holds
/// what the counters cannot: the cost distribution of the landmark-CV
/// featurization.
struct RouterMetrics {
  obs::Counter& decisions;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Gauge& generation;
  obs::Histogram& featurize_seconds;

  static RouterMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static RouterMetrics* metrics = new RouterMetrics{
        registry.counter("router.decisions"),
        registry.counter("router.feature_cache_hits"),
        registry.counter("router.feature_cache_misses"),
        registry.gauge("router.generation"),
        registry.histogram("router.featurize_seconds"),
    };
    return *metrics;
  }
};

/// The detail line of one "router.decision" span (DESIGN.md §2g):
///
///   gen=1 fp=1234 feat=1 chosen=15 probs=14:0.25,15:0.8125
///
/// Strategy ids are their fs::StrategyId integer values; probabilities are
/// %.17g, which round-trips doubles exactly; an empty list is "-".
std::string DecisionDetail(const RouteDecision& decision) {
  std::ostringstream out;
  out << "gen=" << decision.generation << " fp=" << decision.fingerprint
      << " feat=" << (decision.featurized ? 1 : 0)
      << " chosen=" << static_cast<int>(decision.chosen) << " probs=";
  if (decision.probabilities.empty()) out << "-";
  for (size_t i = 0; i < decision.probabilities.size(); ++i) {
    char probability[40];
    std::snprintf(probability, sizeof(probability), "%.17g",
                  decision.probabilities[i].second);
    out << (i > 0 ? "," : "")
        << static_cast<int>(decision.probabilities[i].first) << ":"
        << probability;
  }
  return out.str();
}

/// Cache lookup or FeaturizeScenario with `options` (outside every router
/// lock); false when featurization fails.
bool LookupOrFeaturize(FeatureCache& cache, uint64_t fingerprint,
                       const data::Dataset& dataset, ml::ModelKind model,
                       const constraints::ConstraintSet& constraint_set,
                       const core::OptimizerOptions& options,
                       core::ScenarioFeatures* features) {
  RouterMetrics& metrics = RouterMetrics::Get();
  if (cache.Lookup(fingerprint, features)) {
    metrics.cache_hits.Increment();
    return true;
  }
  metrics.cache_misses.Increment();
  // FeaturizeScenario is deterministic, so a concurrent miss on the same
  // fingerprint computes the same values and Insert keeps the first.
  obs::ScopedTimer timer(metrics.featurize_seconds);
  auto featurized =
      core::FeaturizeScenario(dataset, model, constraint_set, options);
  if (!featurized.ok()) {
    timer.Cancel();
    DFS_LOG(WARNING) << "router: featurization failed: "
                     << featurized.status().ToString();
    return false;
  }
  *features = *std::move(featurized);
  cache.Insert(fingerprint, *features);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// FeatureCache

FeatureCache::FeatureCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool FeatureCache::Lookup(uint64_t fingerprint,
                          core::ScenarioFeatures* features) const {
  util::MutexLock lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  *features = it->second;
  return true;
}

bool FeatureCache::Peek(uint64_t fingerprint,
                        core::ScenarioFeatures* features) const {
  util::MutexLock lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return false;
  *features = it->second;
  return true;
}

void FeatureCache::Insert(uint64_t fingerprint,
                          const core::ScenarioFeatures& features) {
  util::MutexLock lock(mu_);
  auto [it, inserted] = entries_.try_emplace(fingerprint, features);
  if (!inserted) return;  // a concurrent featurize won; values are equal
  order_.push_back(fingerprint);
  while (entries_.size() > capacity_) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
}

size_t FeatureCache::size() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

uint64_t FeatureCache::hits() const {
  util::MutexLock lock(mu_);
  return hits_;
}

uint64_t FeatureCache::misses() const {
  util::MutexLock lock(mu_);
  return misses_;
}

// ---------------------------------------------------------------------------
// StrategyRouter

StrategyRouter::StrategyRouter(fs::StrategyId default_strategy)
    : default_strategy_(default_strategy),
      cache_(std::make_shared<FeatureCache>(kFeatureCacheCapacity)) {}

RouteDecision StrategyRouter::Route(
    const data::Dataset& dataset, const std::string& dataset_name,
    ml::ModelKind model, const constraints::ConstraintSet& constraint_set) {
  std::shared_ptr<const core::DfsOptimizer> optimizer;
  std::shared_ptr<FeatureCache> cache;
  RouteDecision decision;
  {
    util::MutexLock lock(mu_);
    optimizer = optimizer_;
    cache = cache_;
    decision.generation = generation_;
  }
  decision.fingerprint = core::ScenarioFingerprint(
      dataset_name, dataset.num_rows(), dataset.num_features(), model,
      constraint_set);

  // Featurize only when an optimizer can read the features; without one
  // the router routes in microseconds. The features must come from the
  // optimizer's own landmark settings.
  core::ScenarioFeatures features;
  decision.featurized =
      optimizer != nullptr &&
      LookupOrFeaturize(*cache, decision.fingerprint, dataset, model,
                        constraint_set, optimizer->options(), &features);
  decision.chosen = default_strategy_;
  if (decision.featurized) {
    auto probabilities = optimizer->PredictProbabilities(features);
    if (probabilities.ok()) {
      decision.chosen =
          core::ArgmaxStrategy(optimizer->strategies(), *probabilities);
      for (fs::StrategyId id : optimizer->strategies()) {
        decision.probabilities.emplace_back(id, (*probabilities)[id]);
      }
    } else {
      DFS_LOG(WARNING) << "router: prediction failed: "
                       << probabilities.status().ToString();
    }
  }

  RecordDecision(decision);
  if (obs::TraceWriter::enabled()) {
    obs::TraceSpan span("router.decision", DecisionDetail(decision));
  }
  return decision;
}

void StrategyRouter::RecordDecision(const RouteDecision& decision) {
  RouterMetrics::Get().decisions.Increment();
  util::MutexLock lock(mu_);
  ++routes_[decision.chosen];
  // Per-strategy route counters are a dynamic family ("router.routes.<label>"
  // in the registry); the reference is cached per strategy so the hot path
  // registers each name once.
  obs::Counter*& counter = route_counters_[decision.chosen];
  if (counter == nullptr) {
    counter = &obs::MetricsRegistry::Global().counter(
        "router.routes." +
        obs::SanitizeLabel(fs::StrategyIdToString(decision.chosen)));
  }
  counter->Increment();
}

void StrategyRouter::InstallOptimizer(core::DfsOptimizer optimizer) {
  auto installed =
      std::make_shared<const core::DfsOptimizer>(std::move(optimizer));
  auto cache = std::make_shared<FeatureCache>(kFeatureCacheCapacity);
  util::MutexLock lock(mu_);
  optimizer_ = std::move(installed);
  cache_ = std::move(cache);
  ++generation_;
  RouterMetrics::Get().generation.Set(static_cast<int64_t>(generation_));
}

RouterStats StrategyRouter::Stats() const {
  RouterStats stats;
  std::shared_ptr<FeatureCache> cache;
  {
    util::MutexLock lock(mu_);
    stats.generation = generation_;
    stats.optimizer_loaded = optimizer_ != nullptr;
    for (const auto& [id, count] : routes_) {
      stats.decisions += count;
      stats.routes[fs::StrategyIdToString(id)] = count;
    }
    cache = cache_;
  }
  stats.feature_cache_size = cache->size();
  stats.feature_cache_hits = cache->hits();
  stats.feature_cache_misses = cache->misses();
  return stats;
}

bool StrategyRouter::PeekFeatures(uint64_t fingerprint,
                                  core::ScenarioFeatures* features) const {
  std::shared_ptr<FeatureCache> cache;
  {
    util::MutexLock lock(mu_);
    cache = cache_;
  }
  return cache->Peek(fingerprint, features);
}

}  // namespace dfs::router
