#include "router/router.h"

#include <cstdio>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/replay.h"
#include "util/file_util.h"
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

/// %.17g round-trips doubles exactly (the snapshot must restore the exact
/// feature values the trace's probabilities were computed from).
std::string FormatDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

constexpr char kSnapshotHeader[] = "dfs-router v2";

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

std::vector<std::pair<uint64_t, core::ScenarioFeatures>>
FeatureCache::Entries() const {
  util::MutexLock lock(mu_);
  std::vector<std::pair<uint64_t, core::ScenarioFeatures>> entries;
  entries.reserve(order_.size());
  for (const uint64_t fingerprint : order_) {
    entries.emplace_back(fingerprint, entries_.at(fingerprint));
  }
  return entries;
}

// ---------------------------------------------------------------------------
// StrategyRouter

StrategyRouter::StrategyRouter(fs::StrategyId default_strategy)
    : default_strategy_(default_strategy),
      cache_(std::make_shared<FeatureCache>(kFeatureCacheCapacity)) {}

void StrategyRouter::Decide(const core::DfsOptimizer* optimizer,
                            const core::ScenarioFeatures* features,
                            RouteDecision* decision) const {
  decision->featurized = features != nullptr;
  decision->chosen = default_strategy_;
  if (optimizer == nullptr || features == nullptr) return;
  auto probabilities = optimizer->PredictProbabilities(*features);
  if (!probabilities.ok()) {
    DFS_LOG(WARNING) << "router: prediction failed: "
                     << probabilities.status().ToString();
    return;
  }
  decision->chosen =
      core::ArgmaxStrategy(optimizer->strategies(), *probabilities);
  for (fs::StrategyId id : optimizer->strategies()) {
    decision->probabilities.emplace_back(id, (*probabilities)[id]);
  }
}

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
    decision.sequence = sequence_++;
  }
  decision.fingerprint = core::ScenarioFingerprint(
      dataset_name, dataset.num_rows(), dataset.num_features(), model,
      constraint_set);

  // Featurize only when an optimizer can read the features; without one
  // the router routes in microseconds. The features must come from the
  // optimizer's own landmark settings.
  core::ScenarioFeatures features;
  const bool featurized =
      optimizer != nullptr &&
      LookupOrFeaturize(*cache, decision.fingerprint, dataset, model,
                        constraint_set, optimizer->options(), &features);
  Decide(optimizer.get(), featurized ? &features : nullptr, &decision);

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

StatusOr<RouteDecision> StrategyRouter::ReplayDecision(uint64_t fingerprint,
                                                       bool featurized) const {
  std::shared_ptr<const core::DfsOptimizer> optimizer;
  std::shared_ptr<FeatureCache> cache;
  RouteDecision decision;
  {
    util::MutexLock lock(mu_);
    optimizer = optimizer_;
    cache = cache_;
    decision.generation = generation_;
  }
  decision.fingerprint = fingerprint;
  core::ScenarioFeatures features;
  // Peek, not Lookup: replay must not perturb the cache statistics.
  if (featurized && !cache->Peek(fingerprint, &features)) {
    return NotFoundError("fingerprint " + std::to_string(fingerprint) +
                         " is not in the snapshot's feature cache");
  }
  Decide(optimizer.get(), featurized ? &features : nullptr, &decision);
  return decision;
}

// ---------------------------------------------------------------------------
// Snapshot / restore

StatusOr<std::string> StrategyRouter::Serialize() const {
  std::shared_ptr<const core::DfsOptimizer> optimizer;
  std::shared_ptr<FeatureCache> cache;
  uint64_t sequence, generation;
  {
    util::MutexLock lock(mu_);
    optimizer = optimizer_;
    cache = cache_;
    sequence = sequence_;
    generation = generation_;
  }
  std::ostringstream out;
  out << kSnapshotHeader << "\n";
  out << "sequence " << sequence << "\n";
  out << "generation " << generation << "\n";

  const auto entries = cache->Entries();
  out << "cache " << entries.size() << "\n";
  for (const auto& [fingerprint, features] : entries) {
    out << fingerprint << " " << features.values.size();
    for (const double value : features.values) {
      out << " " << FormatDouble(value);
    }
    out << "\n";
  }

  if (optimizer != nullptr) {
    DFS_ASSIGN_OR_RETURN(const std::string blob, optimizer->Serialize());
    out << "optimizer " << blob.size() << "\n" << blob << "\n";
  } else {
    out << "optimizer none\n";
  }
  return out.str();
}

Status StrategyRouter::RestoreState(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line.rfind("dfs-router ", 0) != 0) {
    return InvalidArgumentError("not a serialized dfs::router snapshot");
  }
  if (line != kSnapshotHeader) {
    return InvalidArgumentError("router snapshot version '" +
                                line.substr(11) + "' is not supported (" +
                                kSnapshotHeader + " expected)");
  }
  const auto corrupt = [](const std::string& what) {
    return InvalidArgumentError("corrupt router snapshot: " + what);
  };
  // Reads the next line as "<key> <value>".
  const auto read_field = [&in, &line](const std::string& key,
                                       auto* value) -> bool {
    if (!std::getline(in, line)) return false;
    std::istringstream fields(line);
    std::string name;
    return static_cast<bool>(fields >> name >> *value) && name == key;
  };

  uint64_t sequence = 0, generation = 0;
  if (!read_field("sequence", &sequence)) return corrupt("sequence");
  if (!read_field("generation", &generation)) return corrupt("generation");

  size_t count = 0;
  if (!read_field("cache", &count) || count > (1u << 20)) {
    return corrupt("cache count");
  }
  auto cache = std::make_shared<FeatureCache>(kFeatureCacheCapacity);
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) return corrupt("truncated cache");
    std::istringstream entry(line);
    uint64_t fingerprint = 0;
    size_t dims = 0;
    entry >> fingerprint >> dims;
    if (!entry || dims > 4096) return corrupt("cache entry");
    core::ScenarioFeatures features;
    features.values.resize(dims);
    for (size_t d = 0; d < dims; ++d) entry >> features.values[d];
    if (!entry) return corrupt("cache entry values");
    cache->Insert(fingerprint, features);
  }

  std::string token;
  if (!read_field("optimizer", &token)) return corrupt("optimizer");
  std::shared_ptr<const core::DfsOptimizer> optimizer;
  if (token != "none") {
    size_t bytes = 0;
    std::istringstream size_in(token);
    size_in >> bytes;
    if (!size_in || bytes > (1u << 28)) return corrupt("optimizer size");
    std::string blob(bytes, '\0');
    in.read(blob.data(), static_cast<std::streamsize>(bytes));
    if (!in) return corrupt("truncated optimizer blob");
    DFS_ASSIGN_OR_RETURN(core::DfsOptimizer deserialized,
                         core::DfsOptimizer::Deserialize(blob));
    optimizer =
        std::make_shared<const core::DfsOptimizer>(std::move(deserialized));
  }

  util::MutexLock lock(mu_);
  optimizer_ = std::move(optimizer);
  cache_ = std::move(cache);
  sequence_ = sequence;
  generation_ = generation;
  return OkStatus();
}

Status StrategyRouter::SaveToFile(const std::string& path) const {
  DFS_ASSIGN_OR_RETURN(const std::string text, Serialize());
  return WriteFileAtomically(path, text);
}

Status StrategyRouter::LoadFromFile(const std::string& path) {
  DFS_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  return RestoreState(text);
}

}  // namespace dfs::router
