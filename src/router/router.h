#ifndef DFS_ROUTER_ROUTER_H_
#define DFS_ROUTER_ROUTER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "fs/registry.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dfs::router {

/// One routing decision, as recorded in the trace (DESIGN.md §2g): the
/// scenario fingerprint, the optimizer's per-strategy probabilities and
/// the argmax they produced.
struct RouteDecision {
  uint64_t generation = 0;   ///< optimizer generation the decision used
  uint64_t fingerprint = 0;  ///< core::ScenarioFingerprint of the scenario
  bool featurized = false;   ///< probabilities were available
  /// P(success) per optimizer strategy, in optimizer order.
  std::vector<std::pair<fs::StrategyId, double>> probabilities;
  fs::StrategyId chosen = fs::StrategyId::kSffs;
};

/// Counters of one router since it was constructed.
struct RouterStats {
  /// Decisions recorded so far: the sum over routes[]. Each Route call
  /// counts once it returns.
  uint64_t decisions = 0;
  uint64_t generation = 0;
  bool optimizer_loaded = false;
  /// Of the installed optimizer's feature cache (a new optimizer starts a
  /// new cache).
  size_t feature_cache_size = 0;
  uint64_t feature_cache_hits = 0;
  uint64_t feature_cache_misses = 0;
  /// Decisions per chosen strategy, by display name.
  std::map<std::string, uint64_t> routes;
};

/// Bounded fingerprint → ScenarioFeatures cache (FIFO eviction): the
/// serving hot path pays FeaturizeScenario once per scenario shape.
class FeatureCache {
 public:
  explicit FeatureCache(size_t capacity);

  bool Lookup(uint64_t fingerprint, core::ScenarioFeatures* features) const;
  /// Lookup that does not count as a hit or miss (an inspection must not
  /// move the statistics the router reports).
  bool Peek(uint64_t fingerprint, core::ScenarioFeatures* features) const;
  void Insert(uint64_t fingerprint, const core::ScenarioFeatures& features);
  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  const size_t capacity_;
  mutable util::Mutex mu_;
  std::map<uint64_t, core::ScenarioFeatures> entries_ DFS_GUARDED_BY(mu_);
  std::deque<uint64_t> order_ DFS_GUARDED_BY(mu_);
  mutable uint64_t hits_ DFS_GUARDED_BY(mu_) = 0;
  mutable uint64_t misses_ DFS_GUARDED_BY(mu_) = 0;
};

/// Strategy routing for served "auto" jobs: the deployment phase of the
/// paper's Algorithm 1. With an installed DfsOptimizer a decision is its
/// argmax (core::ArgmaxStrategy) over the probabilities it predicts for
/// the scenario's cached features; without one it is the default strategy.
/// Every decision is emitted as a "router.decision" trace record.
///
///   router::StrategyRouter router(fs::StrategyId::kSffs);
///   router.InstallOptimizer(std::move(optimizer));
///   RouteDecision d = router.Route(dataset, "COMPAS", model, constraints);
///   ... run d.chosen ...
///
/// Thread-safety: all public methods are thread-safe. Featurization runs
/// outside every router lock.
class StrategyRouter {
 public:
  /// Feature-cache capacity: landmark CV runs once per scenario shape
  /// among the last this many.
  static constexpr size_t kFeatureCacheCapacity = 256;

  /// `default_strategy` resolves "auto" while no optimizer is installed.
  explicit StrategyRouter(
      fs::StrategyId default_strategy = fs::StrategyId::kSffs);

  StrategyRouter(const StrategyRouter&) = delete;
  StrategyRouter& operator=(const StrategyRouter&) = delete;

  /// Routes one "auto" job: fingerprints the scenario, featurizes it
  /// through the cache with the installed optimizer's settings (only when
  /// an optimizer is installed), takes the argmax and emits the trace
  /// record.
  RouteDecision Route(const data::Dataset& dataset,
                      const std::string& dataset_name, ml::ModelKind model,
                      const constraints::ConstraintSet& constraint_set);

  /// Installs a trained optimizer with an empty feature cache and bumps
  /// the generation (the SetOptimizer path of the server).
  void InstallOptimizer(core::DfsOptimizer optimizer);

  RouterStats Stats() const;

  /// The strategy "auto" resolves to without an optimizer's decision.
  fs::StrategyId default_strategy() const { return default_strategy_; }

  /// The installed optimizer's cached features of a scenario, without
  /// counting a hit or miss. False when the scenario is not cached.
  bool PeekFeatures(uint64_t fingerprint,
                    core::ScenarioFeatures* features) const;

 private:
  void RecordDecision(const RouteDecision& decision);

  const fs::StrategyId default_strategy_;

  mutable util::Mutex mu_;
  std::shared_ptr<const core::DfsOptimizer> optimizer_ DFS_GUARDED_BY(mu_);
  /// Features computed with optimizer_'s settings; replaced together with
  /// optimizer_, so a cached entry never serves another optimizer.
  std::shared_ptr<FeatureCache> cache_ DFS_GUARDED_BY(mu_);
  uint64_t generation_ DFS_GUARDED_BY(mu_) = 0;
  std::map<fs::StrategyId, uint64_t> routes_ DFS_GUARDED_BY(mu_);
  /// Cached registry references for the "router.routes.<label>" family so
  /// the hot path registers each name only once.
  std::map<fs::StrategyId, obs::Counter*> route_counters_ DFS_GUARDED_BY(mu_);
};

}  // namespace dfs::router

#endif  // DFS_ROUTER_ROUTER_H_
