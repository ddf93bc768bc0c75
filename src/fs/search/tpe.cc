#include "fs/search/tpe.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dfs::fs {
namespace {

// Splits history (value, loss) into good/bad observation values at the
// gamma quantile of losses; at least one observation lands in "good".
template <typename T>
void SplitGoodBad(std::vector<std::pair<T, double>> history, double gamma,
                  std::vector<T>* good, std::vector<T>* bad) {
  std::stable_sort(history.begin(), history.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second;
                   });
  const int num_good = std::max(
      1, static_cast<int>(std::ceil(gamma * history.size())));
  for (size_t i = 0; i < history.size(); ++i) {
    (static_cast<int>(i) < num_good ? good : bad)->push_back(history[i].first);
  }
}

}  // namespace

TpeIntegerOptimizer::TpeIntegerOptimizer(int lo, int hi,
                                         const TpeOptions& options,
                                         uint64_t seed)
    : lo_(lo), hi_(hi), options_(options), rng_(seed) {
  DFS_CHECK_LE(lo_, hi_);
}

double TpeIntegerOptimizer::Density(
    int value, const std::vector<int>& observations) const {
  // Triangular Parzen kernel with bandwidth scaled to the domain, plus a
  // uniform prior mass so unseen values stay reachable.
  const double bandwidth = std::max(1.0, (hi_ - lo_ + 1) / 8.0);
  const double prior = 1.0 / (hi_ - lo_ + 1);
  double density = prior;
  for (int observation : observations) {
    const double distance = std::fabs(value - observation) / bandwidth;
    if (distance < 1.0) density += (1.0 - distance) / bandwidth;
  }
  return density / (observations.size() + 1.0);
}

int TpeIntegerOptimizer::Propose() {
  const int domain = hi_ - lo_ + 1;
  // Startup: uniform exploration, preferring unseen values.
  if (num_observations() < options_.num_startup_trials ||
      num_observations() < 2) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const int value = rng_.UniformInt(lo_, hi_);
      if (!seen_.count(value)) return value;
    }
    return rng_.UniformInt(lo_, hi_);
  }

  std::vector<int> good, bad;
  SplitGoodBad(history_, options_.gamma, &good, &bad);

  // Sample candidates from the good density (rejection-free: categorical
  // over the domain when small, kernel-centered jitter otherwise). The
  // density depends only on `good`, so it is built once per call.
  std::vector<double> weights;
  if (domain <= 256) {
    weights.resize(domain);
    for (int v = 0; v < domain; ++v) weights[v] = Density(lo_ + v, good);
  }
  int best_value = lo_;
  double best_score = -1.0;
  for (int c = 0; c < options_.num_candidates; ++c) {
    int candidate;
    if (domain <= 256) {
      candidate = lo_ + rng_.Categorical(weights);
    } else {
      const int center = good[rng_.UniformInt(0, static_cast<int>(good.size()) - 1)];
      const int jitter = static_cast<int>(rng_.Normal(0.0, domain / 8.0));
      candidate = std::clamp(center + jitter, lo_, hi_);
    }
    const double score = Density(candidate, good) / Density(candidate, bad);
    const bool unseen = !seen_.count(candidate);
    // Prefer unseen candidates: an already-evaluated k re-evaluates to the
    // same cached result and wastes the step.
    const double adjusted = unseen ? score : score * 1e-6;
    if (adjusted > best_score) {
      best_score = adjusted;
      best_value = candidate;
    }
  }
  return best_value;
}

void TpeIntegerOptimizer::Record(int value, double loss) {
  DFS_CHECK(value >= lo_ && value <= hi_);
  history_.emplace_back(value, loss);
  seen_.insert(value);
}

bool TpeIntegerOptimizer::Exhausted() const {
  return static_cast<int>(seen_.size()) == hi_ - lo_ + 1;
}

TpeBinaryOptimizer::TpeBinaryOptimizer(int dims, int max_ones,
                                       const TpeOptions& options,
                                       uint64_t seed)
    : dims_(dims), max_ones_(std::max(1, max_ones)), options_(options),
      rng_(seed) {}

std::vector<char> TpeBinaryOptimizer::RandomMask() {
  // Expected density capped by the size bound.
  const double p = std::min(0.5, static_cast<double>(max_ones_) / dims_);
  std::vector<char> mask(dims_, 0);
  for (int f = 0; f < dims_; ++f) mask[f] = rng_.Bernoulli(p) ? 1 : 0;
  Repair(mask);
  return mask;
}

void TpeBinaryOptimizer::Repair(std::vector<char>& mask) {
  int ones = 0;
  for (char bit : mask) ones += bit ? 1 : 0;
  // Deselect random features while above the bound.
  while (ones > max_ones_) {
    const int f = rng_.UniformInt(0, dims_ - 1);
    if (mask[f]) {
      mask[f] = 0;
      --ones;
    }
  }
  // Guarantee at least one selected feature.
  if (ones == 0) mask[rng_.UniformInt(0, dims_ - 1)] = 1;
}

std::vector<char> TpeBinaryOptimizer::Propose() {
  if (num_observations() < options_.num_startup_trials ||
      num_observations() < 2) {
    return RandomMask();
  }

  std::vector<std::vector<char>> good, bad;
  SplitGoodBad(history_, options_.gamma, &good, &bad);

  // Per-dimension Bernoulli densities with a symmetric 0.5 pseudo-count.
  auto bit_probability = [this](const std::vector<std::vector<char>>& masks,
                                int dim) {
    double ones = 0.5;
    for (const auto& mask : masks) ones += mask[dim] ? 1.0 : 0.0;
    return ones / (masks.size() + 1.0);
  };
  std::vector<double> p_good(dims_), p_bad(dims_);
  for (int f = 0; f < dims_; ++f) {
    p_good[f] = bit_probability(good, f);
    p_bad[f] = bit_probability(bad, f);
  }

  std::vector<char> best_mask;
  double best_score = -1e300;
  for (int c = 0; c < options_.num_candidates; ++c) {
    std::vector<char> candidate(dims_);
    for (int f = 0; f < dims_; ++f) {
      candidate[f] = rng_.Bernoulli(p_good[f]) ? 1 : 0;
    }
    Repair(candidate);
    double score = 0.0;  // log l(x)/g(x)
    for (int f = 0; f < dims_; ++f) {
      const double lg = candidate[f] ? p_good[f] : 1.0 - p_good[f];
      const double lb = candidate[f] ? p_bad[f] : 1.0 - p_bad[f];
      score += std::log(std::max(lg, 1e-12)) - std::log(std::max(lb, 1e-12));
    }
    // Re-proposing an evaluated mask only replays a cached evaluation, so
    // already-seen candidates are heavily demoted.
    if (seen_.count(HashMask(candidate))) score -= 1e6;
    if (score > best_score) {
      best_score = score;
      best_mask = std::move(candidate);
    }
  }
  // Every candidate was already evaluated: fall back to exploration.
  if (best_mask.empty() || seen_.count(HashMask(best_mask))) {
    return RandomMask();
  }
  return best_mask;
}

uint64_t TpeBinaryOptimizer::HashMask(const std::vector<char>& mask) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (char bit : mask) {
    hash ^= static_cast<uint64_t>(bit ? 1 : 0) + 0x9E3779B9ULL;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

void TpeBinaryOptimizer::Record(const std::vector<char>& mask, double loss) {
  history_.emplace_back(mask, loss);
  seen_.insert(HashMask(mask));
}

}  // namespace dfs::fs
