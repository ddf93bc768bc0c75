#include "fs/simulated_annealing.h"

#include <algorithm>
#include <cmath>

namespace dfs::fs {
namespace {

constexpr double kInitialTemperature = 0.25;
/// Geometric cooling factor applied per evaluation.
constexpr double kCooling = 0.995;
/// Restart from a fresh random mask after this many rejected moves.
constexpr int kMaxStall = 60;

// Random mask with expected density bounded by the size constraint.
FeatureMask RandomMask(int n, int max_ones, Rng& rng) {
  const double p = std::min(0.5, static_cast<double>(max_ones) / n);
  FeatureMask mask(n, 0);
  int ones = 0;
  for (int f = 0; f < n; ++f) {
    if (rng.Bernoulli(p) && ones < max_ones) {
      mask[f] = 1;
      ++ones;
    }
  }
  if (ones == 0) mask[rng.UniformInt(0, n - 1)] = 1;
  return mask;
}

}  // namespace

void SimulatedAnnealingStrategy::Run(EvalContext& context) {
  const int n = context.num_features();
  const int max_ones = context.max_feature_count();
  Rng rng(seed_);

  FeatureMask current = RandomMask(n, max_ones, rng);
  EvalOutcome current_outcome = context.Evaluate(current);
  if (!current_outcome.evaluated) return;

  double temperature = kInitialTemperature;
  int stall = 0;

  while (!context.ShouldStop()) {
    // Neighbor: flip one bit, respecting size and non-emptiness bounds.
    FeatureMask neighbor = current;
    const int ones = CountSelected(neighbor);
    int flip = rng.UniformInt(0, n - 1);
    if (!neighbor[flip] && ones >= max_ones) {
      // Would exceed the bound: flip a selected bit off instead.
      const std::vector<int> selected = MaskToIndices(neighbor);
      flip = selected[rng.UniformInt(0, static_cast<int>(selected.size()) - 1)];
    } else if (neighbor[flip] && ones <= 1) {
      // Would empty the mask: flip an unselected bit on instead.
      int attempt = rng.UniformInt(0, n - 1);
      while (neighbor[attempt]) attempt = rng.UniformInt(0, n - 1);
      flip = attempt;
    }
    neighbor[flip] = neighbor[flip] ? 0 : 1;

    const EvalOutcome outcome = context.Evaluate(neighbor);
    if (!outcome.evaluated) break;
    const double delta = outcome.objective - current_outcome.objective;
    if (delta <= 0.0 ||
        rng.Bernoulli(std::exp(-delta / std::max(temperature, 1e-6)))) {
      current = std::move(neighbor);
      current_outcome = outcome;
      stall = delta < 0.0 ? 0 : stall + 1;
    } else {
      ++stall;
    }
    temperature *= kCooling;

    if (stall >= kMaxStall) {
      current = RandomMask(n, max_ones, rng);
      current_outcome = context.Evaluate(current);
      if (!current_outcome.evaluated) break;
      temperature = kInitialTemperature;
      stall = 0;
    }
  }
}

}  // namespace dfs::fs
