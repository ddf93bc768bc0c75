#include "fs/evolutionary.h"

#include <algorithm>
#include <cmath>

#include "util/math_util.h"

namespace dfs::fs {
namespace {

// BPSO(NR) settings.
constexpr int kSwarmSize = 20;
constexpr double kInertia = 0.7;
constexpr double kCognitive = 1.5;  // pull toward the particle's own best
constexpr double kSocial = 1.5;     // pull toward the swarm's best
constexpr double kMaxVelocity = 4.0;

// GA(NR) settings. The per-bit mutation probability is 1 / num_features.
constexpr int kGaPopulationSize = 24;
constexpr double kGaCrossoverProbability = 0.9;
constexpr int kTournamentSize = 3;
constexpr int kElites = 2;

// Deselect random features until the bound holds; guarantee non-emptiness.
void Repair(FeatureMask& mask, int max_ones, Rng& rng) {
  int ones = CountSelected(mask);
  while (ones > max_ones) {
    const int f = rng.UniformInt(0, static_cast<int>(mask.size()) - 1);
    if (mask[f]) {
      mask[f] = 0;
      --ones;
    }
  }
  if (ones == 0) {
    mask[rng.UniformInt(0, static_cast<int>(mask.size()) - 1)] = 1;
  }
}

FeatureMask RandomMask(int n, int max_ones, Rng& rng) {
  const double density = std::min(0.5, static_cast<double>(max_ones) / n);
  FeatureMask mask(n, 0);
  for (int f = 0; f < n; ++f) mask[f] = rng.Bernoulli(density) ? 1 : 0;
  Repair(mask, max_ones, rng);
  return mask;
}

}  // namespace

void BinaryPsoStrategy::Run(EvalContext& context) {
  const int n = context.num_features();
  const int max_ones = context.max_feature_count();
  Rng rng(seed_);

  struct Particle {
    FeatureMask position;
    std::vector<double> velocity;
    FeatureMask best_position;
    double best_objective = 1e18;
  };
  std::vector<Particle> swarm(kSwarmSize);
  FeatureMask global_best;
  double global_best_objective = 1e18;

  // Initialize swarm.
  for (auto& particle : swarm) {
    if (context.ShouldStop()) return;
    particle.position = RandomMask(n, max_ones, rng);
    particle.velocity.assign(n, 0.0);
    for (double& v : particle.velocity) v = rng.Uniform(-1.0, 1.0);
    const EvalOutcome outcome = context.Evaluate(particle.position);
    if (!outcome.evaluated) return;
    particle.best_position = particle.position;
    particle.best_objective = outcome.objective;
    if (outcome.objective < global_best_objective) {
      global_best_objective = outcome.objective;
      global_best = particle.position;
    }
  }

  while (!context.ShouldStop()) {
    for (auto& particle : swarm) {
      if (context.ShouldStop()) return;
      for (int f = 0; f < n; ++f) {
        const double r1 = rng.Uniform();
        const double r2 = rng.Uniform();
        const double x = particle.position[f] ? 1.0 : 0.0;
        const double pbest = particle.best_position[f] ? 1.0 : 0.0;
        const double gbest = global_best[f] ? 1.0 : 0.0;
        double v = kInertia * particle.velocity[f] +
                   kCognitive * r1 * (pbest - x) + kSocial * r2 * (gbest - x);
        v = Clamp(v, -kMaxVelocity, kMaxVelocity);
        particle.velocity[f] = v;
        particle.position[f] = rng.Bernoulli(Sigmoid(v)) ? 1 : 0;
      }
      Repair(particle.position, max_ones, rng);
      const EvalOutcome outcome = context.Evaluate(particle.position);
      if (!outcome.evaluated) return;
      if (outcome.objective < particle.best_objective) {
        particle.best_objective = outcome.objective;
        particle.best_position = particle.position;
      }
      if (outcome.objective < global_best_objective) {
        global_best_objective = outcome.objective;
        global_best = particle.position;
      }
    }
  }
}

void GeneticAlgorithmStrategy::Run(EvalContext& context) {
  const int n = context.num_features();
  const int max_ones = context.max_feature_count();
  Rng rng(seed_);
  const double mutation_probability = 1.0 / n;

  struct Individual {
    FeatureMask mask;
    double objective = 1e18;
  };
  std::vector<Individual> population;
  for (int i = 0; i < kGaPopulationSize; ++i) {
    if (context.ShouldStop()) return;
    Individual individual;
    individual.mask = RandomMask(n, max_ones, rng);
    const EvalOutcome outcome = context.Evaluate(individual.mask);
    if (!outcome.evaluated) return;
    individual.objective = outcome.objective;
    population.push_back(std::move(individual));
  }

  auto tournament = [&]() -> const Individual& {
    int best = rng.UniformInt(0, static_cast<int>(population.size()) - 1);
    for (int i = 1; i < kTournamentSize; ++i) {
      const int challenger =
          rng.UniformInt(0, static_cast<int>(population.size()) - 1);
      if (population[challenger].objective < population[best].objective) {
        best = challenger;
      }
    }
    return population[best];
  };

  while (!context.ShouldStop()) {
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return a.objective < b.objective;
              });
    std::vector<Individual> next_generation;
    // Elitism: the best individuals survive unchanged (no re-evaluation
    // needed; objectives are deterministic per mask).
    for (int e = 0; e < kElites && e < static_cast<int>(population.size());
         ++e) {
      next_generation.push_back(population[e]);
    }
    while (static_cast<int>(next_generation.size()) < kGaPopulationSize &&
           !context.ShouldStop()) {
      const Individual& parent_a = tournament();
      const Individual& parent_b = tournament();
      Individual child;
      child.mask.resize(n);
      if (rng.Bernoulli(kGaCrossoverProbability)) {
        // Single-point crossover.
        const int cut = rng.UniformInt(1, n - 1);
        for (int f = 0; f < n; ++f) {
          child.mask[f] = f < cut ? parent_a.mask[f] : parent_b.mask[f];
        }
      } else {
        child.mask = parent_a.mask;
      }
      for (int f = 0; f < n; ++f) {
        if (rng.Bernoulli(mutation_probability)) {
          child.mask[f] = child.mask[f] ? 0 : 1;
        }
      }
      Repair(child.mask, max_ones, rng);
      const EvalOutcome outcome = context.Evaluate(child.mask);
      if (!outcome.evaluated) return;
      child.objective = outcome.objective;
      next_generation.push_back(std::move(child));
    }
    population = std::move(next_generation);
  }
}

}  // namespace dfs::fs
