#include "fs/nsga2.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace dfs::fs {
namespace {

// NSGA-II(NR) settings. Population size 30 follows the Xue et al.
// configuration adopted by the paper (Section 6.2). The per-bit mutation
// probability is 1 / num_features.
constexpr int kPopulationSize = 30;
constexpr double kCrossoverProbability = 0.9;

bool Dominates(const std::vector<double>& a, const std::vector<double>& b) {
  bool strictly_better = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

}  // namespace

std::vector<int> FastNonDominatedSort(
    const std::vector<std::vector<double>>& objectives) {
  const int n = static_cast<int>(objectives.size());
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<int>> dominated_by(n);
  std::vector<int> rank(n, 0);

  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (Dominates(objectives[i], objectives[j])) {
        dominated_by[i].push_back(j);
        ++domination_count[j];
      } else if (Dominates(objectives[j], objectives[i])) {
        dominated_by[j].push_back(i);
        ++domination_count[i];
      }
    }
  }
  std::vector<int> current;
  for (int i = 0; i < n; ++i) {
    if (domination_count[i] == 0) current.push_back(i);
  }
  int front = 0;
  while (!current.empty()) {
    std::vector<int> next;
    for (int i : current) {
      rank[i] = front;
      for (int j : dominated_by[i]) {
        if (--domination_count[j] == 0) next.push_back(j);
      }
    }
    current = std::move(next);
    ++front;
  }
  return rank;
}

std::vector<double> CrowdingDistance(
    const std::vector<std::vector<double>>& objectives,
    const std::vector<int>& front) {
  const int size = static_cast<int>(front.size());
  std::vector<double> distance(size, 0.0);
  if (size == 0) return distance;
  const int num_objectives = static_cast<int>(objectives[front[0]].size());

  for (int m = 0; m < num_objectives; ++m) {
    std::vector<int> order(size);
    for (int i = 0; i < size; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return objectives[front[a]][m] < objectives[front[b]][m];
    });
    const double lo = objectives[front[order.front()]][m];
    const double hi = objectives[front[order.back()]][m];
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    if (hi - lo < 1e-12) continue;
    for (int i = 1; i + 1 < size; ++i) {
      distance[order[i]] += (objectives[front[order[i + 1]]][m] -
                             objectives[front[order[i - 1]]][m]) /
                            (hi - lo);
    }
  }
  return distance;
}

void Nsga2Strategy::Run(EvalContext& context) {
  const int n = context.num_features();
  const int max_ones = context.max_feature_count();
  Rng rng(seed_);
  const double mutation_probability = 1.0 / n;

  auto repair = [&](FeatureMask& mask) {
    int ones = CountSelected(mask);
    while (ones > max_ones) {
      const int f = rng.UniformInt(0, n - 1);
      if (mask[f]) {
        mask[f] = 0;
        --ones;
      }
    }
    if (ones == 0) mask[rng.UniformInt(0, n - 1)] = 1;
  };

  struct Individual {
    FeatureMask mask;
    std::vector<double> objectives;
  };

  // Generation is sequential (it consumes the strategy RNG in a fixed
  // order), evaluation is batched: a whole population's masks go through
  // one EvaluateBatch. Returns false when any evaluation was refused
  // (deadline/cancellation) — the search ends, like the serial version.
  auto evaluate_into = [&](std::vector<FeatureMask> masks,
                           std::vector<Individual>& out) -> bool {
    const std::vector<EvalOutcome> outcomes = context.EvaluateBatch(masks);
    for (size_t i = 0; i < masks.size(); ++i) {
      if (!outcomes[i].evaluated) return false;
      Individual individual;
      individual.objectives = context.constraint_set().PerConstraintShortfalls(
          outcomes[i].validation);
      // Tie-break objective so fully-feasible individuals still get pressure
      // toward higher F1 in utility mode.
      individual.objectives.push_back(outcomes[i].objective);
      individual.mask = std::move(masks[i]);
      out.push_back(std::move(individual));
    }
    return true;
  };

  // Initial population.
  std::vector<Individual> population;
  const double density = std::min(0.5, static_cast<double>(max_ones) / n);
  if (!context.ShouldStop()) {
    std::vector<FeatureMask> masks;
    masks.reserve(kPopulationSize);
    for (int i = 0; i < kPopulationSize; ++i) {
      FeatureMask mask(n, 0);
      for (int f = 0; f < n; ++f) mask[f] = rng.Bernoulli(density) ? 1 : 0;
      repair(mask);
      masks.push_back(std::move(mask));
    }
    if (!evaluate_into(std::move(masks), population)) return;
  }

  while (!context.ShouldStop() && !population.empty()) {
    // Ranks + crowding over the current population.
    std::vector<std::vector<double>> objective_table;
    objective_table.reserve(population.size());
    for (const auto& individual : population) {
      objective_table.push_back(individual.objectives);
    }
    const std::vector<int> rank = FastNonDominatedSort(objective_table);
    std::vector<double> crowding(population.size(), 0.0);
    {
      const int max_rank =
          *std::max_element(rank.begin(), rank.end());
      for (int r = 0; r <= max_rank; ++r) {
        std::vector<int> front;
        for (size_t i = 0; i < rank.size(); ++i) {
          if (rank[i] == r) front.push_back(static_cast<int>(i));
        }
        const std::vector<double> front_distance =
            CrowdingDistance(objective_table, front);
        for (size_t i = 0; i < front.size(); ++i) {
          crowding[front[i]] = front_distance[i];
        }
      }
    }
    auto tournament = [&]() -> const Individual& {
      const int a = rng.UniformInt(0, static_cast<int>(population.size()) - 1);
      const int b = rng.UniformInt(0, static_cast<int>(population.size()) - 1);
      if (rank[a] != rank[b]) return population[rank[a] < rank[b] ? a : b];
      return population[crowding[a] >= crowding[b] ? a : b];
    };

    // Offspring generation: all children for the generation first (fixed
    // RNG order), then one batch evaluation.
    std::vector<FeatureMask> children;
    children.reserve(kPopulationSize);
    for (int i = 0; i < kPopulationSize; ++i) {
      const Individual& parent_a = tournament();
      const Individual& parent_b = tournament();
      FeatureMask child(n);
      if (rng.Bernoulli(kCrossoverProbability)) {
        for (int f = 0; f < n; ++f) {
          child[f] = rng.Bernoulli(0.5) ? parent_a.mask[f] : parent_b.mask[f];
        }
      } else {
        child = parent_a.mask;
      }
      for (int f = 0; f < n; ++f) {
        if (rng.Bernoulli(mutation_probability)) child[f] = child[f] ? 0 : 1;
      }
      repair(child);
      children.push_back(std::move(child));
    }
    std::vector<Individual> offspring;
    offspring.reserve(kPopulationSize);
    if (!evaluate_into(std::move(children), offspring)) return;

    // Environmental selection over parents + offspring.
    for (auto& individual : offspring) {
      population.push_back(std::move(individual));
    }
    objective_table.clear();
    for (const auto& individual : population) {
      objective_table.push_back(individual.objectives);
    }
    const std::vector<int> merged_rank = FastNonDominatedSort(objective_table);

    std::vector<int> order(population.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    // Sort by (rank, crowding); crowding computed per front below. Sort by
    // rank first, then refine ties via per-front crowding.
    std::vector<double> merged_crowding(population.size(), 0.0);
    const int max_rank =
        *std::max_element(merged_rank.begin(), merged_rank.end());
    for (int r = 0; r <= max_rank; ++r) {
      std::vector<int> front;
      for (size_t i = 0; i < merged_rank.size(); ++i) {
        if (merged_rank[i] == r) front.push_back(static_cast<int>(i));
      }
      const std::vector<double> front_distance =
          CrowdingDistance(objective_table, front);
      for (size_t i = 0; i < front.size(); ++i) {
        merged_crowding[front[i]] = front_distance[i];
      }
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (merged_rank[a] != merged_rank[b]) {
        return merged_rank[a] < merged_rank[b];
      }
      return merged_crowding[a] > merged_crowding[b];
    });
    std::vector<Individual> next_population;
    next_population.reserve(kPopulationSize);
    for (int i = 0; i < kPopulationSize &&
                    i < static_cast<int>(order.size());
         ++i) {
      next_population.push_back(std::move(population[order[i]]));
    }
    population = std::move(next_population);
  }
}

}  // namespace dfs::fs
