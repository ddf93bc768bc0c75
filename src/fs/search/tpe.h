#ifndef DFS_FS_SEARCH_TPE_H_
#define DFS_FS_SEARCH_TPE_H_

#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace dfs::fs {

/// Shared configuration of the tree-structured Parzen estimator
/// (Bergstra et al. 2011) reimplementation.
struct TpeOptions {
  /// Trials drawn uniformly at random before density modeling kicks in.
  int num_startup_trials = 8;
  /// Quantile that splits observations into "good" and "bad".
  double gamma = 0.25;
  /// Candidates sampled from the good density per proposal; the one with
  /// the best l(x)/g(x) expected-improvement proxy wins.
  int num_candidates = 24;
};

/// TPE over a bounded integer domain [lo, hi] — the optimizer behind all
/// Top-k ranking strategies (it searches the cut-off k). Densities are
/// discrete Parzen windows with triangular kernels and a uniform prior.
class TpeIntegerOptimizer {
 public:
  TpeIntegerOptimizer(int lo, int hi, const TpeOptions& options,
                      uint64_t seed);

  /// Next value to evaluate. Prefers unseen values but may repeat one, and
  /// keeps repeating once every value is tried: callers stop on Exhausted().
  int Propose();

  /// Feeds back the loss of an evaluated value in [lo, hi] (lower is
  /// better).
  void Record(int value, double loss);

  /// True once every value in [lo, hi] has been recorded: further
  /// proposals can only repeat a value already evaluated.
  bool Exhausted() const;

  int num_observations() const { return static_cast<int>(history_.size()); }

 private:
  double Density(int value, const std::vector<int>& observations) const;

  int lo_;
  int hi_;
  TpeOptions options_;
  Rng rng_;
  std::vector<std::pair<int, double>> history_;  // (value, loss)
  std::unordered_set<int> seen_;
};

/// TPE over binary masks (TPE(NR), Section 4.2): each feature's inclusion
/// is a Bernoulli variable; good/bad densities are per-dimension Bernoulli
/// models with a Beta(0.5, 0.5)-style prior. Masks are repaired to select
/// between 1 and `max_ones` features.
class TpeBinaryOptimizer {
 public:
  TpeBinaryOptimizer(int dims, int max_ones, const TpeOptions& options,
                     uint64_t seed);

  std::vector<char> Propose();
  void Record(const std::vector<char>& mask, double loss);

  int num_observations() const { return static_cast<int>(history_.size()); }

 private:
  std::vector<char> RandomMask();
  void Repair(std::vector<char>& mask);
  static uint64_t HashMask(const std::vector<char>& mask);

  int dims_;
  int max_ones_;
  TpeOptions options_;
  Rng rng_;
  std::vector<std::pair<std::vector<char>, double>> history_;
  std::unordered_set<uint64_t> seen_;
};

}  // namespace dfs::fs

#endif  // DFS_FS_SEARCH_TPE_H_
