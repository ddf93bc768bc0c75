#ifndef DFS_UTIL_STOPWATCH_H_
#define DFS_UTIL_STOPWATCH_H_

#include <chrono>
#include <limits>

namespace dfs {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Wall-clock budget: the maximum-search-time constraint from the paper.
/// A deadline constructed with `Infinite()` never expires.
class Deadline {
 public:
  /// Deadline `seconds` from now.
  static Deadline AfterSeconds(double seconds) {
    Deadline d;
    d.infinite_ = false;
    d.expiry_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    return d;
  }

  static Deadline Infinite() { return Deadline(); }

  bool Expired() const { return !infinite_ && Clock::now() >= expiry_; }

  /// Seconds until expiry (negative if already expired; +inf if infinite).
  double RemainingSeconds() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(expiry_ - Clock::now()).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Deadline() = default;
  bool infinite_ = true;
  Clock::time_point expiry_{};
};

}  // namespace dfs

#endif  // DFS_UTIL_STOPWATCH_H_
