#ifndef DFS_UTIL_THREAD_POOL_H_
#define DFS_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dfs {

/// Fixed-size worker pool used by the parallel multi-strategy runner
/// (Section 6.5 of the paper) and by experiment harnesses. Tasks are
/// void() closures; Wait() blocks until the queue drains and all workers
/// are idle.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (minimum 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Calling this once the destructor has started shutdown
  /// is a checked failure (DFS_CHECK), not undefined behavior: the task
  /// could never run, so silently accepting it would deadlock Wait().
  void Schedule(std::function<void()> task);

  /// Blocks until all scheduled tasks have finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  util::Mutex mu_;
  util::CondVar task_available_;
  util::CondVar all_done_;
  std::deque<std::function<void()>> queue_ DFS_GUARDED_BY(mu_);
  /// Written only by the constructor, joined only by the destructor; no
  /// concurrent access, so not guarded.
  std::vector<std::thread> workers_;
  int active_tasks_ DFS_GUARDED_BY(mu_) = 0;
  bool shutdown_ DFS_GUARDED_BY(mu_) = false;
};

/// Runs `fn(i)` for i in [0, count) across `num_threads` workers and waits.
/// With num_threads <= 1 runs inline (deterministic order).
///
/// Exception behavior: `fn` must not throw. Tasks execute on pool worker
/// threads, where an escaping exception propagates out of the thread entry
/// function and calls std::terminate — there is no channel back to the
/// caller. Catch inside `fn` and report through its captured state instead.
void ParallelFor(int count, int num_threads,
                 const std::function<void(int)>& fn);

/// Process-wide thread budget for parallel work (batched wrapper
/// evaluation, the serve worker fleet, the bench harness's cell loop):
/// the DFS_THREADS environment variable when set to a positive integer,
/// otherwise std::thread::hardware_concurrency(). Always >= 1.
int HardwareThreadBudget();

}  // namespace dfs

#endif  // DFS_UTIL_THREAD_POOL_H_
