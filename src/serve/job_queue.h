#ifndef DFS_SERVE_JOB_QUEUE_H_
#define DFS_SERVE_JOB_QUEUE_H_

#include <map>
#include <memory>
#include <unordered_map>

#include "serve/job.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dfs::serve {

/// Outcome of a non-blocking submission attempt.
enum class SubmitOutcome {
  kAccepted,
  /// The queue is at capacity. This is the backpressure contract: TrySubmit
  /// never blocks the caller; it is the client's job to retry or shed load.
  kQueueFull,
  /// The queue was closed (server shutting down).
  kClosed,
};

/// Bounded multi-producer/multi-consumer queue of jobs with
/// priority-then-FIFO ordering: a popped job is the oldest among those with
/// the highest priority. Producers never block (TrySubmit reports
/// kQueueFull); consumers block in PopBlocking until a job or Close().
class JobQueue {
 public:
  explicit JobQueue(size_t capacity);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Non-blocking submit; kQueueFull when `size() == capacity()`.
  [[nodiscard]] SubmitOutcome TrySubmit(std::shared_ptr<Job> job);

  /// Blocks until a job is available and returns it, or returns nullptr
  /// once the queue is closed and drained.
  std::shared_ptr<Job> PopBlocking();

  /// Removes a still-queued job (cancellation); false if it is not in the
  /// queue (already popped or never submitted).
  bool Remove(JobId id);

  /// Closes the queue: subsequent TrySubmit calls return kClosed and
  /// blocked consumers drain the remaining jobs, then receive nullptr.
  void Close();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  bool closed() const;

 private:
  /// Pop order: highest priority first, then submission order.
  struct OrderKey {
    int priority = 0;
    uint64_t sequence = 0;
    bool operator<(const OrderKey& other) const {
      if (priority != other.priority) return priority > other.priority;
      return sequence < other.sequence;
    }
  };

  mutable util::Mutex mu_;
  util::CondVar available_;
  std::map<OrderKey, std::shared_ptr<Job>> entries_ DFS_GUARDED_BY(mu_);
  std::unordered_map<JobId, OrderKey> key_by_id_ DFS_GUARDED_BY(mu_);
  uint64_t next_sequence_ DFS_GUARDED_BY(mu_) = 0;
  const size_t capacity_;
  bool closed_ DFS_GUARDED_BY(mu_) = false;
};

}  // namespace dfs::serve

#endif  // DFS_SERVE_JOB_QUEUE_H_
