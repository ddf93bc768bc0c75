#include "serve/job_queue.h"

#include <algorithm>

namespace dfs::serve {

JobQueue::JobQueue(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

SubmitOutcome JobQueue::TrySubmit(std::shared_ptr<Job> job) {
  {
    util::MutexLock lock(mu_);
    if (closed_) return SubmitOutcome::kClosed;
    if (entries_.size() >= capacity_) return SubmitOutcome::kQueueFull;
    const OrderKey key{job->request().priority, next_sequence_++};
    key_by_id_.emplace(job->id(), key);
    entries_.emplace(key, std::move(job));
  }
  available_.NotifyOne();
  return SubmitOutcome::kAccepted;
}

std::shared_ptr<Job> JobQueue::PopBlocking() {
  util::MutexLock lock(mu_);
  while (!closed_ && entries_.empty()) available_.Wait(lock);
  if (entries_.empty()) return nullptr;  // closed and drained
  auto it = entries_.begin();
  std::shared_ptr<Job> job = std::move(it->second);
  key_by_id_.erase(job->id());
  entries_.erase(it);
  return job;
}

bool JobQueue::Remove(JobId id) {
  util::MutexLock lock(mu_);
  auto it = key_by_id_.find(id);
  if (it == key_by_id_.end()) return false;
  entries_.erase(it->second);
  key_by_id_.erase(it);
  return true;
}

void JobQueue::Close() {
  {
    util::MutexLock lock(mu_);
    closed_ = true;
  }
  available_.NotifyAll();
}

size_t JobQueue::size() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

bool JobQueue::closed() const {
  util::MutexLock lock(mu_);
  return closed_;
}

}  // namespace dfs::serve
