#include "common/parallel.h"

#include <algorithm>
#include <stdexcept>

#include "common/failpoint.h"

namespace privmark {

std::vector<ShardRange> ShardRanges(size_t count, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  const size_t shards = std::min(num_shards, count);
  std::vector<ShardRange> ranges;
  ranges.reserve(shards);
  const size_t base = shards == 0 ? 0 : count / shards;
  const size_t extra = shards == 0 ? 0 : count % shards;
  size_t begin = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t size = base + (s < extra ? 1 : 0);
    ranges.push_back(ShardRange{begin, begin + size});
    begin += size;
  }
  return ranges;
}

size_t NormalizeThreadCount(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(NormalizeThreadCount(num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::ThreadPool(ThreadPool* parent, size_t limit) : parent_(parent) {
  limit_.store(std::max<size_t>(1, limit), std::memory_order_relaxed);
}

std::unique_ptr<ThreadPool> ThreadPool::Lease(ThreadPool* parent,
                                              size_t limit) {
  assert(parent != nullptr && "Lease of a null pool");
  assert(!parent->is_lease() && "Lease of a lease");
  return std::unique_ptr<ThreadPool>(new ThreadPool(parent, limit));
}

void ThreadPool::set_limit(size_t limit) {
  assert(parent_ != nullptr && "set_limit on a non-lease pool");
  if (parent_ == nullptr) return;
  limit_.store(std::max<size_t>(1, limit), std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  if (parent_ != nullptr) return;  // a lease owns no workers
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || !pending_.empty() || !posted_.empty();
    });
    if (!pending_.empty()) {
      // Copy the front batch under the lock: a worker holding the
      // shared_ptr after the submitter retired the batch sees a live,
      // fully-claimed object — never a dangling pointer. Fully claimed
      // batches are retired here so later batches become the front (the
      // submitter also erases its own batch when it finishes waiting).
      std::shared_ptr<Batch> batch = pending_.front();
      if (batch->next_task.load(std::memory_order_relaxed) >=
          batch->num_tasks) {
        pending_.erase(pending_.begin());
        continue;
      }
      lock.unlock();
      ExecuteTasks(batch.get());
      lock.lock();
    } else if (!posted_.empty()) {
      std::function<void()> task = std::move(posted_.front());
      posted_.pop_front();
      lock.unlock();
      task();
      task = nullptr;  // its captures die outside the lock
      lock.lock();
    } else {
      return;  // stop_, and nothing is left to run
    }
  }
}

void ThreadPool::Post(std::function<void()> task) {
  assert(parent_ == nullptr && !workers_.empty() &&
         "Post needs a pool with background workers");
  {
    std::lock_guard<std::mutex> lock(mu_);
    posted_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::ExecuteTasks(Batch* batch) {
  for (;;) {
    const size_t i = batch->next_task.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->num_tasks) return;
    try {
      if (PRIVMARK_FAILPOINT("threadpool.dispatch")) {
        throw std::runtime_error(
            "failpoint 'threadpool.dispatch' triggered in task dispatch");
      }
      (*batch->task)(i);
    } catch (...) {
      // Slot i is owned by whoever claimed task i; no lock needed.
      batch->errors[i] = std::current_exception();
    }
    if (batch->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch->num_tasks) {
      // Notify under the lock so the waiter cannot check the predicate,
      // see an incomplete batch, and then miss this notify.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::Run(size_t num_tasks,
                     const std::function<void(size_t)>& task) {
  if (parent_ != nullptr) {
    // A lease caps how many tasks its callers *cut* (they shard by
    // num_threads()); execution itself happens on the parent's workers.
    parent_->Run(num_tasks, task);
    return;
  }
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1) {
    // Serial: exactly the inline loop, exceptions propagate directly.
    // Safe under concurrent submitters — nothing shared is touched.
    for (size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->task = &task;
  batch->num_tasks = num_tasks;
  batch->errors.resize(num_tasks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(batch);
  }
  work_cv_.notify_all();
  // The submitter helps with its own batch only: concurrent submitters
  // never execute each other's tasks, so a request's latency is bounded
  // by its own work plus worker availability, not by whichever batch
  // happens to sit in front of the queue.
  ExecuteTasks(batch.get());

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return batch->completed.load(std::memory_order_acquire) ==
           batch->num_tasks;
  });
  // Retire the batch if a worker has not already: it is fully claimed by
  // now, so a worker still holding its shared_ptr copy finds no task and
  // never dereferences `task` (which dangles once this function returns).
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i] == batch) {
      pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  lock.unlock();

  // Deterministic propagation: the lowest-numbered failing task wins,
  // matching the error a serial left-to-right loop would have hit first.
  for (std::exception_ptr& error : batch->errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::unique_ptr<ThreadPool> MakeThreadPool(size_t num_threads) {
  if (num_threads == 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads);
}

Status ParallelFor(ThreadPool* pool, size_t count,
                   const std::function<Status(size_t, size_t, size_t)>& fn) {
  const std::vector<ShardRange> shards =
      ShardRanges(count, pool == nullptr ? 1 : pool->num_threads());
  if (shards.empty()) return Status::OK();
  if (pool == nullptr || shards.size() == 1) {
    for (size_t s = 0; s < shards.size(); ++s) {
      PRIVMARK_RETURN_NOT_OK(fn(s, shards[s].begin, shards[s].end));
    }
    return Status::OK();
  }
  std::vector<Status> statuses(shards.size());
  pool->Run(shards.size(), [&](size_t s) {
    statuses[s] = fn(s, shards[s].begin, shards[s].end);
  });
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

}  // namespace privmark
