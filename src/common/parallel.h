// Deterministic sharded parallel execution.
//
// Every hot stage of the pipeline — per-node counting, watermark
// embed/detect, table materialization, attack scans — is embarrassingly
// parallel over rows once the EncodedView substrate holds the columns as
// flat integers. This header supplies the one execution model they all
// share, built around a hard invariant:
//
//   parallel output is byte-identical to serial output for any worker
//   or shard count.
//
// The invariant is enforced structurally, not by luck:
//  - ShardRanges() depends only on (count, num_shards), never on
//    scheduling;
//  - shards own disjoint contiguous index ranges, so writers never touch
//    the same element;
//  - every shard's result lands in a pre-sized slot indexed by shard
//    number, and callers merge the slots in shard order on one thread;
//  - error reporting is deterministic: the Status (or exception)
//    surfaced is the one from the lowest-numbered failing shard, which —
//    because earlier shards cover earlier rows — is the same error a
//    serial scan would have hit first.
//
// Callers remain responsible for exactness of the merge itself: integer
// sums and sums of small whole-valued doubles (vote tallies of 1.0)
// commute exactly; arbitrary floating-point accumulations do not and
// must stay serial or per-shard.
//
// num_threads conventions, used by every config knob in the pipeline:
// 1 = serial (the default; no pool, no threads, the exact pre-parallel
// code path), 0 = one worker per hardware thread, N = exactly N workers.

#ifndef PRIVMARK_COMMON_PARALLEL_H_
#define PRIVMARK_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace privmark {

/// \brief One contiguous shard [begin, end) of a [0, count) index space.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool operator==(const ShardRange& other) const {
    return begin == other.begin && end == other.end;
  }
};

/// \brief Splits [0, count) into min(num_shards, count) contiguous,
/// non-empty, near-equal ranges (the first count % shards ranges hold one
/// extra element). Deterministic in (count, num_shards) alone; empty for
/// count == 0. num_shards == 0 is treated as 1.
std::vector<ShardRange> ShardRanges(size_t count, size_t num_shards);

/// \brief A thread count with 0 meaning one per hardware thread (at
/// least 1); any other count is returned as is.
size_t NormalizeThreadCount(size_t num_threads);

/// \brief A fixed-size worker pool for fork-join batches.
///
/// The pool holds num_threads - 1 background workers; the thread calling
/// Run() always participates as the remaining worker, so ThreadPool(1)
/// spawns nothing and Run() degenerates to an inline serial loop. A pool
/// outlives any number of Run() batches (workers park between batches).
///
/// Run() is fork-join and thread-safe: any number of threads may submit
/// batches concurrently (a long-lived service shares one pool across
/// sessions). Batches queue FIFO; workers drain the oldest unclaimed
/// batch first, and a submitter only executes tasks of its *own* batch,
/// so one request's compute never blocks inside another's. Tasks must
/// still not call Run() on their own pool (no nesting).
///
/// Post() hands the background workers one-shot tasks (the service's
/// session turns); a posted task may call Run() on the pool.
class ThreadPool {
 public:
  /// \param num_threads total workers including the caller; 0 means
  ///        one per hardware thread (NormalizeThreadCount).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief A capped view of `parent`: reports min(limit, parent's count)
  /// from num_threads() and forwards Run() to the parent. Agents shard by
  /// pool->num_threads(), so a lease makes them cut at most `limit`
  /// tasks per batch — at most `limit` of the shared workers ever execute
  /// this lease's work concurrently. That is how the service runs a
  /// request `width` threads wide on one shared pool: the lease's limit
  /// IS the width (see service/service.h). The view owns no threads and
  /// must not outlive `parent`; `parent` must not be null.
  static std::unique_ptr<ThreadPool> Lease(ThreadPool* parent, size_t limit);

  size_t num_threads() const {
    if (parent_ == nullptr) return num_threads_;
    return std::min(limit_.load(std::memory_order_relaxed),
                    parent_->num_threads_);
  }

  /// \brief True for Lease() views (no owned workers; Run forwards).
  bool is_lease() const { return parent_ != nullptr; }

  /// \brief Re-caps a lease (request widths change per request). 0 is
  /// clamped to 1 — a lease is never smaller than the calling thread.
  /// Callers must not resize a lease that has a Run() in flight; the
  /// per-session serialization of the service guarantees that. No-op
  /// with an assert on non-lease pools.
  void set_limit(size_t limit);

  /// \brief Runs task(i) for every i in [0, num_tasks) across the workers
  /// and blocks until all complete. Tasks are claimed dynamically, so the
  /// *schedule* is nondeterministic — tasks must only write state they own
  /// (e.g. their shard's slot). If tasks throw, every task still runs to
  /// completion (or throws) and the exception from the lowest-numbered
  /// throwing task is rethrown on the calling thread.
  void Run(size_t num_tasks, const std::function<void(size_t)>& task);

  /// \brief Runs `task` once on a background worker, never on the caller.
  /// A worker takes a waiting Run() batch before a posted task, and
  /// posted tasks in FIFO order. A posted task may call Run() on this
  /// pool: a batch's submitter always finishes its own unclaimed tasks,
  /// so the batch never waits for a busy worker. `task` must not throw.
  /// Workers run every posted task before the destructor joins them.
  /// Requires background workers (num_threads >= 2) and a non-lease pool.
  void Post(std::function<void()> task);

 private:
  struct Batch {
    const std::function<void(size_t)>* task = nullptr;
    size_t num_tasks = 0;
    std::atomic<size_t> next_task{0};
    std::atomic<size_t> completed{0};
    std::vector<std::exception_ptr> errors;  // slot per task, owner-written
  };

  ThreadPool(ThreadPool* parent, size_t limit);  // lease constructor

  void WorkerLoop();
  void ExecuteTasks(Batch* batch);

  size_t num_threads_ = 1;
  ThreadPool* parent_ = nullptr;          // non-null for lease views
  std::atomic<size_t> limit_{0};          // lease views only
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a batch or task was queued
  std::condition_variable done_cv_;  // Run(): some batch fully completed
  // FIFO of batches with (possibly) unclaimed tasks. Workers copy the
  // front shared_ptr under mu_, so a worker that wakes after a submitter
  // already retired its batch still holds a live (but fully claimed)
  // object instead of a dangling pointer.
  std::vector<std::shared_ptr<Batch>> pending_;  // guarded by mu_
  std::deque<std::function<void()>> posted_;     // guarded by mu_
  bool stop_ = false;                            // guarded by mu_
};

/// \brief nullptr for num_threads == 1 (serial — every stage treats a null
/// pool as the plain inline loop), otherwise a pool of num_threads workers
/// (0 = hardware concurrency). The one-liner every config-carrying stage
/// uses to honor its num_threads knob.
std::unique_ptr<ThreadPool> MakeThreadPool(size_t num_threads);

/// \brief Resolves the shared "caller-owned pool" config convention: when
/// `pool` is set it wins (its worker count governs; num_threads is
/// ignored) and no pool is constructed; otherwise a private pool built
/// from num_threads is stored in *owned and returned. Long-lived callers
/// (the protection session, a future service front-end) inject one pool
/// across many agent runs instead of paying thread spawn/join per run.
inline ThreadPool* PoolOrMake(ThreadPool* pool, size_t num_threads,
                              std::unique_ptr<ThreadPool>* owned) {
  if (pool != nullptr) return pool;
  *owned = MakeThreadPool(num_threads);
  return owned->get();
}

/// \brief Shards [0, count) into at most pool->num_threads() ranges and
/// runs fn(shard_index, begin, end) on each; a null pool (or a single
/// shard) runs inline on the caller. Returns the Status of the
/// lowest-numbered failing shard, OK when all succeed.
Status ParallelFor(ThreadPool* pool, size_t count,
                   const std::function<Status(size_t, size_t, size_t)>& fn);

/// \brief Sharded map-reduce with a deterministic merge: map(shard, begin,
/// end) produces one T per shard, and merge(&acc, shard_result) is applied
/// *in shard order* on the calling thread, folding into `init`. Returns
/// the lowest-numbered failing shard's Status on error; `init` when
/// count == 0.
template <typename T>
Result<T> ParallelReduce(
    ThreadPool* pool, size_t count, T init,
    const std::function<Result<T>(size_t, size_t, size_t)>& map,
    const std::function<void(T*, T&&)>& merge) {
  const std::vector<ShardRange> shards =
      ShardRanges(count, pool == nullptr ? 1 : pool->num_threads());
  if (shards.empty()) return init;

  std::vector<std::optional<Result<T>>> results(shards.size());
  if (pool == nullptr || shards.size() == 1) {
    for (size_t s = 0; s < shards.size(); ++s) {
      results[s].emplace(map(s, shards[s].begin, shards[s].end));
    }
  } else {
    pool->Run(shards.size(), [&](size_t s) {
      results[s].emplace(map(s, shards[s].begin, shards[s].end));
    });
  }
  T acc = std::move(init);
  for (size_t s = 0; s < shards.size(); ++s) {
    Result<T>& result = *results[s];
    if (!result.ok()) return result.status();
    merge(&acc, std::move(result).ValueOrDie());
  }
  return acc;
}

}  // namespace privmark

#endif  // PRIVMARK_COMMON_PARALLEL_H_
