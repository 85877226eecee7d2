// Thread-admission control for the service front-end.
//
// The service owns one shared ThreadPool of `capacity` workers; every
// request asks for some number of threads (its session's num_threads
// knob, or a per-request override). The controller keeps the aggregate
// grant across concurrently-executing requests at or below the capacity:
// a request whose ask does not fit waits its turn instead of
// oversubscribing the pool. Because every pipeline stage produces
// byte-identical output for any worker count (common/parallel.h), a
// grant below the ask only moves throughput, never bytes — which is what
// makes partial grants safe.
//
// Grant policy, in order:
//   - an ask of 0 means "all of it" (the hardware-concurrency
//     convention of the num_threads knobs) and an ask above the capacity
//     is clamped to it: no single request can demand more than the pool
//     holds, it can only wait longer;
//   - admission is FIFO (ticketed): a request never overtakes an earlier
//     one, so a wide ask cannot be starved by a stream of narrow ones;
//   - admission is work-conserving: the request at the head of the queue
//     is admitted as soon as *any* capacity is free, with a grant of
//     min(ask, free). It never idles free workers waiting for its full
//     ask — it takes a partial grant and runs.
//
// Callers pair every grant AcquireWithin() returns with exactly one
// Release() of the granted amount.

#ifndef PRIVMARK_SERVICE_ADMISSION_H_
#define PRIVMARK_SERVICE_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_set>

#include "common/status.h"

namespace privmark {

/// \brief FIFO, work-conserving thread-budget controller.
class AdmissionController {
 public:
  /// \param capacity aggregate thread budget; 0 means hardware
  ///        concurrency (at least 1).
  explicit AdmissionController(size_t capacity);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  size_t capacity() const { return capacity_; }

  /// \brief Waits until this caller's turn comes and some capacity is
  /// free, then grants min(normalized ask, free capacity) >= 1 threads
  /// and returns the grant. Normalization: ask 0 -> capacity, ask >
  /// capacity -> capacity. Overload control bounds the wait:
  ///   - if `max_waiters` > 0 and that many callers are already waiting
  ///     for admission, fails immediately with ResourceExhausted (the
  ///     status carries a typed retry_after_ms() hint) instead of
  ///     joining the queue;
  ///   - if `timeout_ms` >= 0 and the caller's turn has not come (or no
  ///     capacity has freed) within that many milliseconds, fails with
  ///     DeadlineExceeded. The abandoned ticket is skipped over, so a
  ///     timed-out waiter never stalls the FIFO behind it.
  ///
  /// `timeout_ms` < 0 waits forever; `max_waiters` == 0 never sheds.
  Result<size_t> AcquireWithin(size_t ask, int64_t timeout_ms,
                               size_t max_waiters = 0);

  /// \brief Returns a previous AcquireWithin()'s grant to the budget.
  void Release(size_t granted);

  /// \brief Threads currently granted (diagnostic; racy by nature).
  size_t in_use() const;

  /// \brief Callers currently waiting for admission (diagnostic).
  size_t waiters() const;

 private:
  // Advances serving_ past tickets whose waiters gave up. Requires mu_.
  void SkipAbandonedLocked();

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t in_use_ = 0;        // guarded by mu_
  size_t waiters_ = 0;       // guarded by mu_: callers blocked in AcquireWithin
  uint64_t next_ticket_ = 0; // guarded by mu_: next ticket to hand out
  uint64_t serving_ = 0;     // guarded by mu_: ticket allowed to admit
  std::unordered_set<uint64_t> abandoned_;  // guarded by mu_: timed out
};

}  // namespace privmark

#endif  // PRIVMARK_SERVICE_ADMISSION_H_
