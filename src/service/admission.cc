#include "service/admission.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

namespace privmark {

namespace {

size_t NormalizeCapacity(size_t capacity) {
  if (capacity != 0) return capacity;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

AdmissionController::AdmissionController(size_t capacity)
    : capacity_(NormalizeCapacity(capacity)) {}

void AdmissionController::SkipAbandonedLocked() {
  while (abandoned_.erase(serving_) != 0) ++serving_;
}

Result<size_t> AdmissionController::AcquireWithin(size_t ask,
                                                 int64_t timeout_ms,
                                                 size_t max_waiters) {
  size_t want = ask == 0 ? capacity_ : std::min(ask, capacity_);
  std::unique_lock<std::mutex> lock(mu_);
  if (max_waiters > 0 && waiters_ >= max_waiters) {
    // Crude service-time guess for the hint: assume each queued caller
    // holds its grant for ~50ms. Clients treat it as advice, not truth.
    const int64_t retry_after_ms = 50 * static_cast<int64_t>(waiters_ + 1);
    return Status::ResourceExhausted(
               "admission queue full: " + std::to_string(waiters_) +
               " request(s) already waiting for threads")
        .WithRetryAfterMs(retry_after_ms);
  }
  const uint64_t ticket = next_ticket_++;
  const auto admitted = [&] {
    return serving_ == ticket && in_use_ < capacity_;
  };
  ++waiters_;
  bool ok = true;
  if (timeout_ms < 0) {
    cv_.wait(lock, admitted);
  } else {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    ok = cv_.wait_until(lock, deadline, admitted);
  }
  --waiters_;
  if (!ok) {
    // Give up the ticket without stalling later ones: either step the
    // cursor past it ourselves (it is our turn but capacity never
    // freed) or leave a tombstone for SkipAbandonedLocked().
    if (serving_ == ticket) {
      ++serving_;
      SkipAbandonedLocked();
    } else {
      abandoned_.insert(ticket);
    }
    cv_.notify_all();
    return Status::DeadlineExceeded(
        "no thread capacity freed within " + std::to_string(timeout_ms) +
        "ms (capacity " + std::to_string(capacity_) + ", in use " +
        std::to_string(in_use_) + ")");
  }
  const size_t granted = std::min(want, capacity_ - in_use_);
  in_use_ += granted;
  ++serving_;
  SkipAbandonedLocked();
  cv_.notify_all();
  return granted;
}

void AdmissionController::Release(size_t granted) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_use_ -= granted;
  }
  cv_.notify_all();
}

size_t AdmissionController::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

size_t AdmissionController::waiters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_;
}

}  // namespace privmark
