// Deterministic failpoint registry for fault-injection testing.
//
// A failpoint is a named site in production code where a test can inject
// a failure:
//
//   if (PRIVMARK_FAILPOINT("journal.append")) {
//     return Status::IOError("failpoint 'journal.append' triggered");
//   }
//
// The macro is the only thing call sites use. It is compiled into every
// build, so the crash-recovery suite tests the code that ships. An
// unarmed site costs one call and one acquire load: the sites run per
// batch, per frame, per pool dispatch or per flush, never per row.
//
// Triggers are deterministic by construction so crash tests replay
// exactly:
//   off          never fires (the default for unconfigured names)
//   always       fires on every hit
//   nth:N        fires on the Nth hit (1-based) and every hit after
//   once:N       fires on exactly the Nth hit, then disarms
//   prob:P:SEED  fires with probability P per hit, drawn from a
//                splitmix64 stream seeded with SEED — the same seed
//                always yields the same firing pattern
//   kill:N       on the Nth hit the process exits immediately with
//                kKillExitCode (no destructors, no flushes) — the
//                crash-recovery suites' simulated power cut
//
// Only an explicit Configure() call arms a failpoint. Nothing reads the
// environment, so a shipped binary (the daemon, say) cannot be made to
// fail or exit by whoever starts it.
//
// Thread safety: all registry operations are mutex-guarded; hits from
// pool workers are serialized, which is fine for a test-only facility
// (when *no* failpoint is armed, Hit returns before taking the lock).

#ifndef PRIVMARK_COMMON_FAILPOINT_H_
#define PRIVMARK_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"

namespace privmark {

/// \brief Process-wide registry of armed failpoints.
class FailpointRegistry {
 public:
  /// Exit code of a kill-mode failpoint — waitpid-visible so a parent
  /// can distinguish the injected crash from ordinary failures.
  static constexpr int kKillExitCode = 87;

  static FailpointRegistry& Instance();

  /// \brief Arms (or re-arms) one failpoint. `trigger` is one of
  /// off | always | nth:N | once:N | prob:P:SEED | kill:N.
  Status Configure(const std::string& name, const std::string& trigger);

  /// \brief Disarms every failpoint and zeroes hit counters.
  void Reset();

  /// \brief Records a hit of `name` and returns true iff the failpoint
  /// fires. kill-mode failpoints do not return when they fire: the
  /// process exits with kKillExitCode on the spot.
  bool Hit(const char* name);

  /// \brief Hits recorded for `name` (armed or not since the last
  /// Configure of that name).
  uint64_t hit_count(const std::string& name) const;

 private:
  enum class Mode { kOff, kAlways, kNth, kOnce, kProb, kKill };
  struct Point {
    Mode mode = Mode::kOff;
    uint64_t n = 0;        // nth / once / kill threshold (1-based)
    double probability = 0.0;
    uint64_t rng_state = 0;  // prob: splitmix64 stream
    uint64_t hits = 0;
  };

  FailpointRegistry() = default;
  bool ShouldFireLocked(Point* point);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Point> points_;  // guarded by mu_
  // Number of points whose mode != kOff; lets Hit() bail without the
  // lock when nothing is armed.
  std::atomic<uint64_t> armed_{0};
};

}  // namespace privmark

#define PRIVMARK_FAILPOINT(name) \
  (::privmark::FailpointRegistry::Instance().Hit(name))

#endif  // PRIVMARK_COMMON_FAILPOINT_H_
