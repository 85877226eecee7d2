#include "common/failpoint.h"

#include <cstdlib>
#include <vector>

#include "common/strings.h"

namespace privmark {

namespace {

// splitmix64: tiny, seedable, and statistically fine for trigger draws.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* const registry = new FailpointRegistry();
  return *registry;
}

Status FailpointRegistry::Configure(const std::string& name,
                                    const std::string& trigger) {
  if (name.empty()) {
    return Status::InvalidArgument("failpoint: empty name");
  }
  Point point;
  const std::vector<std::string> parts = Split(trigger, ':');
  const std::string& mode = parts[0];
  if (mode == "off") {
    if (parts.size() != 1) {
      return Status::InvalidArgument("failpoint: 'off' takes no arguments");
    }
    point.mode = Mode::kOff;
  } else if (mode == "always") {
    if (parts.size() != 1) {
      return Status::InvalidArgument("failpoint: 'always' takes no arguments");
    }
    point.mode = Mode::kAlways;
  } else if (mode == "nth" || mode == "once" || mode == "kill") {
    if (parts.size() != 2) {
      return Status::InvalidArgument("failpoint: '" + mode +
                                     "' needs exactly one count: " + trigger);
    }
    PRIVMARK_ASSIGN_OR_RETURN(
        point.n, ParseDecimalU64(parts[1], "failpoint hit count"));
    if (point.n == 0) {
      return Status::InvalidArgument("failpoint: hit count is 1-based, got 0");
    }
    point.mode = mode == "nth" ? Mode::kNth
                               : (mode == "once" ? Mode::kOnce : Mode::kKill);
  } else if (mode == "prob") {
    if (parts.size() != 3) {
      return Status::InvalidArgument(
          "failpoint: 'prob' needs probability and seed: " + trigger);
    }
    char* end = nullptr;
    point.probability = std::strtod(parts[1].c_str(), &end);
    // Written so that a NaN, which compares false to everything, fails.
    if (end == parts[1].c_str() || *end != '\0' ||
        !(point.probability >= 0.0 && point.probability <= 1.0)) {
      return Status::InvalidArgument("failpoint: probability must be in "
                                     "[0, 1], got '" + parts[1] + "'");
    }
    PRIVMARK_ASSIGN_OR_RETURN(point.rng_state,
                              ParseDecimalU64(parts[2], "failpoint seed"));
    point.mode = Mode::kProb;
  } else {
    return Status::InvalidArgument("failpoint: unknown trigger '" + trigger +
                                   "' (off|always|nth:N|once:N|prob:P:SEED|"
                                   "kill:N)");
  }

  std::lock_guard<std::mutex> lock(mu_);
  points_.insert_or_assign(name, point);
  uint64_t armed = 0;
  for (const auto& [point_name, p] : points_) {
    if (p.mode != Mode::kOff) ++armed;
  }
  armed_.store(armed, std::memory_order_release);
  return Status::OK();
}

void FailpointRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  armed_.store(0, std::memory_order_release);
}

bool FailpointRegistry::ShouldFireLocked(Point* point) {
  ++point->hits;
  switch (point->mode) {
    case Mode::kOff:
      return false;
    case Mode::kAlways:
      return true;
    case Mode::kNth:
    case Mode::kKill:
      return point->hits >= point->n;
    case Mode::kOnce:
      if (point->hits == point->n) {
        point->mode = Mode::kOff;
        return true;
      }
      return false;
    case Mode::kProb: {
      // 53-bit uniform draw in [0, 1).
      const double draw =
          static_cast<double>(SplitMix64(&point->rng_state) >> 11) *
          (1.0 / 9007199254740992.0);
      return draw < point->probability;
    }
  }
  return false;
}

bool FailpointRegistry::Hit(const char* name) {
  if (armed_.load(std::memory_order_acquire) == 0) return false;
  bool kill = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) return false;
    if (!ShouldFireLocked(&it->second)) return false;
    kill = it->second.mode == Mode::kKill;
  }
  if (kill) {
    // Simulated power cut: no atexit handlers, no stream flushes, no
    // stack unwinding — exactly what a crashed publisher leaves behind.
    std::_Exit(kKillExitCode);
  }
  return true;
}

uint64_t FailpointRegistry::hit_count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hits;
}

}  // namespace privmark
