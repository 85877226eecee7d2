// Timing, tracing and reporting scaffolding shared by the perfbench
// workloads.
//
// A run has two phases. Set-up builds the workload's inputs from the
// seed several times (the median is `setup_s`). The measured window then
// repeats the workload's operation in a closed loop — one caller, the
// next operation starts when the previous one returned — for the
// requested number of seconds, checking every operation's output.
// Untraced runs time each operation as a whole; traced runs (--trace 1)
// instead drive the same operation through the layers' own entry points,
// one span per layer call, and report each layer's median per-operation
// time. Untraced and traced numbers come from separate runs, so spans
// never perturb the end-to-end figures.

#ifndef PRIVMARK_PERFBENCH_HARNESS_H_
#define PRIVMARK_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/table.h"

namespace privmark {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// \brief Per-operation layer spans (traced runs) and per-operation
/// counters. Each operation starts a fresh row; the report takes the
/// median over operations of each layer's summed span time (a layer an
/// operation never entered counts 0 for it).
class Trace {
 public:
  /// \brief Starts the next operation's row.
  void BeginOp();

  /// \brief Adds `ms` to `layer`'s time in the current operation.
  void AddSpan(const std::string& layer, double ms);

  /// \brief Times `fn` as one span of `layer` and returns its result.
  template <typename Fn>
  auto Span(const std::string& layer, Fn&& fn) -> decltype(fn()) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    AddSpan(layer, MillisSince(start));
    return result;
  }

  /// \brief Sets a per-operation counter.
  void Count(const std::string& name, double value);

  /// \brief Median per-operation value of every layer and counter seen,
  /// plus `traced_op_ms`: the median per-operation sum of all spans.
  std::map<std::string, double> Medians() const;

 private:
  struct OpRow {
    std::map<std::string, double> spans;
    std::map<std::string, double> counts;
  };
  std::vector<OpRow> ops_;
};

/// \brief A workload's outputs: the end-to-end and per-layer metric
/// values of the run (units live with the metric lists in main.cc) plus
/// the operation tally.
struct WorkloadReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

/// \brief Options every workload receives.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// \brief Runs `setup` `repeats` times and returns the median wall time
/// in seconds. Before each repetition `reset` (untimed) drops the
/// previous repetition's state; the last repetition's state is the one
/// the workload keeps.
Result<double> TimeSetup(size_t repeats, const std::function<void()>& reset,
                         const std::function<Status()>& setup);

/// \brief One operation of the measured window: runs it (traced when
/// the run is), stores the user-visible part's latency — excluding the
/// output check — in `latency_ms`, and returns non-OK for an error or a
/// wrong output.
using Operation = std::function<Status(Trace* trace, double* latency_ms)>;

/// \brief The closed-loop measured window: one warm-up call (not
/// counted), then `op` back to back until `seconds` of wall time have
/// passed, each call preceded by a fixed calibration unit of work. Fills
/// attempted/failed/correct, `setup_s`, and `latency_cal`: the median
/// over operations of the operation's latency divided by the calibration
/// unit's latency just before it. Traced runs also get every trace median
/// and `calibration_ms`, the unit's median latency, which converts
/// `latency_cal` back to milliseconds on the host at hand.
WorkloadReport MeasureWindow(const RunOptions& options, double setup_s,
                             const Operation& op);

/// \brief Deterministic seed derivation (splitmix64), so neighbouring
/// --seed values give unrelated inputs.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// \brief Cell-by-cell table equality (schema width, rows, values).
bool SameTable(const Table& a, const Table& b);

/// \brief Median of `values` (0 for none); `values` is reordered.
double Median(std::vector<double> values);

}  // namespace perfbench
}  // namespace privmark

#endif  // PRIVMARK_PERFBENCH_HARNESS_H_
