#include "harness.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

namespace privmark {
namespace perfbench {

void Trace::BeginOp() { ops_.emplace_back(); }

void Trace::AddSpan(const std::string& layer, double ms) {
  if (ops_.empty()) BeginOp();
  ops_.back().spans[layer] += ms;
}

void Trace::Count(const std::string& name, double value) {
  if (ops_.empty()) BeginOp();
  ops_.back().counts[name] = value;
}

std::map<std::string, double> Trace::Medians() const {
  std::map<std::string, std::vector<double>> columns;
  std::vector<double> totals;
  for (size_t i = 0; i < ops_.size(); ++i) {
    double total = 0.0;
    for (const auto* entries : {&ops_[i].spans, &ops_[i].counts}) {
      for (const auto& [name, value] : *entries) {
        std::vector<double>& column = columns[name];
        column.resize(i, 0.0);  // ops before this one never entered it
        column.push_back(value);
        if (entries == &ops_[i].spans) total += value;
      }
    }
    totals.push_back(total);
  }
  std::map<std::string, double> out;
  for (auto& [name, column] : columns) {
    column.resize(ops_.size(), 0.0);
    out[name] = Median(std::move(column));
  }
  out["traced_op_ms"] = Median(std::move(totals));
  return out;
}

Result<double> TimeSetup(size_t repeats, const std::function<void()>& reset,
                         const std::function<Status()>& setup) {
  std::vector<double> seconds;
  for (size_t i = 0; i < repeats; ++i) {
    reset();
    const Clock::time_point start = Clock::now();
    PRIVMARK_RETURN_NOT_OK(setup());
    seconds.push_back(MillisSince(start) / 1000.0);
  }
  return Median(std::move(seconds));
}

namespace {

// A fixed unit of allocation-free string, sort and hash-table work over
// an 8 MiB table. On shared hosts co-tenant load slows the memory system
// by up to ~1.5x for many seconds at a time, and privmark's operations
// slow with it; this unit slows most of the way with them (a pure ALU
// loop does not slow at all), so an operation's latency divided by the
// unit's latency just before it stays far steadier than raw wall time.
class Calibration {
 public:
  Calibration() : records_(4000), table_(size_t{1} << 20) {}

  /// \brief Runs the unit once and returns its wall time in ms.
  double Run() {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < records_.size(); ++i) {
      std::snprintf(records_[i].data(), records_[i].size(), "value-%zu-%zu",
                    (i * 7919) % 4001, i);
    }
    std::sort(records_.begin(), records_.end(),
              [](const Record& a, const Record& b) {
                return std::strcmp(a.data(), b.data()) < 0;
              });
    std::fill(table_.begin(), table_.end(), 0);
    const size_t mask = table_.size() - 1;
    for (const Record& record : records_) {
      uint64_t hash = 1469598103934665603ULL;  // FNV-1a
      for (const char* c = record.data(); *c != '\0'; ++c) {
        hash = (hash ^ static_cast<unsigned char>(*c)) * 1099511628211ULL;
      }
      size_t slot = hash & mask;
      while (table_[slot] != 0) slot = (slot + 1) & mask;
      table_[slot] = hash | 1;
    }
    return MillisSince(start);
  }

 private:
  using Record = std::array<char, 24>;
  std::vector<Record> records_;
  std::vector<uint64_t> table_;
};

}  // namespace

WorkloadReport MeasureWindow(const RunOptions& options, double setup_s,
                             const Operation& op) {
  WorkloadReport report;
  Calibration calibration;
  calibration.Run();
  Trace warmup_trace;
  double warmup_ms = 0.0;
  warmup_trace.BeginOp();
  const Status warm = op(&warmup_trace, &warmup_ms);
  if (!warm.ok()) {
    std::fprintf(stderr, "warm-up operation failed: %s\n",
                 warm.ToString().c_str());
    report.correct = false;
  }

  Trace trace;
  std::vector<double> calibrations;
  std::vector<double> ratios;
  Status first_error;
  const Clock::time_point window_start = Clock::now();
  while (MillisSince(window_start) < options.seconds * 1000.0) {
    const double calibration_ms = calibration.Run();
    calibrations.push_back(calibration_ms);
    trace.BeginOp();
    double latency_ms = 0.0;
    const Status status = op(&trace, &latency_ms);
    ++report.attempted;
    if (!status.ok()) {
      ++report.failed;
      if (first_error.ok()) first_error = status;
      continue;
    }
    ratios.push_back(latency_ms / calibration_ms);
  }
  if (!first_error.ok()) {
    std::fprintf(stderr, "operation failed: %s\n",
                 first_error.ToString().c_str());
  }
  if (report.failed > 0 || report.attempted == 0) report.correct = false;

  report.metrics["latency_cal"] = Median(ratios);
  report.metrics["setup_s"] = setup_s;
  if (options.trace) {
    for (const auto& [name, value] : trace.Medians()) {
      report.metrics[name] = value;
    }
    report.metrics["calibration_ms"] = Median(calibrations);
  }
  return report;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool SameTable(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!(a.row(r) == b.row(r))) return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

}  // namespace perfbench
}  // namespace privmark
