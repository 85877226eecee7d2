// privmark_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (workloads.h) and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones; both
// lists are below and must match BENCHMARK.json. Exits 1 without a
// result line on bad arguments or a failed set-up.

#include <sched.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace privmark {
namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"latency_cal", "x"},
    {"setup_s", "s"},
};

// Layers a workload never enters report 0 on it.
constexpr MetricSpec kPerLayer[] = {
    // protect path (protect, joint-binning)
    {"encode_ms", "ms"},
    {"count_merge_ms", "ms"},
    {"buffer_ms", "ms"},
    {"mark_ms", "ms"},
    {"mono_select_ms", "ms"},
    {"info_loss_ms", "ms"},
    {"joint_search_ms", "ms"},
    {"materialize_ms", "ms"},
    {"clone_ms", "ms"},
    {"embed_ms", "ms"},
    {"seamlessness_ms", "ms"},
    // audit path
    {"detect_ms", "ms"},
    {"detect_index_ms", "ms"},
    {"scan_ms", "ms"},
    // daemon path
    {"wire_codec_ms", "ms"},
    {"service_ms", "ms"},
    {"transport_ms", "ms"},
    // every workload
    {"traced_op_ms", "ms"},
    {"calibration_ms", "ms"},
    {"rows_per_op", "rows"},
    {"candidates_considered", "count"},
    {"slots_embedded", "count"},
    {"keys_scanned", "count"},
    {"wire_bytes", "bytes"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: privmark_perfbench --workload "
               "<protect|joint-binning|audit|daemon> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 1;
}

template <size_t N>
void PrintResult(const WorkloadReport& report, const MetricSpec (&specs)[N]) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              report.correct ? "true" : "false", report.attempted,
              report.failed);
  for (size_t i = 0; i < N; ++i) {
    const auto it = report.metrics.find(specs[i].name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    char* end = nullptr;
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  Result<WorkloadReport> report = Status::InvalidArgument("unknown workload");
  if (workload == "protect") {
    report = RunProtect(options);
  } else if (workload == "joint-binning") {
    report = RunJointBinning(options);
  } else if (workload == "audit") {
    report = RunAudit(options);
  } else if (workload == "daemon") {
    report = RunDaemon(options);
  } else {
    return Usage();
  }
  if (!report.ok()) {
    std::fprintf(stderr, "%s: %s\n", workload.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  if (options.trace) {
    PrintResult(*report, kPerLayer);
  } else {
    PrintResult(*report, kEndToEnd);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace privmark

int main(int argc, char** argv) {
  // Every thread of the run (the daemon's included) shares the CPU the
  // process started on, so the calibration unit always measures the CPU
  // the operations ran on, and loopback hand-offs never cross CPUs whose
  // speeds drift apart. Threads started later inherit the mask.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    CPU_SET(cpu, &one_cpu);
    sched_setaffinity(0, sizeof(one_cpu), &one_cpu);
  }
  return privmark::perfbench::Main(argc, argv);
}
