#!/usr/bin/env bash
# Runs the google-benchmark microbenchmarks in a dedicated *Release* build
# and writes the JSON that tracks the repo's perf trajectory
# (BENCH_micro.json).
#
# Usage:
#   scripts/run_benches.sh [out-json]
#
# Environment:
#   MIN_TIME        per-benchmark minimum run time in seconds (default
#                   0.05). NOTE: passed as a plain double
#                   (--benchmark_min_time=0.05), which works on
#                   google-benchmark 1.7.x and 1.8.x alike; the
#                   "0.05s"/"10x" suffix forms require >= 1.8.
#   BENCH_BUILD_DIR build directory (default build-bench). Always
#                   configured with -DCMAKE_BUILD_TYPE=Release; benchmark
#                   numbers from unoptimized builds are noise, so the
#                   emitted JSON is rejected unless the binary itself
#                   reports an optimized build (see below).
#   BASELINE_JSON   Release baseline to embed under the output's
#                   "baseline_release" key (default
#                   scripts/bench_baseline_release.json), so before/after
#                   numbers travel together.
#   CMAKE_ARGS      extra arguments appended to the cmake configure (CI
#                   sets CMAKE_CXX_COMPILER_LAUNCHER=ccache in the
#                   environment instead, which cmake reads itself).
#
# Build-type validation: the binary records "privmark_build_type" into the
# JSON context from its own NDEBUG state. We check that field, not the
# benchmark library's "library_build_type" — distro libbenchmark packages
# are often built assertion-enabled and report "debug" even when our code
# is fully optimized (which is exactly how a debug-looking BENCH_micro.json
# got recorded from a Release tree once).
set -euo pipefail

OUT_JSON="${1:-BENCH_micro.json}"
MIN_TIME="${MIN_TIME:-0.05}"
BUILD_DIR="${BENCH_BUILD_DIR:-build-bench}"
BASELINE_JSON="${BASELINE_JSON:-scripts/bench_baseline_release.json}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DPRIVMARK_BUILD_TESTS=OFF \
  -DPRIVMARK_BUILD_EXAMPLES=OFF ${CMAKE_ARGS:-} >/dev/null
cmake --build "${BUILD_DIR}" --target micro_throughput -j "$(nproc)"

BIN="${BUILD_DIR}/bench/micro_throughput"
if [[ ! -x "${BIN}" ]]; then
  echo "error: ${BIN} was not built" >&2
  exit 1
fi

"${BIN}" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json \
  --benchmark_out="${OUT_JSON}" \
  --benchmark_out_format=json >/dev/null

if ! grep -q '"privmark_build_type": "release"' "${OUT_JSON}"; then
  echo "error: ${OUT_JSON} was recorded from a non-Release privmark build" >&2
  echo "       (context.privmark_build_type != \"release\");" >&2
  echo "       refusing to publish debug benchmark numbers." >&2
  exit 1
fi

if [[ -f "${BASELINE_JSON}" ]] && command -v python3 >/dev/null 2>&1; then
  python3 - "${OUT_JSON}" "${BASELINE_JSON}" <<'PY'
import json
import sys

out_path, baseline_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    current = json.load(f)
with open(baseline_path) as f:
    baseline = json.load(f)
current["baseline_release"] = {
    "source": baseline_path,
    "context": baseline.get("context", {}),
    "benchmarks": baseline.get("benchmarks", []),
}
with open(out_path, "w") as f:
    json.dump(current, f, indent=1)
    f.write("\n")
PY
  echo "embedded baseline from ${BASELINE_JSON}"
fi

echo "wrote ${OUT_JSON}"
