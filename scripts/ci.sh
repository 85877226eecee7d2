#!/usr/bin/env bash
# Tier-1 verify, runnable locally or from CI, in six lanes:
#   scripts/ci.sh [asan|tsan|release|bench|perfbench|reach]...
# With no argument every lane runs, in that order; each GitHub CI job
# (.github/workflows/ci.yml) runs one. The lanes cover three
# configurations:
#   1. Debug + address/undefined sanitizers (slow-labeled suites excluded),
#      then a crypto-only rerun with UBSan findings made fatal
#      (halt_on_error) so misaligned loads in the multi-buffer SHA-1
#      backends or either AES-128 backend fail the job instead of
#      merely printing, and the same for the joint-search suites (the
#      bin counter's key shifts and table probes) and the wire and
#      journal byte loops (CRC-32, table codec) and the service's
#      deadline arithmetic, then the parser suites (the `alloccap` label)
#      under a 1 GiB ASan allocation cap, then a fault-injection replay
#      of the faultinject-labeled suites with three fixed
#      PRIVMARK_FAULT_SEED values
#   2. Debug + thread sanitizer over the parallel-labeled suites (pool
#      substrate incl. concurrent submission/leases, binning,
#      watermarking, sessions, the service and daemon suites, failure
#      injection, the concurrent_hospitals smoke test), plus the full 20k
#      parallel-equivalence property suite, the thread-exercising
#      streaming-equivalence tests (session ingest and joint binning
#      under a pooled agent; the serial-only replay/drift
#      cases run in the Release job), and the 100-connection daemon
#      loopback soak (slow-labeled, so invoked directly)
#   3. Release, the tier-1 tree build/ (everything, incl. the fork/kill
#      crash-recovery acceptance suite: failpoints are in every build)
# plus (bench) a short-min-time benchmark smoke run on a Release build,
# gated by scripts/bench_check.py against the checked-in Release baseline
# (set PRIVMARK_BENCH_OVERRIDE=1 to report without failing; under GitHub
# Actions the comparison table also goes to $GITHUB_STEP_SUMMARY),
# (perfbench) a one-second perfbench run of every workload
# (scripts/perfbench_smoke.sh), and (reach) the ship-reachability check
# (scripts/reachability.sh): every exported library function no shipped
# binary reaches must be on its allow-list.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

lane_asan() {
  echo "=== Debug + sanitizers ==="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPRIVMARK_SANITIZE=address,undefined
  cmake --build build-asan -j "${JOBS}"
  (cd build-asan && ctest --output-on-failure -j "${JOBS}" -LE slow)

  echo "=== Crypto kernels under UBSan (alignment findings made fatal) ==="
  # -fsanitize=undefined already instruments alignment, but UBSan only
  # prints by default. halt_on_error turns any finding in the hashing
  # kernels — notably misaligned loads in the multi-buffer SHA-1
  # backends, which read caller-provided message bytes at arbitrary
  # offsets — into a hard failure. The multibuffer suite forces every
  # compiled backend the CPU supports (portable/SSE2/AVX2/AVX-512) in
  # turn, so each SIMD path is exercised here. The 'Aes' filter covers
  # both AES-128 backends: Aes128BackendTest runs the portable kernel and
  # the AES-NI kernel (unaligned loads of caller blocks) side by side,
  # skipping the AES-NI cases on CPUs without it. SchemeGoldenTest runs
  # the pinned end-to-end embed/detect digests, so every keyed hash the
  # watermark pads into the SHA-1 lane array is checked here too.
  # SelectionRuleTest runs Eq. (5)'s multiply-and-rotate divisibility
  # rule from odd eta (s = 0, where a rotate written as two shifts could
  # shift by 64) up to eta = 2^63.
  (cd build-asan && \
   UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
   ctest --output-on-failure -j "${JOBS}" \
     -R 'Sha1|KeyedHash|HashAlgorithm|Aes|SchemeGoldenTest|SelectionRule')

  echo "=== Joint search under UBSan (findings made fatal) ==="
  # The joint search's bin counter builds flat-table keys as
  # (prefix bin id << 32) | node and probes with masked index arithmetic;
  # halt_on_error turns any shift or overflow finding there into a hard
  # failure. Covers the multi-attribute suite and its golden digests.
  (cd build-asan && \
   UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
   ctest --output-on-failure -j "${JOBS}" \
     -R 'MultiBinTest|IsJointlyKAnonymousTest|MultiAttributeGoldenTest')

  echo "=== Wire and journal byte loops under UBSan (findings made fatal) ==="
  # The slicing-by-8 CRC-32 shifts bytes by up to 24 bits, and the table
  # codec writes fixed-width runs into buffers it has just resized; any
  # shift, overflow or bounds finding there fails the job. Covers the
  # journal (CRC known answers and sweep), the table codec and the pinned
  # wire payload digests.
  (cd build-asan && \
   UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
   ctest --output-on-failure -j "${JOBS}" \
     -R 'SessionJournalTest|WireTableCodecTest|WireGoldenTest')

  echo "=== Service deadlines under UBSan (findings made fatal) ==="
  # A request's deadline and Shutdown's are a caller's millisecond count
  # added to the steady clock; a count past what the clock holds
  # (INT64_MAX, which a remote peer can send) overflows the ms-to-ns
  # conversion unless it saturates. Covers the per-request deadline and
  # deadline-bounded Shutdown suites, huge deadlines included.
  (cd build-asan && \
   UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
   ctest --output-on-failure -j "${JOBS}" \
     -R 'ServiceDeadlineTest|ServiceShutdownTest')

  echo "=== Parser suites under an ASan allocation cap ==="
  # Every hand-written decoder must size its allocations from bytes it
  # has checked, never from a count it was sent. max_allocation_size_mb
  # makes any single allocation above 1 GiB fail, and
  # allocator_may_return_null=0 makes that failure an abort rather than a
  # bad_alloc a test could swallow, so such a decoder fails here on every
  # host, whatever its overcommit setting. The suites' largest honest
  # allocation is the 256 MiB + 1 oversized-frame case, well under the
  # cap. The file readers share one capped reader, so a 2 GiB sparse
  # manifest must be refused before anything is allocated; the attack
  # suite's NaN/inf fractions must be refused before they size a row
  # count. The suites carry the `alloccap` label (tests/CMakeLists.txt).
  (cd build-asan && \
   ASAN_OPTIONS="max_allocation_size_mb=1024:allocator_may_return_null=0" \
   ctest --output-on-failure -j "${JOBS}" -L alloccap)

  echo "=== Fault injection under ASan (three fixed seeds) ==="
  # The seed feeds the probabilistic fault-storm test, and the
  # deterministic faultinject suites — including the daemon suite's
  # injected wire.read/wire.write socket faults and the adversarial
  # manifest cases — simply rerun. The fork/kill crash suite is
  # slow-labeled and runs in the release lane.
  for seed in 101 202 303; do
    (cd build-asan && \
     PRIVMARK_FAULT_SEED="${seed}" \
     ctest --output-on-failure -j "${JOBS}" -L faultinject -LE slow)
  done
}

lane_tsan() {
  echo "=== Debug + thread sanitizer (parallel suites) ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPRIVMARK_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}"
  (cd build-tsan && ctest --output-on-failure -j "${JOBS}" -L parallel -LE slow)
  # Session strands are turns on the service's pool: repeat the service
  # suites so rare turn/shutdown interleavings get a chance to race.
  ./build-tsan/tests/service_service_test --gtest_repeat=20
  ./build-tsan/tests/service_durability_test --gtest_repeat=20
  ./build-tsan/tests/properties_parallel_equivalence_test
  ./build-tsan/tests/properties_fingerprint_equivalence_test
  ./build-tsan/tests/properties_streaming_equivalence_test \
    --gtest_filter='*AcrossThreads*:*JointParallel*'
  ./build-tsan/tests/integration_daemon_soak_test
  # The v2 multiplex soak is the client demux path's race test: many
  # threads pipelining sessions over ONE connection, streamed fingerprint
  # shards interleaving with other sessions' responses.
  ./build-tsan/tests/integration_daemon_multiplex_soak_test
}

lane_release() {
  echo "=== Release ==="
  # The tier-1 tree. Failpoints are compiled into every build, so this
  # runs the crash-recovery acceptance suite against the code that ships,
  # and the benchmark trees measure that same code.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}"
  (cd build && ctest --output-on-failure -j "${JOBS}")
}

lane_bench() {
  echo "=== Benchmark smoke (Release-enforced, double-valued min_time) ==="
  # run_benches.sh builds its own dedicated Release tree (build-bench/,
  # tests and examples off) and refuses to publish non-Release numbers.
  # The smoke JSON stays in that tree: the committed BENCH_micro.json is
  # regenerated only on purpose (scripts/run_benches.sh BENCH_micro.json).
  local build_dir="${BENCH_BUILD_DIR:-build-bench}"
  local smoke_json="${build_dir}/BENCH_micro.smoke.json"
  MIN_TIME=0.01 BENCH_BUILD_DIR="${build_dir}" \
    scripts/run_benches.sh "${smoke_json}"

  echo "=== Benchmark regression gate ==="
  # PRIVMARK_BENCH_OVERRIDE=1 reports without failing; GitHub Actions
  # sets GITHUB_STEP_SUMMARY, which receives the comparison table.
  python3 scripts/bench_check.py "${smoke_json}" \
    ${GITHUB_STEP_SUMMARY:+--summary "${GITHUB_STEP_SUMMARY}"}
}

lane_perfbench() {
  echo "=== perfbench smoke (every workload, --trace 0 and 1) ==="
  # perfbench drives library entry points directly; a change that breaks
  # it must fail here, not when the benchmark next runs.
  scripts/perfbench_smoke.sh
}

lane_reach() {
  echo "=== Ship reachability (unreached exported functions) ==="
  # Builds the examples, bench harnesses and perfbench at -O0 with
  # --gc-sections into build-reach/ and fails on an unreached exported
  # function missing from scripts/reachability_allow.txt, or on a stale
  # entry there.
  scripts/reachability.sh
}

LANES=("$@")
if [ "${#LANES[@]}" -eq 0 ]; then
  LANES=(asan tsan release bench perfbench reach)
fi
for lane in "${LANES[@]}"; do
  case "${lane}" in
    asan|tsan|release|bench|perfbench|reach) ;;
    *)
      echo "ci.sh: unknown lane '${lane}'" \
        "(asan, tsan, release, bench, perfbench, reach)" >&2
      exit 2
      ;;
  esac
done
for lane in "${LANES[@]}"; do
  "lane_${lane}"
done

echo "CI OK"
