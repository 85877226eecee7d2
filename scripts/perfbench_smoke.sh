#!/usr/bin/env bash
# Smoke run of the perfbench benchmark: every workload for one second, with
# and without the per-layer trace. perfbench calls library entry points
# (Embed, MaterializeProtected, MeasureSeamlessness, ...) directly, so a
# signature or behaviour change that breaks it fails here instead of at
# benchmark time. Fails on a non-zero exit or a result with
# "correct": false; the numbers themselves are not judged.
#
# Usage, from anywhere: scripts/perfbench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

for workload in protect joint-binning audit daemon; do
  for trace in 0 1; do
    echo "--- perfbench ${workload} --trace ${trace}"
    result="$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
      --seconds 1 --trace "${trace}")"
    echo "${result}"
    python3 -c '
import json, sys
result = json.loads(sys.argv[1])
if result.get("correct") is not True:
    sys.exit("perfbench: %s --trace %s reported an incorrect result"
             % (sys.argv[2], sys.argv[3]))
' "${result}" "${workload}" "${trace}"
  done
done
echo "perfbench smoke OK"
