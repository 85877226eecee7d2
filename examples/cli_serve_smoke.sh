#!/usr/bin/env bash
# End-to-end smoke test for `privmark_cli serve`. One script — a freeze
# stream, a drift stream, a `detect` and a streamed `fingerprint` — runs
# twice: against serve's embedded loopback daemon, then against a
# separate `privmark_cli daemon` through --connect. The two runs must
# write byte-identical out.csv and manifest files, the manifests must
# name the --key, the freeze stream must match a one-shot `protect` of
# the same rows, and `privmark_cli detect` must recover that run's mark
# from the served output. A zero --eta or --k, a non-finite
# --drift-threshold and a non-numeric or non-finite attack <fraction> or
# dispute <claimed_v> must be usage errors (exit 2), and a dispute with
# protect's printed v must establish ownership. The daemon and the
# one-shot `protect` run with PRIVMARK_FAILPOINTS set to kill triggers:
# only tests arm failpoints, so a shipped binary must ignore it.
#
# usage: cli_serve_smoke.sh <path/to/privmark_cli> <scratch dir>
set -euo pipefail

cli=$1
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

daemon_pid=
cleanup() {
  exec 3>&- 2>/dev/null || true
  if [[ -n $daemon_pid ]]; then
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  fi
}
trap cleanup EXIT

# The next run's `rm -rf "$work"` deletes the logs, so a failure prints
# their tails to stderr, where `ctest --output-on-failure` keeps them.
fail() {
  echo "FAIL: $*" >&2
  local log
  for log in local.log remote.log daemon.log; do
    [[ -f $log ]] || continue
    echo "--- tail of $work/$log ---" >&2
    tail -n 20 "$log" >&2
  done
  exit 1
}

"$cli" generate 1200 all.csv --seed=11 >/dev/null
{ head -n 1 all.csv; sed -n '2,601p' all.csv; } > b0.csv
{ head -n 1 all.csv; sed -n '602,1201p' all.csv; } > b1.csv
"$cli" gen-key owner.key --name=clinic-owner --eta=20 --seed=7 >/dev/null
"$cli" gen-key other.key --name=clinic-other --eta=20 --seed=8 >/dev/null
{ cat owner.key; tail -n +2 other.key; } > registry.key

run_serve() {  # <output dir> [serve flags...]
  local out=$1
  shift
  mkdir -p "$out"
  cat > "$out.script" <<EOF
# freeze stream + drift stream, interleaved
open ward $out/ward.csv $out/ward.man --k=10
open icu $out/icu.csv $out/icu.man --k=10 --rebin-policy=drift --drift-threshold=0.3
ingest ward b0.csv
ingest icu b0.csv
flush icu
ingest ward b1.csv
ingest icu b1.csv
flush ward
detect ward
fingerprint icu registry.key --stream
close ward
EOF
  "$cli" serve "$out.script" --key=owner.key "$@" > "$out.log" \
    || fail "serve $* exited $? (log: $work/$out.log)"
}

# 1. Embedded loopback daemon.
run_serve local --cap=2
grep -q '^\[icu\] shard (epoch 0' local.log \
  || fail "fingerprint --stream printed no shard lines"

# 2. A separate daemon through --connect. Its stdin is a fifo this
# script holds open; closing it stops the daemon. The environment would
# kill it at its third frame read if shipped binaries armed failpoints
# from it.
mkfifo ctl
PRIVMARK_FAILPOINTS="wire.read=kill:3" \
  "$cli" daemon --port=0 --cap=2 < ctl > daemon.log &
daemon_pid=$!
exec 3> ctl
port=
for _ in $(seq 200); do
  port=$(sed -n 's/^daemon listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    daemon.log)
  [[ -n $port ]] && break
  sleep 0.05
done
[[ -n $port ]] || fail "daemon never printed its port"
run_serve remote --connect="127.0.0.1:$port"
exec 3>&-
wait "$daemon_pid" || fail "daemon exited non-zero"
daemon_pid=

# 3. Same artifacts, byte for byte.
[[ "$(ls local)" == "$(ls remote)" ]] \
  || fail "artifact sets differ: $(ls local | tr '\n' ' ') vs $(ls remote | tr '\n' ' ')"
[[ -f local/icu.man.epoch1 ]] || fail "drift stream sealed only one epoch"
for f in local/*; do
  cmp "$f" "remote/${f#local/}" || fail "${f#local/} differs across daemons"
done

# 4. The manifests name the key.
grep -q 'clinic-owner' local/ward.man || fail "ward.man lacks the key_id"

# 5. The freeze stream is the one-shot protect of the same rows, and
# detect recovers protect's mark from the served output. The environment
# names a kill at the first flush, which protect must ignore.
PRIVMARK_FAILPOINTS="session.flush=kill:1" \
  "$cli" protect all.csv oneshot.csv oneshot.man --k=10 --key=owner.key \
  > protect.log || fail "protect exited $?"
cmp oneshot.csv local/ward.csv || fail "served freeze stream != protect"
mark=$(sed -n 's/^mark (keep secret until dispute): //p' protect.log)
[[ -n $mark ]] || fail "protect printed no mark"
"$cli" detect local/ward.csv local/ward.man --key=owner.key > detect.log
recovered=$(sed -n 's/^recovered mark: //p' detect.log)
[[ "$recovered" == "$mark" ]] \
  || fail "detect recovered '$recovered', protect embedded '$mark'"

# 6. eta = 0 is a usage error (exit 2), not a division by zero.
status=0
"$cli" protect all.csv zero.csv zero.man --k=10 --eta=0 2>/dev/null \
  || status=$?
[[ $status -eq 2 ]] || fail "protect --eta=0 exited $status, want 2"

# 6b. So is k = 0, wherever a stream is opened: protect, recover and a
#     serve open line — not a failure at the first flush.
echo "open ward zero.csv zero.man --k=0" > zero.script
for cmd in "protect all.csv zero.csv zero.man" \
           "recover missing.wal zero.csv zero.man" "serve zero.script"; do
  status=0
  # shellcheck disable=SC2086  # $cmd is a word list on purpose
  "$cli" $cmd --k=0 >/dev/null 2>&1 || status=$?
  [[ $status -eq 2 ]] || fail "${cmd%% *} --k=0 exited $status, want 2"
done

# 7. A non-finite drift threshold is a usage error (exit 2): a NaN would
#    compare false against every drift and silently never re-bin. The
#    same run with a finite threshold succeeds.
drift_protect() {  # <threshold>
  "$cli" protect all.csv drift.csv drift.man --k=10 --batch-size=600 \
    --rebin-policy=drift --drift-threshold="$1"
}
drift_protect 0.5 >/dev/null || fail "protect --drift-threshold=0.5 failed"
for threshold in nan inf; do
  status=0
  drift_protect "$threshold" >/dev/null 2>&1 || status=$?
  [[ $status -eq 2 ]] \
    || fail "protect --drift-threshold=$threshold exited $status, want 2"
done

# 8. So is an attack <fraction> that is not wholly a finite number: atof
#    read "abc" as 0 and passed "nan" into the attack, where casting it
#    to a row count is undefined.
"$cli" attack all.csv attacked.csv delete 0.25 >/dev/null \
  || fail "attack delete 0.25 failed"
for fraction in nan inf abc 0.5x; do
  status=0
  "$cli" attack all.csv attacked.csv add "$fraction" >/dev/null 2>&1 \
    || status=$?
  [[ $status -eq 2 ]] || fail "attack add $fraction exited $status, want 2"
done

# 9. A dispute's <claimed_v> must be wholly a finite number too: atof
#    read "abc" as 0 and "1x" as 1, and let "nan" into the comparison.
#    The v protect printed establishes ownership of its own output.
"$cli" protect all.csv plain.csv plain.man --k=10 > plain.log
v=$(sed -n 's/^identifier statistic v (PRESENT IN COURT): //p' plain.log)
[[ -n $v ]] || fail "protect printed no identifier statistic"
"$cli" dispute plain.csv plain.man "$v" > dispute.log \
  || fail "dispute with protect's v exited $?"
grep -q '^ownership: ESTABLISHED' dispute.log \
  || fail "dispute with protect's v did not establish ownership"
for claimed in abc nan 1x; do
  status=0
  "$cli" dispute plain.csv plain.man "$claimed" >/dev/null 2>&1 \
    || status=$?
  [[ $status -eq 2 ]] || fail "dispute $claimed exited $status, want 2"
done

echo "cli_serve: OK (port $port, mark $mark)"
