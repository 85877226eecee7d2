#!/usr/bin/env bash
# Ship-reachability check: lists the exported library functions that no
# shipped binary reaches, and fails unless each one is on the allow-list.
#
# A shipped binary is one of the examples (privmark_cli and the other
# demos), the bench/ harnesses, or privmark_perfbench. The library and
# every binary are built at -O0 (Debug) with one section per function and
# data object, and linked with --gc-sections, so a binary keeps exactly
# the functions its entry points can call. Optimised builds inline
# same-file callees and would report them as unreached.
#
# An exported function is a `T` symbol of a libprivmark_*.a archive. It is
# reached when any shipped binary still defines it after the link.
#
# scripts/reachability_allow.txt lists the unreached functions that stay,
# one per line: a tag, then the demangled symbol as nm -C prints it.
#   oracle     a reference implementation the tests compare against
#   test-hook  an accessor or switch that only tests use
#   paper      a method of the paper that no binary runs yet
# The check fails on an unreached function missing from the list, and on a
# stale entry: one whose symbol is now reached or no longer exists.
#
# Builds into build-reach/ (the library tree, then perfbench out of tree;
# nothing is written under perfbench/). Usage, from anywhere:
#   scripts/reachability.sh
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
OUT="build-reach"
ALLOW="scripts/reachability_allow.txt"

configure=(-DCMAKE_BUILD_TYPE=Debug
           "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
           "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
if command -v ninja >/dev/null; then configure+=(-G Ninja); fi

echo "=== Building the shipped binaries (-O0, --gc-sections) ===" >&2
cmake -S . -B "${OUT}/tree" "${configure[@]}" -DPRIVMARK_BUILD_TESTS=OFF >&2
cmake --build "${OUT}/tree" -j "${JOBS}" >&2
cmake -S perfbench -B "${OUT}/perfbench" "${configure[@]}" >&2
cmake --build "${OUT}/perfbench" --target privmark_perfbench -j "${JOBS}" >&2

binaries=("${OUT}/perfbench/privmark_perfbench")
while IFS= read -r -d '' bin; do binaries+=("${bin}"); done < <(
  find "${OUT}/tree/examples" "${OUT}/tree/bench" -maxdepth 1 -type f \
    -perm -u+x -print0 | sort -z)

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# nm prints "<address> <type> <name>"; the demangled name may hold spaces.
nm -C --defined-only "${OUT}"/tree/src/libprivmark_*.a |
  sed -n 's/^[0-9a-f]* T //p' | LC_ALL=C sort -u > "${work}/exported"
for bin in "${binaries[@]}"; do
  nm -C --defined-only "${bin}" | sed -n 's/^[0-9a-f]* [A-Za-z] //p'
done | LC_ALL=C sort -u > "${work}/reached"
LC_ALL=C comm -23 "${work}/exported" "${work}/reached" > "${work}/unreached"

status=0
: > "${work}/allowed"
while read -r tag symbol; do
  [[ -z "${tag}" || "${tag}" == \#* ]] && continue
  case "${tag}" in
    oracle|test-hook|paper) ;;
    *) echo "bad tag '${tag}' in ${ALLOW}: ${symbol}"; status=1 ;;
  esac
  printf '%s\n' "${symbol}" >> "${work}/allowed"
  if ! grep -qxF -- "${symbol}" "${work}/exported"; then
    echo "stale entry (no such exported function): ${symbol}"; status=1
  elif ! grep -qxF -- "${symbol}" "${work}/unreached"; then
    echo "stale entry (now reached by a shipped binary): ${symbol}"; status=1
  fi
done < "${ALLOW}"

echo "${#binaries[@]} shipped binaries; $(wc -l < "${work}/exported") exported" \
  "functions, $(wc -l < "${work}/unreached") unreached:"
while IFS= read -r symbol; do
  if grep -qxF -- "${symbol}" "${work}/allowed"; then
    echo "  allowed   ${symbol}"
  else
    echo "  UNLISTED  ${symbol}"; status=1
  fi
done < "${work}/unreached"

if [[ ${status} -ne 0 ]]; then
  echo "reachability: FAILED (delete the function, or list it in ${ALLOW}" \
    "with its tag)"
  exit 1
fi
echo "reachability OK"
