#!/usr/bin/env bash
# ci_runs.sh — fails when a `go test -run` pattern or a `-fuzz` target in
# .github/workflows/ci.yml selects nothing in the packages its command
# names, so deleting or renaming a test can never leave a CI step silently
# testing nothing. Each alternative of a -run pattern (split at `|`) must
# list at least one test, benchmark, fuzz target or example under
# `go test -list`; a `-run '^$'` (run no test) is skipped. Each -fuzz
# target must be listed by name: `go test -fuzz` on a missing target prints
# "no fuzz tests to fuzz" and exits 0. A `-fuzz "^$f\$"` in the body of a
# `for f in A B …; do` loop stands for every name the loop lists. Run it
# from anywhere:
#
#   scripts/ci_runs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workflow=.github/workflows/ci.yml
run_flag="go test .*-run ('[^']*'|\"[^\"]*\"|[^[:space:]]+)(.*)$"
fuzz_flag="go test .*-fuzz ('[^']*'|\"[^\"]*\"|[^[:space:]]+)(.*)$"
loop_list="for f in ([^;]*);"
fail=0 checked=0 fuzzed=0
loop_names=()

# packages sets pkgs to the package arguments in $1, the command line after
# a flag's value; a trailing `| tee …` is not a package.
packages() {
  local tok
  pkgs=()
  for tok in ${1%%|*}; do
    [[ $tok == .* ]] && pkgs+=("$tok")
  done
  [ ${#pkgs[@]} -gt 0 ]
}

while IFS= read -r line; do
  if [[ $line =~ $loop_list ]]; then
    read -ra loop_names <<<"${BASH_REMATCH[1]}"
    continue
  fi
  if [[ $line =~ $fuzz_flag ]]; then
    target=${BASH_REMATCH[1]} rest=${BASH_REMATCH[2]}
    target=${target//\'/} target=${target//\"/} target=${target#^} target=${target%\$} target=${target%\\}
    if ! packages "$rest"; then
      echo "ci_runs: no package in: $line" >&2
      fail=1
      continue
    fi
    names=("$target")
    [[ $target == '$f' ]] && names=("${loop_names[@]}")
    for name in "${names[@]}"; do
      fuzzed=$((fuzzed + 1))
      listed=$(go test -list "^$name\$" "${pkgs[@]}" </dev/null 2>&1 || true)
      if [[ $name != Fuzz* ]] || ! grep -qx "$name" <<<"$listed"; then
        echo "ci_runs: -fuzz '$name' names no fuzz target in ${pkgs[*]}" >&2
        fail=1
      fi
    done
  fi
  [[ $line =~ $run_flag ]] || continue
  pattern=${BASH_REMATCH[1]} rest=${BASH_REMATCH[2]}
  pattern=${pattern//\'/} pattern=${pattern//\"/}
  [[ $pattern == '^$' ]] && continue
  if ! packages "$rest"; then
    echo "ci_runs: no package in: $line" >&2
    fail=1
    continue
  fi
  IFS='|' read -ra alts <<<"$pattern"
  for alt in "${alts[@]}"; do
    checked=$((checked + 1))
    listed=$(go test -list "$alt" "${pkgs[@]}" </dev/null 2>&1 || true)
    if ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$listed"; then
      echo "ci_runs: -run '$alt' lists no test in ${pkgs[*]} (from: $pattern)" >&2
      fail=1
    fi
  done
done <"$workflow"
if [ "$checked" -eq 0 ] || [ "$fuzzed" -eq 0 ]; then
  echo "ci_runs: found no -run pattern or no -fuzz target in $workflow — has the form this script scans for changed?" >&2
  exit 1
fi
if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "ci_runs: every one of $checked -run alternatives and $fuzzed -fuzz targets in $workflow selects a test"
