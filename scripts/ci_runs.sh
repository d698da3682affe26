#!/usr/bin/env bash
# ci_runs.sh — fails when a `go test -run` pattern in .github/workflows/ci.yml
# selects no test in the packages its command names, so deleting or
# renaming a test can never leave a CI step silently testing nothing. Each
# alternative of a pattern (split at `|`) must list at least one test,
# benchmark, fuzz target or example under `go test -list`. A `-run '^$'`
# (run no test, benchmarks only) is skipped. Run it from anywhere:
#
#   scripts/ci_runs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workflow=.github/workflows/ci.yml
run_flag="go test .*-run ('[^']*'|\"[^\"]*\"|[^[:space:]]+)(.*)$"
fail=0 checked=0
while IFS= read -r line; do
  [[ $line =~ $run_flag ]] || continue
  pattern=${BASH_REMATCH[1]} rest=${BASH_REMATCH[2]}
  pattern=${pattern//\'/} pattern=${pattern//\"/}
  [[ $pattern == '^$' ]] && continue
  rest=${rest%%|*} # a trailing `| tee …` is not a package
  pkgs=()
  for tok in $rest; do
    [[ $tok == .* ]] && pkgs+=("$tok")
  done
  if [ ${#pkgs[@]} -eq 0 ]; then
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
if [ "$checked" -eq 0 ]; then
  echo "ci_runs: found no -run pattern in $workflow — has the form this script scans for changed?" >&2
  exit 1
fi
if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "ci_runs: every one of $checked -run alternatives in $workflow selects a test"
