#!/usr/bin/env bash
# loc.sh — prints the module's code-line count: non-blank lines that are not
# `//` comments, over the non-test .go files outside benchmarks/ (knnperf's
# own module), testdata and dot directories. Informational only: it is the
# number CHANGES.md quotes per change, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

find . \( -path ./benchmarks -o -name testdata -o -name '.?*' \) -prune -o \
  -type f -name '*.go' ! -name '*_test.go' -print0 |
  xargs -0 cat | grep -cvE '^[[:space:]]*(//|$)'
