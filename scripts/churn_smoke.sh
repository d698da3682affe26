#!/usr/bin/env bash
# Process-level churn smoke test: start a serving cluster as real
# processes, SIGKILL one resident node, verify the cluster answers with a
# degraded error (instead of bricking or hanging), start a replacement
# process with no special flags, and verify queries succeed again once it
# re-joins. Then SIGKILL the frontend and restart it: the surviving nodes
# run with -rejoin, so they re-register on their own and the cluster
# recovers without touching the node processes. CI runs this next to the
# in-process churn tests; it is the end-to-end proof that
# `knnnode`/`knnquery` survive node churn.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/knnnode" ./cmd/knnnode
go build -o "$bin/knnquery" ./cmd/knnquery

addr=127.0.0.1:7941

start_frontend() {
  "$bin/knnnode" -coordinator -addr "$addr" -k 2 &
  frontend=$!
  # Wait for the frontend to listen before the nodes dial it.
  for _ in $(seq 1 100); do
    (exec 3<>"/dev/tcp/127.0.0.1/7941") 2>/dev/null && break
    sleep 0.1
  done
}

start_frontend
"$bin/knnnode" -join "$addr" -points 2000 -rejoin &
"$bin/knnnode" -join "$addr" -points 2000 &
victim=$!

query() { "$bin/knnquery" -connect "$addr" -l 5 -timeout 2s; }
wait_serving() {
  for _ in $(seq 1 50); do query >/dev/null 2>&1 && return 0; sleep 0.2; done
  return 1
}

wait_serving
query >/dev/null
echo "churn-smoke: cluster serving"

kill -9 "$victim"
echo "churn-smoke: SIGKILLed node pid $victim"
sleep 0.5
if query >/dev/null 2>&1; then
  echo "churn-smoke: expected a degraded error while a node is down" >&2
  exit 1
fi
echo "churn-smoke: degraded window answers with an error (not a hang)"

# A freshly started replacement needs no special flags to take the absent
# seat (-rejoin here only arms it for the frontend restart below).
"$bin/knnnode" -join "$addr" -points 2000 -rejoin &
wait_serving
query >/dev/null
echo "churn-smoke: replacement re-joined; cluster recovered"

kill -9 "$frontend"
echo "churn-smoke: SIGKILLed frontend pid $frontend"
sleep 0.5
start_frontend
# Both surviving nodes run -rejoin: they must re-register with the new
# frontend on their own — no node process is touched.
wait_serving
query >/dev/null
echo "churn-smoke: frontend restarted; -rejoin nodes re-registered; cluster recovered"
