#!/usr/bin/env bash
# Wire-level interop smoke test: serve a real scalar cluster with knnnode
# processes and drive it with the stdlib-only Python client
# (scripts/interop_client.py), which speaks docs/PROTOCOL.md from scratch —
# framing, varints, query and batched-query bodies, reply decoding. CI runs
# this to guard the spec for non-Go clients: if the wire format drifts from
# the document, the Python client (written against the document) breaks.
# Server-side batching is enabled so coalesced epochs cross the wire too.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/knnnode" ./cmd/knnnode

addr=127.0.0.1:7951

"$bin/knnnode" -coordinator -addr "$addr" -k 2 -server-batch &
for _ in $(seq 1 100); do
  (exec 3<>"/dev/tcp/127.0.0.1/7951") 2>/dev/null && break
  sleep 0.1
done
"$bin/knnnode" -join "$addr" -points 2000 &
"$bin/knnnode" -join "$addr" -points 2000 &

for i in $(seq 1 50); do
  if python3 scripts/interop_client.py "$addr" 7 2>/dev/null; then
    echo "interop-smoke: PASS"
    exit 0
  fi
  sleep 0.2
done
# Surface the real failure once the retries are exhausted.
python3 scripts/interop_client.py "$addr" 7
echo "interop-smoke: FAIL" >&2
exit 1
