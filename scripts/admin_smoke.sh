#!/usr/bin/env bash
# Admin-plane smoke test: start a serving cluster with `knnnode -admin`,
# verify /healthz flips from degraded (503) to healthy (200) as
# the nodes seat, run a query workload, and assert the /metrics epoch
# counters advanced consistently with it. The final /metrics snapshot is
# written to admin_metrics.json for CI to upload as a workflow artifact.
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

addr=127.0.0.1:7951
admin=127.0.0.1:7952

"$bin/knnnode" -coordinator -addr "$addr" -k 2 -admin "$admin" &
for _ in $(seq 1 100); do
  (exec 3<>"/dev/tcp/127.0.0.1/7952") 2>/dev/null && break
  sleep 0.1
done

# Before any node joins, the admin plane is already up and must report
# the cluster unhealthy — observability outlives the data plane.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$admin/healthz")
if [ "$code" != "503" ]; then
  echo "admin-smoke: /healthz before rendezvous returned $code, want 503" >&2
  exit 1
fi
echo "admin-smoke: /healthz degraded (503) before nodes joined"

"$bin/knnnode" -join "$addr" -points 2000 &
"$bin/knnnode" -join "$addr" -points 2000 &

query() { "$bin/knnquery" -connect "$addr" -l 5 -timeout 2s; }
for _ in $(seq 1 50); do query >/dev/null 2>&1 && break; sleep 0.2; done
query >/dev/null

code=$(curl -s -o /dev/null -w '%{http_code}' "http://$admin/healthz")
if [ "$code" != "200" ]; then
  echo "admin-smoke: /healthz with all seats present returned $code, want 200" >&2
  exit 1
fi
echo "admin-smoke: /healthz healthy (200) with all seats present"

epochs_admitted() {
  curl -s "http://$admin/metrics" | python3 -c '
import json, sys
print(json.load(sys.stdin)["counters"]["frontend_epochs_admitted_total"])'
}

before=$(epochs_admitted)
for _ in $(seq 1 5); do query >/dev/null; done
after=$(epochs_admitted)
if [ "$after" -lt $((before + 5)) ]; then
  echo "admin-smoke: epochs admitted went $before -> $after after 5 queries; want +5 or more" >&2
  exit 1
fi
echo "admin-smoke: /metrics epoch counters advanced ($before -> $after) with the workload"

curl -s "http://$admin/metrics" | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["counters"]["frontend_queries_total"] >= 6, s["counters"]
assert s["histograms"]["frontend_query_latency_ns"]["count"] >= 6, s["histograms"]
assert s["gauges"]["frontend_epochs_inflight"] == 0, s["gauges"]
'
echo "admin-smoke: query counter, latency histogram and drained in-flight gauge consistent"

spans=$(curl -s "http://$admin/trace/recent" | python3 -c '
import json, sys
spans = json.load(sys.stdin)
assert all(sp["done"] for sp in spans), spans
print(len(spans))')
if [ "$spans" -lt 6 ]; then
  echo "admin-smoke: /trace/recent holds $spans finished spans; want >= 6" >&2
  exit 1
fi
echo "admin-smoke: /trace/recent holds $spans finished epoch spans"

curl -s "http://$admin/metrics" > admin_metrics.json
echo "admin-smoke: /metrics snapshot written to admin_metrics.json"
