#!/usr/bin/env bash
# Single-daemon e2e smoke: one real dpcubed process over loopback HTTP.
# Asserts that
#   - a gzip-ingested copy and a plain copy of one dataset report the same
#     content fingerprint in GET /v1/datasets and release byte-identical
#     bodies (budget stripped) at the same seed;
#   - an explicit X-Request-Id is echoed on the response and appears in
#     the daemon's JSON request log;
#   - the debug_timing span tree carries all five engine stages;
#   - the Prometheus scrape carries the request and stage histograms plus
#     go_goroutines (saved as daemon-metrics.prom for CI artifacts);
#   - -plan-flush without -store-dir is refused at startup with exit 2.
#
# Usage: scripts/daemon_e2e.sh [output-metrics-file]
# Leaves dpcubed, log-daemon.txt and the metrics files in the working
# directory.
set -euo pipefail

OUT=${1:-daemon-metrics.json}
PORT=18191
PID=

cleanup() {
  if [ -n "$PID" ]; then kill "$PID" 2>/dev/null || true; fi
  wait 2>/dev/null || true
}
trap cleanup EXIT

go build -o dpcubed ./cmd/dpcubed

# A flag error must stop the daemon before it serves anything (the
# timeout turns a daemon that starts serving anyway into a failure).
set +e
timeout 10 ./dpcubed -addr "localhost:$PORT" -plan-flush 1s 2>log-flagcheck.txt
CODE=$?
set -e
if [ "$CODE" -ne 2 ]; then
  echo "FAIL: -plan-flush without -store-dir exited $CODE, want 2" >&2
  cat log-flagcheck.txt >&2
  exit 1
fi
echo "OK: -plan-flush without -store-dir refused with exit 2"

./dpcubed -addr "localhost:$PORT" -epsilon-cap 1e9 -delta-cap 0.5 2>log-daemon.txt &
PID=$!
for _ in $(seq 1 60); do
  curl -sf "http://localhost:$PORT/v1/readyz" >/dev/null && break
  sleep 0.25
done
curl -sf "http://localhost:$PORT/v1/readyz" >/dev/null || {
  echo "FAIL: daemon never became ready" >&2
  tail -5 log-daemon.txt >&2
  exit 1
}

DATA=daemon-e2e.ndjson
{
  echo '{"schema":[{"name":"color","cardinality":3},{"name":"size","cardinality":2},{"name":"grade","cardinality":4}]}'
  for i in $(seq 0 299); do
    echo "[$((i % 3)),$(((i / 3) % 2)),$(((i / 7) % 4))]"
  done
} >"$DATA"
gzip -k -f "$DATA"

curl -sf -X PUT --data-binary "@$DATA" "http://localhost:$PORT/v1/datasets/plain" >/dev/null
curl -sf -X PUT -H 'Content-Encoding: gzip' --data-binary "@$DATA.gz" \
  "http://localhost:$PORT/v1/datasets/zipped" >/dev/null

# Gzip ingestion must reproduce the plain copy's exact counts.
FPRINTS=$(curl -sf "http://localhost:$PORT/v1/datasets" |
  jq -r '[.datasets[] | select(.id == "plain" or .id == "zipped") | .fingerprint] | sort | join(" ")')
read -r FP_A FP_B <<<"$FPRINTS"
if [ -z "${FP_B:-}" ] || [ "$FP_A" != "$FP_B" ]; then
  echo "FAIL: want two copies with one fingerprint, got: $FPRINTS" >&2
  exit 1
fi
echo "OK: gzip and plain copies share fingerprint $FP_A"

release() { # release <dataset> <seed> <out-file>
  curl -sf -X POST "http://localhost:$PORT/v1/release" \
    -d "{\"dataset_id\":\"$1\",\"workload\":{\"k\":2},\"epsilon\":0.5,\"seed\":$2,\"strategy\":\"cluster\"}" |
    jq -S 'del(.budget)' >"$3"
}
release plain 7 rel-plain.json
release zipped 7 rel-zipped.json
if ! diff -q rel-plain.json rel-zipped.json >/dev/null; then
  echo "FAIL: gzip-ingested copy releases different bits at seed 7" >&2
  diff rel-plain.json rel-zipped.json | head -20 >&2
  exit 1
fi
echo "OK: gzip and plain copies release identical bodies at seed 7"

# Request-ID correlation: an explicit X-Request-Id is echoed and lands in
# the daemon's structured request log.
RID="corr-e2e-$$"
HDRS=$(curl -sf -D - -o /dev/null -X POST "http://localhost:$PORT/v1/release" \
  -H "X-Request-Id: $RID" \
  -d '{"dataset_id":"plain","workload":{"k":2},"epsilon":0.5,"seed":99,"strategy":"cluster"}')
if ! grep -qi "x-request-id: $RID" <<<"$HDRS"; then
  echo "FAIL: response did not echo X-Request-Id $RID" >&2
  echo "$HDRS" >&2
  exit 1
fi
if ! jq -e --arg rid "$RID" 'select(.request_id == $rid)' log-daemon.txt >/dev/null 2>&1; then
  echo "FAIL: daemon log has no JSON record for request $RID" >&2
  tail -5 log-daemon.txt >&2
  exit 1
fi
echo "OK: request $RID echoed and logged"

# The debug_timing span tree must account for the release's stages.
TIMING=$(curl -sf -X POST "http://localhost:$PORT/v1/release" \
  -d '{"dataset_id":"plain","workload":{"k":2},"epsilon":0.5,"seed":100,"strategy":"cluster","debug_timing":true}' |
  jq '.timing')
for stage in plan allocate measure recover consist; do
  if [ "$(jq --arg s "$stage" '[.spans[] | select(.name == $s)] | length' <<<"$TIMING")" -eq 0 ]; then
    echo "FAIL: debug_timing tree missing stage $stage" >&2
    echo "$TIMING" >&2
    exit 1
  fi
done
echo "OK: debug_timing span tree carries all five stages"

# Prometheus scrape: request and stage histograms plus runtime gauges.
curl -sf "http://localhost:$PORT/v1/metrics?format=prometheus" >daemon-metrics.prom
for metric in \
  'dpcubed_requests_total{endpoint="POST /v1/release"}' \
  dpcubed_request_duration_seconds_bucket \
  'dpcubed_stage_duration_seconds_bucket{stage="measure"' \
  go_goroutines; do
  if ! grep -qF "$metric" daemon-metrics.prom; then
    echo "FAIL: Prometheus scrape missing $metric" >&2
    exit 1
  fi
done
echo "OK: Prometheus scrape carries request and stage histograms"

curl -sf "http://localhost:$PORT/v1/metrics" >"$OUT"
echo "OK: daemon e2e passed (metrics in $OUT)"
