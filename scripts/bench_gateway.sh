#!/usr/bin/env bash
# Runs the gateway front-end benchmarks and emits BENCH_gateway.json at the
# repo root: end-to-end save throughput (HTTP request -> commit -> NDP
# drain -> durable ack) and the gateway's own p99 request latency at 1, 16,
# and 64 concurrent tenants, plus the async-acknowledge study (the same
# save workload acked at store durability vs at NVM durability with the
# drain in the background, over a paced store). The JSON carries the claim
# the gateway tier gates on: the service front door multiplexes tenants
# without collapsing — aggregate req/s at 64 tenants stays above half of
# the single-tenant rate. The sync/async numbers are advisory: that an
# async ack never waits for the drain is a property of the code (sync is
# async plus a wait), asserted deterministically by
# TestSyncSaveCompletesOnlyAfterStoreWrite in internal/gateway, not a
# wall-clock comparison that two p99s in one histogram bucket can flip.
# Each tier runs 3 times and the fastest run counts, so a loaded CI box
# doesn't flake the gate on scheduler noise.
#
# Usage: scripts/bench_gateway.sh [benchtime]   (default 300ms)
set -euo pipefail

cd "$(dirname "$0")/.."

benchtime="${1:-300ms}"
out=$(go test ./internal/gateway/ -run '^$' \
    -bench 'BenchmarkGatewaySave$|BenchmarkGatewaySaveAsync' \
    -benchtime "$benchtime" -count=3)

echo "$out"

echo "$out" | awk '
/^BenchmarkGatewaySave\/tenants=/ {
    split($1, parts, "=")
    sub(/-[0-9]+$/, "", parts[2])
    t = parts[2]
    if (!(t in rps)) order[n++] = t
    r = 0; p = 0
    for (i = 2; i <= NF - 1; i++) {
        if ($(i + 1) == "p99_ms") p = $i
        if ($(i + 1) == "req/s") r = $i
    }
    if (r + 0 > rps[t] + 0) { rps[t] = r; p99[t] = p }
}
/^BenchmarkGatewaySaveAsync\/mode=/ {
    split($1, parts, "=")
    sub(/-[0-9]+$/, "", parts[2])
    m = parts[2]
    r = 0; p = 0
    for (i = 2; i <= NF - 1; i++) {
        if ($(i + 1) == "p99_ms") p = $i
        if ($(i + 1) == "req/s") r = $i
    }
    if (!(m in arps) || r + 0 > arps[m] + 0) { arps[m] = r; ap99[m] = p }
}
END {
    printf "{\n"
    printf "  \"bench\": \"gateway save (HTTP -> commit -> drain -> ack)\",\n"
    printf "  \"tenants\": {\n"
    for (i = 0; i < n; i++) {
        t = order[i]
        printf "    \"%s\": {\"req_per_s\": %s, \"p99_ms\": %s}%s\n", \
            t, rps[t], p99[t], (i < n - 1 ? "," : "")
    }
    printf "  },\n"
    printf "  \"async_ack\": {\n"
    printf "    \"sync\": {\"req_per_s\": %s, \"p99_ms\": %s},\n", arps["sync"], ap99["sync"]
    printf "    \"async\": {\"req_per_s\": %s, \"p99_ms\": %s}\n", arps["async"], ap99["async"]
    printf "  },\n"
    held = (n >= 2 && rps[order[n-1]] + 0 > (rps[order[0]] + 0) / 2) ? "true" : "false"
    printf "  \"concurrency_holds\": %s\n", held
    printf "}\n"
}' > BENCH_gateway.json

cat BENCH_gateway.json

if ! grep -q '"concurrency_holds": true' BENCH_gateway.json; then
    echo "bench_gateway.sh: gateway throughput collapsed under 64 concurrent tenants" >&2
    exit 1
fi
echo "bench_gateway.sh: multi-tenant throughput holds under concurrency"
