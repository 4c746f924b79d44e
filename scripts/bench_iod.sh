#!/usr/bin/env bash
# Runs the iod transport benchmarks and emits BENCH_iod.json at the repo
# root: drain throughput per lane count, the wire-bound 4-lane drain, and
# restore latency. The JSON carries the one claim the transport gates on:
#
#   - drain throughput grows monotonically with the lane count (1 -> 4).
#
# The wire-bound drain is reported next to v1_baseline_mb_per_s, the last
# figure measured for the retired gob wire on the original bench host
# (172.94 MB/s). It is a frozen constant for reading the trajectory, not a
# gate: a slower CI runner or laptop must not fail the build on an absolute.
#
# Usage: scripts/bench_iod.sh [benchtime]   (default 300ms)
set -euo pipefail

cd "$(dirname "$0")/.."

benchtime="${1:-300ms}"

v1_baseline_mbps=172.94

out=$(go test ./internal/iod/ -run '^$' \
    -bench 'BenchmarkDrainLanes|BenchmarkWireDrain|BenchmarkStreamedRestore' \
    -benchtime "$benchtime" -count=1)

echo "$out"

echo "$out" | awk -v baseline="$v1_baseline_mbps" '
/^BenchmarkDrainLanes\/lanes=/ {
    split($1, parts, "=")
    sub(/-[0-9]+$/, "", parts[2])
    lanes[n_lanes++] = parts[2]
    lane_ns[parts[2]] = $3
    lane_mbs[parts[2]] = $5
}
/^BenchmarkWireDrain\/wire=v2/ {
    wire_ns = $3
    wire_mbs = $5
}
/^BenchmarkStreamedRestore\/mode=streamed/ {
    restore_ns = $3
    restore_mbs = $5
}
END {
    printf "{\n"
    printf "  \"bench\": \"iod transport\",\n"
    printf "  \"wire_version\": 2,\n"
    printf "  \"drain_lanes\": {\n"
    for (i = 0; i < n_lanes; i++) {
        l = lanes[i]
        printf "    \"%s\": {\"ns_per_op\": %s, \"mb_per_s\": %s}%s\n", \
            l, lane_ns[l], lane_mbs[l], (i < n_lanes - 1 ? "," : "")
    }
    printf "  },\n"
    printf "  \"wire_drain\": {\n"
    printf "    \"v2\": {\"ns_per_op\": %s, \"mb_per_s\": %s},\n", wire_ns, wire_mbs
    printf "    \"v1_baseline_mb_per_s\": %s\n", baseline
    printf "  },\n"
    printf "  \"restore\": {\n"
    printf "    \"streamed\": {\"ns_per_op\": %s, \"mb_per_s\": %s}\n", restore_ns, restore_mbs
    printf "  },\n"
    mono = "true"
    for (i = 1; i < n_lanes; i++)
        if (lane_ns[lanes[i]] + 0 >= lane_ns[lanes[i-1]] + 0) mono = "false"
    printf "  \"drain_monotonic\": %s\n", mono
    printf "}\n"
}' > BENCH_iod.json

cat BENCH_iod.json

if ! grep -q '"drain_monotonic": true' BENCH_iod.json; then
    echo "bench_iod.sh: drain throughput is NOT monotonic in lane count" >&2
    exit 1
fi
echo "bench_iod.sh: monotonic lanes confirmed"
