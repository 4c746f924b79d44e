#!/usr/bin/env bash
# Pre-PR gate: formatting, vet, and race-stressed tests for the packages
# with the most concurrency (cluster coordination, node runtime, erasure
# coding, metrics collection, the iod network service, the codecs), and the
# paper driver's output held to experiments_full.txt. Run from the repo root
# before sending a PR; the full suite is still `go test ./...`.
set -euo pipefail

cd "$(dirname "$0")/.."

# The gate leaves the worktree as it found it: a step that rewrites a tracked
# file (or drops an untracked one) fails here, not in the next PR's diff.
worktree_before=$(git status --porcelain)

unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

# Tier-1 waits on what it can observe, never on the clock: a test that sleeps
# passes or fails with the host's load. The bench module measures time and
# is exempt.
sleepers=$(grep -rl --include='*_test.go' 'time\.Sleep(' . | grep -v '^\./cmd/ndpcr-bench/' || true)
if [[ -n "$sleepers" ]]; then
    echo "check.sh: time.Sleep in tests outside cmd/ndpcr-bench:" >&2
    echo "$sleepers" >&2
    exit 1
fi

go test -race ./internal/erasure/... ./internal/metrics/... ./internal/faultinject/...

# The block pool's free lists, and the trims that shrink them, are the
# package's own shared state.
go test -race -count=20 -cpu 1 ./internal/blockpool/...

# The packages whose concurrency is the riskiest in the tree (membership
# drain controller and mover, durability tracker and async commits, NVM
# admission, the QoS drain scheduler, the elastic restore planner, the iod
# lanes and their corruption recovery) run twice under the race detector,
# whole packages at a time: a -run regex silently stops matching the day a
# test is renamed. Cluster and gateway hold the live-tier scenarios: a
# backend killed mid-drain and repaired, a join and a decommission
# mid-drain, elastic N->M restart with a poisoned line, async acks across
# a backend death, a tenant swarm, and the fault-schedule fallback walk.
go test -race -count=2 ./internal/cluster/... ./internal/node/... ./internal/iod/... \
    ./internal/shardstore/... ./internal/gateway/...

# The iod lanes hand every reply from a reader goroutine to a waiting caller,
# and the shard tier's controller hands membership changes to its waiters
# through events: one core is the schedule most likely to show a lost
# wake-up between them.
go test -race -count=3 -cpu 1 ./internal/iod/... ./internal/shardstore/...

# The NDP engine's tests, and those of the ordered block pipeline its drain
# and the restore share, wait on what they can observe — a parked waiter, a
# pinned drain candidate, a parked store write, a parked consumer — never on
# a sleep: twenty runs on one core hold them to it.
go test -race -count=20 -cpu 1 ./internal/node/ndp/...

# The node's restore drives that pipeline: its fetch-ahead, fetch-window
# and abort tests count parked fetches and a parked consumer, on one core.
go test -race -count=5 -cpu 1 ./internal/node

# A cut-through save's drain reads a reservation while its writer fills it,
# and a body cut off mid-stream releases the region the drain reads: on one
# core, a produce that reads past the fill watermark shows up as a race, and
# a region released under a reader as a 0xDB byte in what the store holds.
go test -race -count=20 -cpu 1 -run 'TestCutThrough' ./internal/gateway ./internal/node

# The gateway client runs each exchange on the caller's goroutine, and a
# ctx's cancel hook sets the connection's deadline from another: on one
# core, a canceled exchange whose connection went back to the idle list, or
# an idle connection the server closed and the client reused, fails here.
go test -race -count=20 -cpu 1 -run 'TestClient' ./internal/gateway

# The NVM device's admission tests wait on parked committers the same way,
# and its region-lifetime tests run with retired regions poisoned.
go test -race -count=20 -cpu 1 ./internal/node/nvm/...

# The in-memory store releases a block to the pool when a rewrite replaces it
# or a Delete removes its object, while GetBlock may be copying it out: its
# block-lifetime test runs with released blocks poisoned, on one core.
go test -race -count=20 -cpu 1 ./internal/node/iostore/...

# The codecs are called by a restore's window of workers and the NDP's
# compress workers at once, over the pooled deflate encoder (hash table,
# sequences, Huffman scratch), the pooled lz4 table and the pooled inflate
# tables.
go test -race ./internal/compress/...

# inflate reads bytes off the store: a 10 s smoke of its differential and
# round-trip fuzz targets against compress/flate (the long runs are per PR).
# The minimiser is capped: by default it may spend a minute on one new input.
go test -run '^$' -fuzz FuzzDecodeAgainstFlate -fuzztime 10s -fuzzminimizetime 1s ./internal/compress/inflate
go test -run '^$' -fuzz FuzzRoundTrip -fuzztime 10s -fuzzminimizetime 1s ./internal/compress/inflate
# deflate writes what both of those readers must read back: the same smoke
# for its encoder-side target (any input → both readers return it).
go test -run '^$' -fuzz FuzzEncode -fuzztime 10s -fuzzminimizetime 1s ./internal/compress/deflate

# inflate's fast paths (matches copied by words, the next symbol's entry
# kept across refills) are invisible in its output: a ratio smoke of its
# single-core rate on what the drain stores, deflate.Encode streams of the
# bench payload, against compress/flate's reader on the same streams. Five
# interleaved rounds, medians, a same-host ratio (about 2.7x on a 2-vCPU
# host); not under -race, which slows the two readers unequally.
rates=$(for round in 1 2 3 4 5; do
    go test -run '^$' -bench 'Decode/bench/deflate.Encode/(flate|sized)$' -benchtime 20x -cpu 1 ./internal/compress/inflate
done)
median_rate() {
    echo "$rates" | awk -v row="$1" '$1 ~ row { for (i = 2; i < NF; i++) if ($(i+1) == "MB/s") print $i }' | sort -n | sed -n 3p
}
flate_rate=$(median_rate '/flate$') inflate_rate=$(median_rate '/sized$')
if ! awk -v a="$inflate_rate" -v b="$flate_rate" 'BEGIN { exit !(a > 0 && b > 0 && a >= 2.0 * b) }'; then
    echo "check.sh: inflate decodes deflate.Encode streams at $inflate_rate MB/s, compress/flate at $flate_rate: want at least 2.0x" >&2
    exit 1
fi
echo "check.sh: inflate $inflate_rate MB/s vs compress/flate $flate_rate MB/s on deflate.Encode streams"

# deflate's match finder (three probes per load, a five-byte hash) shows in
# no output but its rate: the same smoke of its single-core rate on the bench
# payload against compress/flate's level 1, the gzip(1) writer it replaced.
# Five interleaved rounds, medians, a same-host ratio (1.75-2.38x over fifteen
# runs on a 2-vCPU host, median 2.05x; the single-probe finder before it read
# 1.59-1.77x over eight); not under -race.
rates=$(for round in 1 2 3 4 5; do
    go test -run '^$' -bench 'Encode/bench/(flate|deflate)$' -benchtime 20x -cpu 1 ./internal/compress/deflate
done)
flate_rate=$(median_rate '/flate$') deflate_rate=$(median_rate '/deflate$')
if ! awk -v a="$deflate_rate" -v b="$flate_rate" 'BEGIN { exit !(a > 0 && b > 0 && a >= 1.7 * b) }'; then
    echo "check.sh: deflate encodes the bench payload at $deflate_rate MB/s, compress/flate at $flate_rate: want at least 1.7x" >&2
    exit 1
fi
echo "check.sh: deflate $deflate_rate MB/s vs compress/flate $flate_rate MB/s on the bench payload"

# The iod codec reads frames any peer can send, on goroutines with no
# recover: the same smoke for its two targets (the request one also
# dispatches what it decodes to a store).
go test -run '^$' -fuzz FuzzDecodeRequestWire -fuzztime 10s -fuzzminimizetime 1s ./internal/iod
go test -run '^$' -fuzz FuzzDecodeResponseWire -fuzztime 10s -fuzzminimizetime 1s ./internal/iod

# A checkpoint's metadata map is read back off NVM, a partner and the store,
# and the restore acts on the rank, step and ID it decodes: the same smoke
# for its decoder (no panic, a refusal is ErrBadMetadata, an accepted map
# survives a re-encode).
go test -run '^$' -fuzz FuzzMetadataFromMap -fuzztime 10s -fuzzminimizetime 1s ./internal/node

# The gateway decodes two JSON documents it does not write: a restore body
# any tenant sends, sized into a plan (no panic; a 4xx/5xx or a plan within
# the rank bound, over an empty store), and the token file (no panic; what
# it accepts ValidateTenants accepts).
go test -run '^$' -fuzz FuzzRestoreRequest -fuzztime 10s -fuzzminimizetime 1s ./internal/gateway
go test -run '^$' -fuzz FuzzParseTenants -fuzztime 10s -fuzzminimizetime 1s ./internal/gateway
# It also reads the await header any tenant sends on any request, and the
# client the settled header off every reply: neither parser panics, the
# gateway answers only for IDs named in the request's own run, and the
# client keeps answers only for IDs it awaits in the reply's run.
go test -run '^$' -fuzz FuzzAwaitHeader -fuzztime 10s -fuzzminimizetime 1s ./internal/gateway
go test -run '^$' -fuzz FuzzSettledHeader -fuzztime 10s -fuzzminimizetime 1s ./internal/gateway

# Allocation budgets of the HTTP save/load path and of a restore over a
# loopback iod server, raw and through gzip (counts; skipped under -race
# above): a whole-object buffer, a codec buffer grown from nil or a block
# buffer that stopped going back to the pool fails here, not in the next bench.
go test -run AllocBudget ./internal/gateway ./internal/iod

# The benchmark is a module of its own (cmd/ndpcr-bench/go.mod), invisible
# to ./... above: build and test it here so an internal-API change that
# breaks it fails the gate, not the next benchmark run.
(cd cmd/ndpcr-bench && go vet . && go test .)

# Live compression study (Small mini-apps): ends with a PASS/FAIL line per
# adjacent pair of Table 2's compress-speed order, lz4(1) > gzip(1) >
# gzip(6) >> bwz, lzr, as ratios of the run's own averages; a FAIL exits 1.
go run ./cmd/ndpcr-experiments -quick -live table2 > /dev/null
echo "check.sh: live table2 speed order green"

# The paper side: every table and figure the model and simulator reproduce,
# regenerated (about 10 s) and held byte for byte to the committed record.
if ! go run ./cmd/ndpcr-experiments all | diff - experiments_full.txt >&2; then
    echo "check.sh: ndpcr-experiments all no longer prints experiments_full.txt (diff above)." >&2
    echo "check.sh: if the move is meant, regenerate it (go run ./cmd/ndpcr-experiments all > experiments_full.txt) and say why in EXPERIMENTS.md" >&2
    exit 1
fi
echo "check.sh: ndpcr-experiments all matches experiments_full.txt"

if [[ "$(git status --porcelain)" != "$worktree_before" ]]; then
    echo "check.sh: the gate changed the worktree:" >&2
    diff <(echo "$worktree_before") <(git status --porcelain) >&2 || true
    exit 1
fi

echo "check.sh: all green"

# The size every simplicity change is measured by, counted one way: non-test
# Go lines outside the bench module, and beside them the test lines.
echo "check.sh: non-test Go lines outside cmd/ndpcr-bench: $(find . -name '*.go' ! -name '*_test.go' ! -path './cmd/ndpcr-bench/*' | xargs cat | wc -l)"
echo "check.sh: test Go lines outside cmd/ndpcr-bench: $(find . -name '*_test.go' ! -path './cmd/ndpcr-bench/*' | xargs cat | wc -l)"
