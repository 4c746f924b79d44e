package main

import (
	"bytes"
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"ndpcr/internal/gateway"
)

// toy shrinks a workload to smoke-test size: the same stack and code path,
// 2 rounds of 2 operations per client on at most 256 KiB, one set-up, and a
// paced store that does not sleep. Nothing here asserts on wall-clock time.
func toy(w workload) workload {
	w.perRound = 2
	w.payload = min(w.payload, 256<<10)
	return w
}

func toyRun(t *testing.T, w workload, seed uint64, traced bool) result {
	t.Helper()
	res, err := run(toy(w), runOpts{
		seed: seed, rounds: 2, traced: traced, sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s (traced=%v): correct=%v attempted=%d failed=%d", w.name, traced, res.correct, res.attempted, res.failed)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, label string, got []metric, want []contractMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics emitted, BENCHMARK.json declares %d", label, len(got), len(want))
	}
	for i, m := range got {
		if m.name != want[i].Name || m.unit != want[i].Unit {
			t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json declares %s [%s]", label, i, m.name, m.unit, want[i].Name, want[i].Unit)
		}
		if !nameRE.MatchString(m.name) || m.unit == "" {
			t.Errorf("%s: bad metric name %q or empty unit %q", label, m.name, m.unit)
		}
	}
}

// TestEveryWorkloadMatchesContract runs every workload at toy size, untraced
// and traced, and holds the emitted names and units to BENCHMARK.json.
func TestEveryWorkloadMatchesContract(t *testing.T) {
	c, err := loadContract("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, c.Workloads[i].Name, w.name)
		}
		checkMetrics(t, w.name, toyRun(t, w, 7, false).metrics, c.EndToEnd)
		layers := toyRun(t, w, 7, true)
		checkMetrics(t, w.name+" traced", layers.metrics, c.PerLayer)
		if amp, _ := layers.metric("shardstore.write_amp"); amp != replicas {
			t.Errorf("%s: shardstore.write_amp = %v, want %d", w.name, amp, replicas)
		}
		// Every block passes the traced codec once on the way out and once on
		// the way back (calls_per_ckpt averages the two phases); a restore that
		// looked up another codec than the wrapper would halve this.
		wantCalls := 0.0
		if w.gzip {
			wantCalls = math.Ceil(float64(toy(w).payload) / float64(w.block))
		}
		if calls, _ := layers.metric("compress.calls_per_ckpt"); calls != wantCalls {
			t.Errorf("%s: compress.calls_per_ckpt = %v, want %v", w.name, calls, wantCalls)
		}
		for _, name := range []string{"trace.save_sum_error_share", "trace.restore_sum_error_share"} {
			if share, _ := layers.metric(name); share != 0 {
				t.Errorf("%s: %s = %v, want every span placed where its key says", w.name, name, share)
			}
		}
	}
	// The driver's contract: every bound in (0, 0.25], setup_s among the
	// largest.
	var setupBound, largest float64
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		largest = max(largest, m.Bound)
	}
	if setupBound != largest {
		t.Errorf("setup_s has bound %v, the largest is %v", setupBound, largest)
	}
}

func TestVerifyRejectsCorruption(t *testing.T) {
	p := genPayloads(3, 4096)[0]
	want := savedCkpt{rank: 0, id: 5}
	good := gateway.Checkpoint{ID: 5, Level: "io", Data: bytes.Clone(p.data)}
	if err := verify(good, want, p); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}
	bad := good
	bad.Data = bytes.Clone(p.data)
	bad.Data[1000] ^= 1
	if err := verify(bad, want, p); !errors.Is(err, errCorrupt) {
		t.Errorf("one flipped bit: got %v, want errCorrupt", err)
	}
	bad = good
	bad.Data = good.Data[:len(good.Data)-8]
	if err := verify(bad, want, p); !errors.Is(err, errCorrupt) {
		t.Errorf("truncated checkpoint: got %v, want errCorrupt", err)
	}
	bad = good
	bad.Level = "local"
	if err := verify(bad, want, p); err == nil {
		t.Error("a restore served from local NVM passed as a cold restore")
	}
	bad = good
	bad.ID = 6
	if err := verify(bad, want, p); err == nil {
		t.Error("a different checkpoint than the one asked for passed")
	}
}

// TestSeedDeterminesInputsAndCounts: the seed generates the inputs and
// nothing else, so one seed gives the same bytes and the same counts.
func TestSeedDeterminesInputsAndCounts(t *testing.T) {
	a, b := genPayloads(11, 64<<10), genPayloads(11, 64<<10)
	other := genPayloads(12, 64<<10)
	for i := range a {
		if !bytes.Equal(a[i].data, b[i].data) || a[i].crc != b[i].crc {
			t.Fatalf("payload %d differs between two generations from one seed", i)
		}
		if bytes.Equal(a[i].data, other[i].data) {
			t.Errorf("payload %d is the same under another seed", i)
		}
		if i > 0 && bytes.Equal(a[i].data, a[0].data) {
			t.Errorf("payloads 0 and %d of one seed are not distinct", i)
		}
	}

	w, _ := workloadByName("bulk_gzip")
	for _, traced := range []bool{false, true} {
		first, second := toyRun(t, w, 11, traced), toyRun(t, w, 11, traced)
		for i, m := range first.metrics {
			exact := m.name == "stored_bytes_per_byte" || m.name == "compress.ratio" ||
				strings.HasSuffix(m.name, "_calls_per_ckpt")
			if exact && m.value != second.metrics[i].value {
				t.Errorf("%s: %v then %v with one seed", m.name, m.value, second.metrics[i].value)
			}
		}
	}
}

func TestIntervalArithmetic(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	if got := unionLen([]interval{iv(0, 10), iv(5, 15), iv(20, 30), iv(22, 25)}); got != 25 {
		t.Errorf("unionLen = %d, want 25", got)
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("unionLen(nil) = %d", got)
	}
	// Children overlapping each other and sticking out of the parent.
	if got := selfTime(iv(10, 110), []interval{iv(0, 30), iv(20, 40), iv(100, 200), iv(300, 400)}); got != 60 {
		t.Errorf("selfTime = %d, want 60", got)
	}

	sp := func(l layer, a, b int) span { return span{layer: l, start: time.Duration(a), end: time.Duration(b)} }
	// A save as the client sees it, 0..100: handler 10..90 reading the body
	// 10..30, compress 30..70, a shardstore write 50..80 with one iod call
	// 52..78 and its backing call 60..70, and a drain the handler did not
	// wait for, 92..99.
	got := attribute(iv(0, 100), []span{
		sp(layerGateway, 10, 90), sp(layerHTTP, 10, 30), sp(layerCompress, 30, 70),
		sp(layerShard, 50, 80), sp(layerIod, 52, 78), sp(layerIostore, 60, 70),
		sp(layerShard, 92, 99),
	})
	want := [numBuckets]time.Duration{
		bucketHTTP:     10 + 10, // before and after the handler
		bucketNode:     20 + 10, // the body read 10..30 is the node's, 80..90
		bucketCompress: 20 + 10, // alone 30..50, half of 50..70
		bucketShard:    1 + 2,   // half of 50..52, 78..80
		bucketIod:      4 + 8,   // half of 52..60, 70..78
		bucketIostore:  5,       // half of 60..70
	}
	if got != want {
		t.Errorf("attribute = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 100 {
		t.Errorf("buckets sum to %d, want the operation's 100", sum)
	}
}

// TestMisplacedShare: the cross-check reads span keys, which the time-based
// attribution does not, so it sees a span claimed by the wrong operation and
// a span no operation claimed.
func TestMisplacedShare(t *testing.T) {
	b := &bench{}
	job := jobKey
	ops := []clientOp{
		{kind: opLoad, id: 1, start: 0, end: 100},
		{kind: opLoad, id: 2, start: 100, end: 200},
	}
	sp := func(l layer, id uint64, a, b int) span {
		return span{layer: l, kind: opGet, job: job, id: id, start: time.Duration(a), end: time.Duration(b), op: -1}
	}
	spans := []span{
		sp(layerGateway, 1, 5, 95), sp(layerShard, 1, 10, 50),
		sp(layerGateway, 2, 105, 195), sp(layerShard, 2, 110, 150),
		sp(layerCompress, 0, 150, 190), // unkeyed: placed by time alone, cannot be wrong
	}
	window := []interval{{0, 300}}
	b.attributeSpans(ops, spans)
	if got := b.misplacedShare(ops, spans, window); got != 0 {
		t.Errorf("consistent spans: misplaced share %v, want 0", got)
	}
	// A read of checkpoint 1 that ran while checkpoint 2 was being restored,
	// and a read after the last operation that nobody waited for.
	spans = append(spans, sp(layerShard, 1, 160, 180), sp(layerShard, 2, 210, 240))
	total := 90 + 40 + 90 + 40 + 40 + 20 + 30
	b.attributeSpans(ops, spans)
	if got, want := b.misplacedShare(ops, spans, window), float64(20+30)/float64(total); got != want {
		t.Errorf("misplaced share %v, want %v", got, want)
	}
	// The same late read is the drain behind an async ack when the workload
	// is async and the checkpoint was acked: background by design.
	b.w.async = true
	ops[1].kind = opSave
	if got, want := b.misplacedShare(ops, spans, window), float64(20)/float64(total); got != want {
		t.Errorf("async: misplaced share %v, want %v", got, want)
	}
}

// TestQuietestThird: rates and latencies come from the third of the rounds
// in which the phase ran fastest, however many rounds there are, and the
// rate is that of those rounds taken together.
func TestQuietestThird(t *testing.T) {
	var rounds []roundStats
	for n, ms := range []int{130, 100, 150, 110, 140, 120, 160} { // one 1 MB save phase each
		rounds = append(rounds, roundStats{n: n, bytes: 1e6, save: phaseCost{wall: time.Duration(ms) * time.Millisecond}})
	}
	quiet := quietest(rounds, saveSeconds)
	if len(quiet) != 3 || quiet[0].n != 1 || quiet[1].n != 3 || quiet[2].n != 5 {
		t.Fatalf("quietest third of 7 rounds = %+v, want rounds 1, 3, 5", quiet)
	}
	if got, want := mbps(quiet, saveSeconds), 3/0.33; math.Abs(got-want) > 1e-9 {
		t.Errorf("mbps = %v, want %v", got, want)
	}
	pick := among(quiet)
	for _, rs := range rounds {
		if pick(rs) != (rs.n%2 == 1) {
			t.Errorf("round %d picked: %v", rs.n, pick(rs))
		}
	}
	if got := quietest(rounds[:2], saveSeconds); len(got) != 1 || got[0].n != 1 {
		t.Errorf("quietest of 2 rounds = %+v, want round 1 alone", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
