package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"ndpcr/internal/gateway"
	"ndpcr/internal/node/iostore"
)

// runOpts are the knobs of one run that are not the workload's.
type runOpts struct {
	seed    uint64
	seconds float64 // measure whole rounds until this much time has passed
	rounds  int     // when > 0, measure exactly this many rounds instead (tests)
	traced  bool
	sleep   func(time.Duration) // the paced store's sleep
	spans   string              // traced runs: also dump the spans here
}

type metric struct {
	name    string
	value   float64
	unit    string
	samples int // sample count behind a percentile, 0 where it has no meaning
}

type result struct {
	attempted int
	failed    int
	correct   bool
	metrics   []metric
}

func (r result) metric(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// clientOp is one request as the application sees it: sent → answer read.
type clientOp struct {
	kind       opKind
	rank       int
	id         uint64
	start, end time.Duration
}

func (o clientOp) interval() interval { return interval{o.start, o.end} }

type savedCkpt struct {
	rank    int
	id      uint64
	payload int
}

// runName is the run every checkpoint of the benchmark belongs to, and
// jobKey what the stores below the gateway call it.
const runName = "c0"

var jobKey = gateway.JobKey(namespace, runName)

// client is the closed-loop load generator. There is one, whatever the
// workload (see workloads): it sends its next request when the previous one
// has been answered.
type client struct {
	save    *gateway.Client
	restore *gateway.Client
	nextID  []uint64 // per session: the ID the next save must be given
	pending []uint64 // per session: async-acked ID not yet known store-durable
	seq     int      // payload rotation
	saved   []savedCkpt
	ops     []clientOp
}

// phaseCost is what one timed phase cost the process.
type phaseCost struct {
	wall    time.Duration
	cpu     float64 // user+system seconds
	alloc   uint64  // bytes allocated
	mallocs uint64
	gcCPU   float64 // seconds of the above spent in the collector
	heap    uint64  // heap in use at the end
}

func (c *phaseCost) add(o phaseCost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.alloc += o.alloc
	c.mallocs += o.mallocs
	c.gcCPU += o.gcCPU
	if o.heap > c.heap {
		c.heap = o.heap
	}
}

type phaseProbe struct {
	start time.Time
	cpu   float64
	mem   runtime.MemStats
	gcCPU float64
}

func processCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// beginPhase collects garbage and reads the counters outside the timer.
func beginPhase() *phaseProbe {
	runtime.GC()
	p := &phaseProbe{cpu: processCPU(), gcCPU: gcCPUSeconds()}
	runtime.ReadMemStats(&p.mem)
	p.start = time.Now()
	return p
}

func (p *phaseProbe) end() phaseCost {
	c := phaseCost{wall: time.Since(p.start)}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.cpu = processCPU() - p.cpu
	c.gcCPU = gcCPUSeconds() - p.gcCPU
	c.alloc = mem.TotalAlloc - p.mem.TotalAlloc
	c.mallocs = mem.Mallocs - p.mem.Mallocs
	c.heap = mem.HeapInuse
	return c
}

// roundStats is one round: a save phase, a restore phase and what the
// round left in the backing stores.
type roundStats struct {
	n          int // index in the run
	traced     bool
	bytes      int64 // logical bytes saved, and restored again
	ckpts      int
	save       phaseCost
	restore    phaseCost
	saveWin    interval // the timed phases as offsets from the epoch, like spans
	restoreWin interval
	restoreOps time.Duration // summed over the restores, verification left out
	stored     int64
	firstOp    int // index of the round's first client op
}

type bench struct {
	w        workload
	opts     runOpts
	st       *stack
	epoch    time.Time
	payloads []payload
	c        *client

	tracedSleep int64              // paced sleep asked for during traced rounds, ns
	baseline    map[string]float64 // registry counters when measuring began

	attempted int
	failed    int
	failures  []string
}

func (b *bench) now() time.Duration { return time.Since(b.epoch) }

// registryCounters are the series of the stack's existing ndpcr_* registry
// the per-layer metrics read; counted is how far one moved while measuring.
var registryCounters = []string{
	"ndpcr_node_streamed_restores_total",
	`ndpcr_node_restores_total{level="io"}`,
	"ndpcr_nvm_admission_waits_total",
	"ndpcr_ndp_drain_retries_total",
	"ndpcr_shardstore_read_failovers_total",
	"ndpcr_shardstore_replica_errors_total",
	"ndpcr_iod_call_retries_total",
	"ndpcr_iod_lane_waits_total",
}

func (b *bench) counted(name string) float64 { return b.st.counter(name) - b.baseline[name] }

// setUp boots a stack, generates the payloads and runs one full untimed
// round, so sessions exist, pools are dialled and arenas are filled before
// anything is timed.
func setUp(w workload, opts runOpts) (*bench, error) {
	st, err := newStack(w, opts.traced, opts.sleep)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, opts: opts, st: st, epoch: time.Now()}
	if st.rec != nil {
		b.epoch = st.rec.epoch
	}
	b.payloads = genPayloads(opts.seed, w.payload)
	b.c = &client{
		save:    gateway.NewClient(st.saveURL, tenantToken),
		restore: gateway.NewClient(st.restoreURL, tenantToken),
		nextID:  make([]uint64, w.sessions),
		pending: make([]uint64, w.sessions),
	}
	for s := range b.c.nextID {
		b.c.nextID[s] = 1
	}
	if _, err := b.round(false); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	return b, nil
}

// fail counts one failed or refused operation.
func (b *bench) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, err.Error())
	}
	return err
}

var errCorrupt = errors.New("restored checkpoint differs from what was saved")

// verify is the correctness gate of a restore: the right checkpoint, from
// the I/O level (the restore gateway has no NVM copy), byte-identical.
func verify(ck gateway.Checkpoint, want savedCkpt, p payload) error {
	if ck.ID != want.id {
		return fmt.Errorf("asked for checkpoint %d, got %d", want.id, ck.ID)
	}
	if ck.Level != "io" {
		return fmt.Errorf("checkpoint %d served from level %q, want io", ck.ID, ck.Level)
	}
	if len(ck.Data) != len(p.data) || crc32.Checksum(ck.Data, castagnoli) != p.crc {
		return fmt.Errorf("checkpoint %d: %w", ck.ID, errCorrupt)
	}
	return nil
}

// waitDurable blocks until an async-acked checkpoint is store-durable.
func (b *bench) waitDurable(ctx context.Context, rank int) error {
	c := b.c
	id := c.pending[rank]
	if id == 0 {
		return nil
	}
	c.pending[rank] = 0
	b.attempted++
	start := b.now()
	d, err := c.save.Durability(ctx, namespace, runName, rank, id, "store")
	c.ops = append(c.ops, clientOp{opDurable, rank, id, start, b.now()})
	if err != nil {
		return b.fail("durability of %d: %w", id, err)
	}
	if d.Failed || !d.Durable("store") {
		return b.fail("acked checkpoint %d did not reach the store (failed=%v %s)", id, d.Failed, d.Failure)
	}
	return nil
}

// savePhase is a round's saves. An async client
// cycles over its sessions and, before it reuses one, waits for that
// session's previous checkpoint to be store-durable: the NDP engine drains
// only the newest resident checkpoint of a session, so back-to-back async
// saves on one session would be skipped by design and could never be
// loaded cold. The phase ends when everything acked is store-durable.
func (b *bench) savePhase(ctx context.Context) error {
	c := b.c
	c.saved = c.saved[:0]
	for i := 0; i < b.w.perRound; i++ {
		rank := i % b.w.sessions
		if err := b.waitDurable(ctx, rank); err != nil {
			return err
		}
		pi := c.seq % len(b.payloads)
		c.seq++
		save := c.save.Save
		if b.w.async {
			save = c.save.SaveAsync
		}
		b.attempted++
		start := b.now()
		id, err := save(ctx, namespace, runName, rank, i, b.payloads[pi].data)
		c.ops = append(c.ops, clientOp{opSave, rank, id, start, b.now()})
		if err != nil {
			return b.fail("save: %w", err)
		}
		if id != c.nextID[rank] {
			return b.fail("rank %d: checkpoint IDs not dense: got %d, want %d", rank, id, c.nextID[rank])
		}
		c.nextID[rank]++
		if b.w.async {
			c.pending[rank] = id
		}
		c.saved = append(c.saved, savedCkpt{rank, id, pi})
	}
	for rank := range c.pending {
		if err := b.waitDurable(ctx, rank); err != nil {
			return err
		}
	}
	return nil
}

// restorePhase loads everything the round saved through the restore
// gateway; verification runs between operations, outside their timers.
func (b *bench) restorePhase(ctx context.Context) (time.Duration, error) {
	c := b.c
	var busy time.Duration
	for _, s := range c.saved {
		b.attempted++
		start := b.now()
		ck, err := c.restore.Load(ctx, namespace, runName, s.rank, s.id)
		end := b.now()
		c.ops = append(c.ops, clientOp{opLoad, s.rank, s.id, start, end})
		busy += end - start
		if err != nil {
			return busy, b.fail("load %d: %w", s.id, err)
		}
		if err := verify(ck, s, b.payloads[s.payload]); err != nil {
			return busy, b.fail("%w", err)
		}
	}
	return busy, nil
}

// round saves, restores cold, measures what is stored and deletes.
func (b *bench) round(traced bool) (roundStats, error) {
	ctx := context.Background()
	c := b.c
	rs := roundStats{traced: traced, firstOp: len(c.ops)}
	if b.st.rec != nil {
		b.st.rec.enabled.Store(traced)
		defer b.st.rec.enabled.Store(false)
	}
	if traced {
		slept := b.st.slept.Load()
		defer func() { b.tracedSleep += b.st.slept.Load() - slept }()
	}

	probe := beginPhase()
	rs.saveWin.start = b.now()
	err := b.savePhase(ctx)
	rs.save, rs.saveWin.end = probe.end(), b.now()
	if err != nil {
		return rs, err
	}

	probe = beginPhase()
	rs.restoreWin.start = b.now()
	rs.restoreOps, err = b.restorePhase(ctx)
	rs.restore, rs.restoreWin.end = probe.end(), b.now()
	if err != nil {
		return rs, err
	}

	rs.ckpts = len(c.saved)
	rs.bytes = int64(rs.ckpts) * int64(b.w.payload)
	keys := make([]iostore.Key, len(c.saved))
	for i, s := range c.saved {
		keys[i] = iostore.Key{Job: jobKey, Rank: s.rank, ID: s.id}
	}
	if rs.stored, err = b.st.storedBytes(keys); err != nil {
		return rs, fmt.Errorf("measuring stored bytes: %w", err)
	}
	if b.st.rec != nil {
		b.st.rec.enabled.Store(false) // deletes are not part of any metric
	}
	for _, s := range c.saved {
		if err := c.save.Delete(ctx, namespace, runName, s.rank, s.id); err != nil {
			return rs, fmt.Errorf("delete %d: %w", s.id, err)
		}
	}
	return rs, nil
}

// setupsPerRun is how often a run sets up, each time on a fresh stack. The
// first set-up of a process takes 1.2-1.5x as long as the later ones (cold
// heap): it is the warm-up and is not reported. setup_s is the median of
// the others, so one of them may fall into a disturbed moment of the host
// without moving it. The measured stack is the last one.
const setupsPerRun = 4

// quietShare is the share of a run's rounds its rates and latencies are
// taken from: the third in which the phase in question ran fastest. The
// reference host is a small guest on a shared machine. Its neighbours take
// memory bandwidth away for 30-120 s at a time, every few minutes (a 128 MiB
// copy takes 16 ms, then 24), and every round inside such a stretch is
// 10-20 % slower. A median over all rounds flips between the two states
// from run to run; the fastest third stays in the quiet one as long as a
// third of the run was quiet (over 35 windows of 26 s cut from two 12-minute
// runs: spread of save_mbps 7 % by median, 5 % by fastest third). Being a
// quantile, it does not depend on how many rounds fit into a run. It cannot
// help when a whole run is slow, and the host has such minutes too.
const quietShare = 3

// run is the whole benchmark run for one workload: set up (several times,
// keeping the last stack), measure rounds, tear down, compute metrics.
func run(w workload, opts runOpts) (result, error) {
	var b *bench
	var setupTimes []float64
	for i := 0; i < setupsPerRun; i++ {
		if b != nil {
			b.st.close()
			b = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if b, err = setUp(w, opts); err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if i > 0 {
			setupTimes = append(setupTimes, time.Since(start).Seconds())
		}
	}
	defer b.st.close()

	// The warm-up round's operations are not measured.
	b.c.ops = b.c.ops[:0]
	b.attempted, b.failed = 0, 0
	b.baseline = make(map[string]float64, len(registryCounters))
	for _, name := range registryCounters {
		b.baseline[name] = b.st.counter(name)
	}

	var rounds []roundStats
	var runErr error
	began := time.Now()
	for n := 0; ; n++ {
		if opts.rounds > 0 {
			if n >= opts.rounds {
				break
			}
		} else if spent := time.Since(began).Seconds(); n >= quietShare && spent+spent/float64(2*n) >= opts.seconds {
			break // another round would end further from --seconds than this
		}
		// A traced run traces every other round and times both kinds, which
		// is what trace.*_overhead_share compares.
		rs, err := b.round(opts.traced && n%2 == 0)
		if err != nil {
			runErr = err
			break
		}
		rs.n = n
		rounds = append(rounds, rs)
	}

	res := result{attempted: b.attempted, failed: b.failed, correct: b.failed == 0}
	if runErr != nil {
		if b.failed == 0 {
			return res, runErr // the harness broke, not an operation
		}
		return res, fmt.Errorf("%d of %d operations failed: %v", b.failed, b.attempted, b.failures)
	}
	if opts.traced {
		res.metrics = b.perLayerMetrics(rounds)
		if opts.spans != "" {
			if err := writeSpans(opts.spans, b.st.rec.spans); err != nil {
				return res, err
			}
		}
	} else {
		res.metrics = b.endToEndMetrics(rounds, median(setupTimes))
	}
	return res, nil
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v, 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the nearest-rank quantile of v, 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[min(len(s)-1, max(0, int(math.Ceil(q*float64(len(s))))-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the client-seen latency of every op of one kind in the
// given rounds, in milliseconds.
func (b *bench) latencies(rounds []roundStats, kind opKind, pick func(roundStats) bool) []float64 {
	var out []float64
	for _, op := range b.opsOf(rounds, pick) {
		if op.kind == kind {
			out = append(out, ms(op.end-op.start))
		}
	}
	return out
}

// opsOf returns the client ops of the rounds pick selects.
func (b *bench) opsOf(rounds []roundStats, pick func(roundStats) bool) []clientOp {
	var out []clientOp
	for i, rs := range rounds {
		if !pick(rs) {
			continue
		}
		end := len(b.c.ops)
		if i+1 < len(rounds) {
			end = rounds[i+1].firstOp
		}
		out = append(out, b.c.ops[rs.firstOp:end]...)
	}
	return out
}

// saveSeconds is the wall time of a round's save phase, restoreSeconds the
// time its restores took, without the verification between them.
func saveSeconds(rs roundStats) float64 { return rs.save.wall.Seconds() }

func restoreSeconds(rs roundStats) float64 { return rs.restoreOps.Seconds() }

func perRound(rounds []roundStats, f func(roundStats) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, rs := range rounds {
		out[i] = f(rs)
	}
	return out
}

// quietest returns the 1/quietShare of the rounds (at least one) in which
// the phase seconds measures took the least time. Rounds are all one size.
func quietest(rounds []roundStats, seconds func(roundStats) float64) []roundStats {
	s := append([]roundStats(nil), rounds...)
	sort.SliceStable(s, func(i, j int) bool { return seconds(s[i]) < seconds(s[j]) })
	return s[:(len(s)+quietShare-1)/quietShare]
}

// mbps is the throughput of the given rounds taken together, in logical
// bytes: checkpoint bytes, never replica copies.
func mbps(rounds []roundStats, seconds func(roundStats) float64) float64 {
	var bytes int64
	var t float64
	for _, rs := range rounds {
		bytes += rs.bytes
		t += seconds(rs)
	}
	return float64(bytes) / 1e6 / t
}

// among picks the rounds of a subset, for latencies and opsOf.
func among(subset []roundStats) func(roundStats) bool {
	in := make(map[int]bool, len(subset))
	for _, rs := range subset {
		in[rs.n] = true
	}
	return func(rs roundStats) bool { return in[rs.n] }
}

// endToEndMetrics are what a user of the stack sees. A round is the epoch.
// Rates and latencies are those of the quietest third of the rounds, chosen
// per phase (see quietShare): the rate over those rounds together and the
// median of their operations. The two counts repeat in every round and are
// the median round's.
func (b *bench) endToEndMetrics(rounds []roundStats, setupS float64) []metric {
	saves := quietest(rounds, saveSeconds)
	restores := quietest(rounds, restoreSeconds)
	acks := b.latencies(rounds, opSave, among(saves))
	loads := b.latencies(rounds, opLoad, among(restores))
	return []metric{
		{"setup_s", setupS, "s", setupsPerRun - 1},
		{"save_mbps", mbps(saves, saveSeconds), "MB/s", len(saves)},
		{"save_ack_p50_ms", median(acks), "ms", len(acks)},
		{"restore_mbps", mbps(restores, restoreSeconds), "MB/s", len(restores)},
		{"restore_p50_ms", median(loads), "ms", len(loads)},
		{"stored_bytes_per_byte", median(perRound(rounds, func(rs roundStats) float64 {
			return float64(rs.stored) / float64(rs.bytes)
		})), "ratio", len(rounds)},
		{"alloc_bytes_per_byte", median(perRound(rounds, func(rs roundStats) float64 {
			return float64(rs.save.alloc+rs.restore.alloc) / (2 * float64(rs.bytes))
		})), "ratio", len(rounds)},
	}
}
