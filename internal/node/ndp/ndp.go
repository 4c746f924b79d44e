// Package ndp implements the near-data processor's drain engine (§4.2.2):
// a background worker coupled to the node's local NVM that moves committed
// checkpoints to global I/O, optionally compressing them on the way with a
// pool of NDP cores, overlapping compression with transmission by streaming
// fixed-size blocks to the store as they are produced. Its block stage,
// Ordered, is the one the host's streamed restore (§4.3) runs too: blocks
// produced on a bounded set of workers, consumed in order by the caller.
package ndp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/compress"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// Config parameterizes the engine.
type Config struct {
	// Job and Rank identify this node's checkpoints in the global store.
	Job  string
	Rank int

	// Device is the node-local NVM holding committed checkpoints.
	Device *nvm.Device
	// Store is the global I/O store.
	Store iostore.Backend

	// Codec compresses blocks before transmission; nil drains raw.
	Codec compress.Codec
	// Workers is the number of NDP cores compressing concurrently
	// (Table 3/4: 4 cores of gzip(1)). Minimum 1.
	Workers int
	// BlockSize is the streaming unit (§4.2.2's "small blocks"); zero
	// selects DefaultBlockSize.
	BlockSize int

	// OnError receives asynchronous drain errors; nil discards them.
	OnError func(error)

	// Tracker receives per-level durability watermarks as drains complete
	// (LevelStore) and failures exhaust their retries. Nil creates a
	// private tracker, owned (and closed) by the engine; a caller-supplied
	// tracker is shared — the node marks LevelNVM on commit and the
	// cluster marks partner/erasure levels — and the caller closes it.
	Tracker *Tracker

	// Gate, when non-nil, is acquired around every drain: the engine calls
	// it before picking a candidate (so no NVM lock is held while queued)
	// and invokes the returned release after the drain finishes. The
	// gateway uses it for QoS-weighted drain scheduling across tenants.
	// The context is canceled when the engine stops; a Gate error is
	// treated as "stopping" and ends the current drain sweep.
	Gate func(ctx context.Context) (release func(), err error)

	// Metrics, when non-nil, receives drain counters and per-phase
	// latency/byte histograms.
	Metrics *metrics.Registry
	// Timelines, when non-nil, receives per-checkpoint phase spans
	// (pause → read → compress → xmit → ack); the host records the
	// commit span into the same set, so a drained checkpoint's timeline
	// covers its whole trip through the pipeline.
	Timelines *metrics.TimelineSet
}

// Engine drains checkpoints in the background. Create with New, feed with
// Notify, stop with Close.
type Engine struct {
	cfg Config

	// window bounds how many store writes a drain keeps in flight at once —
	// the §4.2.2 backpressure: when the store (a network round trip on an
	// iod transport) falls behind, the sender blocks on it and compression
	// pauses behind the sender. It is bytes in flight, Window(sendBudget,
	// BlockSize): small blocks need depth to hide latency, large ones only
	// cost memory and CPU contention past a few. An iod client carries the
	// window on however many lanes it has.
	window int

	bell chan struct{}
	stop chan struct{}
	done chan struct{}

	// gate pauses NVM reads while the host commits (§4.2.1): the host
	// holds the write side for the duration of its NVM write.
	gate sync.RWMutex

	stopOnce sync.Once

	// tracker records per-level durability; ownTracker means the engine
	// created it and closes it on Close.
	tracker    *Tracker
	ownTracker bool
	// runCtx is canceled when the engine stops; it bounds Gate waits and
	// every drain.
	runCtx    context.Context
	runCancel context.CancelFunc

	// mu guards the hand-over of a stream (Stream) to the run loop.
	mu      sync.Mutex
	stream  *stream // claimed by Stream, not yet taken by the run loop
	stopped bool    // the run loop has exited: no stream is claimed again

	// Only the run goroutine touches attempts: consecutive drain failures
	// per ID. An ID that exhausts maxDrainAttempts — or is rolled back by
	// its owner — is failed on the tracker, the one record of IDs that must
	// never be drained or acknowledged (IDs are never reused, so it stays
	// tiny).
	attempts map[uint64]int

	// Metrics (nil when Config.Metrics is nil).
	mDrains       *metrics.Counter
	mDrainErrors  *metrics.Counter
	mSkipped      *metrics.Counter
	mInFlight     *metrics.Gauge
	mDrainSecs    *metrics.Histogram
	mPauseWait    *metrics.Histogram
	mCompressSecs *metrics.Histogram
	mStoreSecs    *metrics.Histogram
	mInBytes      *metrics.Histogram
	mOutBytes     *metrics.Histogram
	mRetries      *metrics.Counter
	mPermFailures *metrics.Counter
}

// The drain-failure policy, the one every engine runs: a failed drain is
// retried after drainRetryBackoff × the failures so far, and the
// maxDrainAttempts-th failure fails the ID on the tracker, so its waiters get
// ErrCheckpointFailed within a fraction of a second instead of waiting out
// their timeouts for a later commit's doorbell.
const (
	maxDrainAttempts  = 3
	drainRetryBackoff = 50 * time.Millisecond
)

// DefaultBlockSize is the streaming unit a zero Config.BlockSize selects.
const DefaultBlockSize = 1 << 20

// sendBudget is the drain's byte budget of store writes in flight (see
// Engine.window): 4 blocks at the default 1 MiB, 64 at 64 KiB.
const sendBudget = 4 << 20

// maxWindow caps a window in blocks. It binds only below 8 KiB blocks: it is
// a robustness bound, not a tuning knob — a restore's block size comes off
// the wire (OrigSize ÷ block count), and a reply of a million one-byte blocks
// must not start a million fetchers.
const maxWindow = 1024

// Window is how many blocks of blockSize bytes fit budget bytes in flight —
// the depth of a drain's send window and of a restore's fetch window: at
// least 4, so large blocks still overlap a few round trips, and at most
// maxWindow.
func Window(budget, blockSize int64) int {
	return int(min(max(budget/max(blockSize, 1), 4), maxWindow))
}

// New creates and starts an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Device == nil || cfg.Store == nil {
		return nil, errors.New("ndp: Device and Store are required")
	}
	if cfg.Job == "" {
		return nil, errors.New("ndp: Job is required")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	e := &Engine{
		cfg:      cfg,
		window:   Window(sendBudget, int64(cfg.BlockSize)),
		bell:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		attempts: make(map[uint64]int),
	}
	e.tracker = cfg.Tracker
	if e.tracker == nil {
		e.tracker = NewTracker()
		e.ownTracker = true
	}
	e.runCtx, e.runCancel = context.WithCancel(context.Background())
	if r := cfg.Metrics; r != nil {
		e.mDrains = r.Counter("ndpcr_ndp_drains_total", "checkpoints fully drained to global I/O")
		e.mDrainErrors = r.Counter("ndpcr_ndp_drain_errors_total", "drains aborted by an error")
		e.mSkipped = r.Counter("ndpcr_ndp_skipped_total", "stale checkpoints skipped by the newest-first policy")
		e.mInFlight = r.Gauge("ndpcr_ndp_inflight_drains", "drains currently in progress")
		e.mDrainSecs = r.Histogram("ndpcr_ndp_drain_seconds", "wall time per drain", metrics.UnitSeconds)
		e.mPauseWait = r.Histogram("ndpcr_ndp_pause_wait_seconds", "time excluded from NVM by host commits", metrics.UnitSeconds)
		e.mCompressSecs = r.Histogram("ndpcr_ndp_compress_seconds", "busy time per compressed block", metrics.UnitSeconds)
		e.mStoreSecs = r.Histogram("ndpcr_ndp_store_write_seconds", "busy time per block written to the store", metrics.UnitSeconds)
		e.mInBytes = r.Histogram("ndpcr_ndp_drain_in_bytes", "payload bytes entering a drain", metrics.UnitBytes)
		e.mOutBytes = r.Histogram("ndpcr_ndp_drain_out_bytes", "bytes shipped to global I/O per drain", metrics.UnitBytes)
		e.mRetries = r.Counter("ndpcr_ndp_drain_retries_total", "automatic drain retries scheduled after a failure")
		e.mPermFailures = r.Counter("ndpcr_ndp_drain_failures_total", fmt.Sprintf("drains permanently failed after %d attempts", maxDrainAttempts))
	}
	go e.run()
	return e, nil
}

// Notify rings the doorbell: a new checkpoint is available in NVM
// (§4.2.2's host-to-NDP notification). Never blocks.
func (e *Engine) Notify() {
	select {
	case e.bell <- struct{}{}:
	default:
	}
}

// stream is a checkpoint whose drain starts while its bytes are still
// arriving (a cut-through commit): its blocks come from a reservation the
// host is filling, each once the fill watermark has passed it.
type stream struct {
	id     uint64
	res    *nvm.Reservation
	data   []byte // res.Data when the stream was claimed
	meta   map[string]string
	unhold func() // set when the run loop takes the stream
}

// Stream claims the engine for checkpoint id, whose bytes are still arriving
// in r: the drain ships each block of r once r's writer has marked it
// Filled, and acknowledges only once r is published as id. The run loop takes
// a stream before any published checkpoint, as soon as the drain in progress,
// if any, ends, and holds r from then on (nvm.Reservation.Hold); r released
// or published before that was never read, and a published one drains as any
// commit. Stream reports false, claiming nothing, while another stream waits
// to be taken, once the engine has stopped, or when the engine drains under
// a Gate: a stream's drain waits on its writer, and a slot held through that
// wait is one no other engine sharing the gate can drain with. The caller
// keeps id off its ID sequence until r is published or released; releasing r
// stops the drain, which deletes what it shipped before Release returns. A
// drain that fails while r fills is reported and not retried: once
// published, id drains again from the doorbell like any commit.
func (e *Engine) Stream(id uint64, r *nvm.Reservation, meta map[string]string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stream != nil || e.stopped || e.cfg.Gate != nil {
		return false
	}
	e.stream = &stream{id: id, res: r, data: r.Data, meta: meta}
	e.Notify()
	return true
}

// next takes the run loop's next drain candidate: a claimed stream first,
// held, else the newest undrained checkpoint, locked (see nextUndrained).
func (e *Engine) next() (s *stream, id uint64, ok bool) {
	e.mu.Lock()
	s, e.stream = e.stream, nil
	e.mu.Unlock()
	if s != nil {
		if s.unhold, ok = s.res.Hold(); ok {
			return s, s.id, true
		}
	}
	id, ok = e.nextUndrained()
	return nil, id, ok
}

// dropStream refuses every later Stream and forgets a stream claimed but
// never taken: the run loop has exited.
func (e *Engine) dropStream() {
	e.mu.Lock()
	e.stream, e.stopped = nil, true
	e.mu.Unlock()
}

// Tracker exposes the engine's durability tracker: the single completion
// surface for drain progress. WaitDurableCtx(ctx, id, LevelStore) blocks
// until id (or anything newer) is fully on global I/O, and reports a
// discarded or permanently failed ID with its cause.
func (e *Engine) Tracker() *Tracker { return e.tracker }

// dead reports whether id was permanently failed on the tracker: rolled
// back by its owner (ErrDiscarded — the caller guarantees the ID is never
// committed again) or out of drain retries. The engine never starts
// draining a dead ID, and a drain already in flight deletes whatever it
// shipped instead of acknowledging.
func (e *Engine) dead(id uint64) bool { return e.tracker.FailedErr(id) != nil }

// PauseNVM blocks NDP reads of the NVM; the host calls it around its own
// commits so the full device bandwidth serves the application (§4.2.1).
func (e *Engine) PauseNVM() { e.gate.Lock() }

// ResumeNVM re-enables NDP reads.
func (e *Engine) ResumeNVM() { e.gate.Unlock() }

// Close stops the engine, waiting for the current drain to abort. It is
// safe to call multiple times. An engine-owned tracker is closed too,
// releasing parked waiters with ErrStopped; a shared tracker stays open
// for its owner (the node) to close.
func (e *Engine) Close() {
	e.stopOnce.Do(func() {
		close(e.stop)
		e.runCancel()
	})
	<-e.done
	if e.ownTracker {
		e.tracker.Close()
	}
}

func (e *Engine) run() {
	defer close(e.done)
	defer e.dropStream()
	for {
		select {
		case <-e.stop:
			return
		case <-e.bell:
		}
		// Drain until nothing newer remains; re-check after each drain so
		// a checkpoint committed mid-drain is picked up without another
		// doorbell edge.
		for {
			release, ok := e.acquireGate()
			if !ok {
				break // gate refused: the engine is stopping
			}
			s, id, ok := e.next() // holds an eviction lock on id, or s's hold
			if !ok {
				release()
				break
			}
			err := e.drain(id, s)
			release()
			if err != nil {
				// A drain aborted by engine shutdown is expected, not an
				// error worth surfacing.
				select {
				case <-e.stop:
				default:
					e.reportError(err)
					if e.retryOrFail(id, err) {
						continue // permanently failed: skip it, look for other work
					}
				}
				break // back to the doorbell (a scheduled retry rings it)
			}
			delete(e.attempts, id)
			select {
			case <-e.stop:
				return
			default:
			}
		}
	}
}

// acquireGate takes the configured drain-scheduling slot, if any. ok ==
// false means the gate refused (engine stopping) and the sweep should end.
func (e *Engine) acquireGate() (func(), bool) {
	if e.cfg.Gate == nil {
		return func() {}, true
	}
	release, err := e.cfg.Gate(e.runCtx)
	if err != nil {
		return nil, false
	}
	return release, true
}

// retryOrFail accounts one drain failure. It reports true when the ID was
// permanently failed (the sweep should continue to other work); false means a
// retry is scheduled via the doorbell.
func (e *Engine) retryOrFail(id uint64, cause error) bool {
	e.attempts[id]++
	n := e.attempts[id]
	if n >= maxDrainAttempts {
		delete(e.attempts, id)
		e.tracker.Fail(id, cause)
		if e.mPermFailures != nil {
			e.mPermFailures.Inc()
		}
		return true
	}
	if e.mRetries != nil {
		e.mRetries.Inc()
	}
	time.AfterFunc(drainRetryBackoff*time.Duration(n), e.Notify)
	return false
}

// nextUndrained picks the newest NVM checkpoint not yet on I/O — the
// "as frequently as possible" policy that skips stale intermediates when
// the drain is slower than the commit cadence (§6.2). On success the
// checkpoint is already pinned against eviction: a separate Latest-then-
// Lock sequence races with Put-driven circular-buffer eviction, which can
// reclaim the chosen checkpoint in the window between the two calls. The
// caller (drain) owns the lock and must release it.
func (e *Engine) nextUndrained() (uint64, bool) {
	latest, ok := e.cfg.Device.LatestLocked()
	if !ok {
		return 0, false
	}
	wm, drainedAny := e.tracker.Watermark(LevelStore)
	if (drainedAny && latest.ID <= wm) || e.dead(latest.ID) {
		if err := e.cfg.Device.Unlock(latest.ID); err != nil {
			e.reportError(fmt.Errorf("ndp: unlock stale %d: %w", latest.ID, err))
		}
		return 0, false
	}
	return latest.ID, true
}

// drain moves one checkpoint to global I/O: a published one, which the
// caller has locked in NVM, or the claimed stream s, whose bytes may still be
// arriving. drain releases the lock (or the hold). A stream's drain never
// returns an error: a failure is reported here, and its ID is not counted
// against the retry policy, because it may yet be offered to another commit.
func (e *Engine) drain(id uint64, s *stream) error {
	dev := e.cfg.Device
	key := iostore.Key{Job: e.cfg.Job, Rank: e.cfg.Rank, ID: id}
	if s != nil {
		defer s.unhold()
	} else {
		defer func() {
			if err := dev.Unlock(id); err != nil && !errors.Is(err, nvm.ErrNotFound) {
				e.reportError(fmt.Errorf("ndp: unlock %d: %w", id, err))
			}
		}()
	}
	if e.dead(id) {
		// Rolled back between pick and drain: clean any shipped blocks. A
		// failed cleanup leaks a torn object — surface it.
		if derr := e.cfg.Store.Delete(context.Background(), key); derr != nil {
			e.reportError(fmt.Errorf("ndp: discard cleanup %d: %w", id, derr))
		}
		return nil
	}
	if e.mInFlight != nil {
		e.mInFlight.Inc()
		defer e.mInFlight.Dec()
	}
	drainStart := time.Now()

	var (
		data   []byte
		meta   map[string]string
		filled func(ctx context.Context, n int) error // nil: data is whole
	)
	if s != nil {
		// The stream reads the reservation's filled prefix while the host
		// writes the rest — no pause gate: that is the point.
		data, meta, filled = s.data, s.meta, s.res.WaitFilled
	} else {
		// Read the checkpoint under the NVM gate so host commits exclude us.
		// The wait for the gate is the paper's §4.2.1 pause; the read itself
		// is the NDP's paced NVM access. The read borrows the region under the
		// eviction lock: nothing here reads it once drain returns and unlocks,
		// so the device may hand it to a later commit.
		e.gate.RLock()
		gateHeld := time.Now()
		e.span(id, metrics.PhasePause, drainStart, gateHeld)
		ckpt, err := dev.GetLocked(id)
		e.gate.RUnlock()
		e.span(id, metrics.PhaseRead, gateHeld, time.Now())
		if err != nil {
			if errors.Is(err, nvm.ErrNotFound) {
				return nil
			}
			return err
		}
		data, meta = ckpt.Data, ckpt.Meta
		if e.mPauseWait != nil {
			e.mPauseWait.ObserveDuration(gateHeld.Sub(drainStart))
		}
	}

	obj := iostore.Object{OrigSize: int64(len(data)), Meta: meta}
	if e.cfg.Codec != nil {
		obj.Codec = e.cfg.Codec.Name()
		obj.CodecLevel = e.cfg.Codec.Level()
	}
	if e.mInBytes != nil {
		e.mInBytes.Observe(int64(len(data)))
	}

	// Close cancels runCtx right after closing e.stop: the drain ends with
	// the engine.
	ctx, cancel := context.WithCancel(e.runCtx)
	defer cancel()

	err := e.pipeline(ctx, id, key, obj, data, filled)
	if err == nil && s != nil {
		// Store durability needs NVM durability first: a stream whose
		// bytes never all arrive is acknowledged at no level.
		err = s.res.WaitPublished(ctx)
	}
	if err != nil {
		// A torn object must not be restorable. The delete runs on a fresh
		// context: the drain ctx may already be canceled (engine shutdown),
		// but the cleanup must still be attempted.
		if derr := e.cfg.Store.Delete(context.Background(), key); derr != nil {
			e.reportError(fmt.Errorf("ndp: abort cleanup %d: %w", id, derr))
		}
		if s != nil && (errors.Is(err, nvm.ErrAbandoned) || ctx.Err() != nil) {
			// The upload was cut off (or the engine is stopping): no drain
			// failed, and the ID goes back to the host, timeline and all.
			if ts := e.cfg.Timelines; ts != nil {
				ts.Discard(metrics.KindCheckpoint, id)
			}
			return nil
		}
		if e.mDrainErrors != nil {
			e.mDrainErrors.Inc()
		}
		err = fmt.Errorf("ndp: drain %d: %w", id, err)
		if s != nil {
			e.reportError(err)
			return nil
		}
		return err
	}
	ackStart := time.Now()
	if e.dead(id) {
		// The checkpoint was rolled back while the drain was in flight: the
		// shipped object is poison, not progress.
		if derr := e.cfg.Store.Delete(context.Background(), key); derr != nil {
			e.reportError(fmt.Errorf("ndp: discard cleanup %d: %w", id, derr))
		}
		return nil
	}
	skipped := uint64(0)
	if wm, has := e.tracker.Watermark(LevelStore); has && id > wm+1 {
		skipped = id - wm - 1
	}
	e.span(id, metrics.PhaseAck, ackStart, time.Now())
	if ts := e.cfg.Timelines; ts != nil {
		ts.Finish(metrics.KindCheckpoint, id)
		ts.DiscardOlder(metrics.KindCheckpoint, id)
	}
	// Last, so a waiter this releases finds the timeline completed.
	e.tracker.MarkDurable(LevelStore, id)
	if e.mDrains != nil {
		e.mDrains.Inc()
		e.mSkipped.Add(skipped)
		e.mDrainSecs.ObserveSince(drainStart)
	}
	return nil
}

// span records one timeline phase when timelines are enabled.
func (e *Engine) span(id uint64, phase metrics.Phase, start, end time.Time) {
	if ts := e.cfg.Timelines; ts != nil {
		ts.Observe(metrics.KindCheckpoint, id, phase, start, end)
	}
}

// sender ships one drain's blocks: they are handed over serially and in
// order, and the store writes run asynchronously, bounded by Engine.window.
// PutBlock writes by index, so out-of-order completion of the windowed
// writes cannot tear the object; wait() is the ack barrier — no drain
// acknowledges until every outstanding write has landed.
type sender struct {
	e    *Engine
	key  iostore.Key
	meta iostore.Object
	sem  chan struct{}
	wg   sync.WaitGroup
	xmit metrics.Envelope // wall-clock envelope of the store writes
	// owned says the blocks sent are the pipeline's compressed buffers, to
	// release once their write returns. The raw drain's are slices of the
	// NVM region — device memory, which only the device retires, and the
	// last of them can have a pool class for capacity: never released.
	owned bool

	errMu sync.Mutex
	err   error
}

func (e *Engine) newSender(key iostore.Key, meta iostore.Object) *sender {
	return &sender{e: e, key: key, meta: meta, sem: make(chan struct{}, e.window)}
}

func (s *sender) firstErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *sender) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// send transmits one block: it waits for a slot of the window — the drain's
// one flow-control point — and starts the store write in a goroutine. A
// previously failed write fails fast here so the drain aborts instead of
// streaming into a broken store.
func (s *sender) send(ctx context.Context, idx int, b []byte) error {
	if err := s.firstErr(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.wg.Add(1)
	go func() {
		defer func() {
			<-s.sem
			s.wg.Done()
		}()
		e := s.e
		t0 := time.Now()
		err := e.cfg.Store.PutBlock(ctx, s.key, s.meta, idx, b)
		if s.owned {
			blockpool.Put(b) // no Backend reads a block after PutBlock returns
		}
		if err != nil {
			s.setErr(err)
			return
		}
		if e.mStoreSecs != nil {
			e.mStoreSecs.ObserveSince(t0)
		}
		s.xmit.Mark(t0, time.Now())
	}()
	return nil
}

// wait blocks until every in-flight store write finishes and returns the
// first write error, if any.
func (s *sender) wait() error {
	s.wg.Wait()
	return s.firstErr()
}

// pipeline cuts the checkpoint into BlockSize blocks (the last may be short;
// an empty checkpoint is one empty block) and streams them through Ordered
// into the windowed sender, which hands them to the store in order. A raw
// drain's blocks are slices of the NVM region, on one worker; a compressed
// drain's are compressed into pooled buffers on Workers cores, so block i+1
// compresses while block i is on the wire. A block holds one of Ordered's
// 2×workers tokens until the sender has taken it into its window, so a
// stalled store pauses compression that many blocks past the window. The
// call returns only once every store write has landed, so callers keep the
// strict completed-means-durable semantics. The compress and xmit timeline
// spans are wall-clock envelopes across workers, so on an overlapped drain
// the timeline's Sum exceeds its Total by exactly the realized overlap.
func (e *Engine) pipeline(ctx context.Context, id uint64, key iostore.Key, meta iostore.Object, data []byte,
	filled func(ctx context.Context, n int) error) error {
	bs := e.cfg.BlockSize
	snd := e.newSender(key, meta)
	// A block is ready once the host has filled it: at once for a published
	// checkpoint, at the fill watermark for a stream's.
	produce := func(ctx context.Context, i int) ([]byte, error) {
		b := block(data, bs, i)
		if filled != nil {
			if err := filled(ctx, i*bs+len(b)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	raw := produce
	workers := 1
	var compressClock *metrics.Envelope // nil on a raw drain
	if codec := e.cfg.Codec; codec != nil {
		snd.owned = true // every block it is sent is a compressor's pooled buffer
		clock := new(metrics.Envelope)
		compressClock, workers = clock, e.cfg.Workers
		produce = func(ctx context.Context, i int) ([]byte, error) {
			b, err := raw(ctx, i)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			// Into a pooled buffer the size of the input (output that outgrows
			// it moves to the heap); the sender releases it.
			c, err := codec.Compress(blockpool.Get(len(b))[:0], b)
			clock.Mark(t0, time.Now())
			if e.mCompressSecs != nil {
				e.mCompressSecs.ObserveSince(t0)
			}
			return c, err
		}
	}
	var out int64
	err := Ordered(ctx, max(1, (len(data)+bs-1)/bs), workers, produce, func(i int, b []byte) error {
		out += int64(len(b))
		return snd.send(ctx, i, b)
	})
	if werr := snd.wait(); err == nil { // never return with writes still in flight
		err = werr
	}
	if ts := e.cfg.Timelines; ts != nil {
		if compressClock != nil {
			ts.ObserveEnvelope(metrics.KindCheckpoint, id, metrics.PhaseCompress, compressClock)
		}
		ts.ObserveEnvelope(metrics.KindCheckpoint, id, metrics.PhaseXmit, &snd.xmit)
	}
	if err == nil && e.mOutBytes != nil {
		e.mOutBytes.Observe(out)
	}
	return err
}

// block is data's i-th block of bs bytes; the last may be short.
func block(data []byte, bs, i int) []byte { return data[i*bs : min((i+1)*bs, len(data))] }

func (e *Engine) reportError(err error) {
	if e.cfg.OnError != nil && err != nil {
		e.cfg.OnError(err)
	}
}
