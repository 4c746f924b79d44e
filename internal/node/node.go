// Package node implements the compute-node checkpoint/restart runtime of
// §4: a host API that commits application snapshots to node-local NVM
// (pausing any NDP activity for the duration, §4.2.1), an NDP engine that
// drains them to global I/O with overlapped compression (§4.2.2), and a
// two-path restore — local NVM when available, otherwise a streamed fetch
// from global I/O with pipelined host-side decompression (§4.3).
package node

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/compress"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// Metadata is the BLCR-style identification attached to every checkpoint
// (§4.2.1): enough to find the latest checkpoint of an application rank
// after a restart.
type Metadata struct {
	Job  string
	Rank int
	// ID is the checkpoint ID the snapshot was committed under. Restores
	// report it so a caller labels the bytes it got with the checkpoint they
	// came from; Commit ignores it (the node assigns IDs).
	ID uint64
	// Step is the application's own progress marker (iteration count).
	Step int
	// Shards is the shard count of a partitionable snapshot (the elastic
	// frame's header count, stamped at checkpoint time). Zero means the
	// snapshot is opaque — restorable only onto the same rank topology.
	// Carrying the count in metadata lets the elastic restore planner size
	// an N→M re-shard from Stat calls alone, without fetching payloads.
	Shards int
}

func (m Metadata) toMap(id uint64) map[string]string {
	mm := map[string]string{
		"job":  m.Job,
		"rank": strconv.Itoa(m.Rank),
		"step": strconv.Itoa(m.Step),
		"ckpt": strconv.FormatUint(id, 10),
	}
	if m.Shards > 0 {
		mm["shards"] = strconv.Itoa(m.Shards)
	}
	return mm
}

// ErrBadMetadata reports checkpoint metadata that fails to decode. Corrupt
// metadata must never silently decode as rank 0 / step 0: a restore acting
// on it could resurrect the wrong rank's state.
var ErrBadMetadata = errors.New("node: corrupt checkpoint metadata")

// MetadataFromMap decodes the meta map a checkpoint carries in NVM, on a
// partner or in the store into Metadata; the restore planner reads shard
// counts off Stat results with it. A map it cannot decode is an
// ErrBadMetadata.
func MetadataFromMap(mm map[string]string) (Metadata, error) {
	var m Metadata
	var err error
	m.Job = mm["job"]
	if m.Rank, err = strconv.Atoi(mm["rank"]); err != nil {
		return Metadata{}, fmt.Errorf("%w: rank %q: %v", ErrBadMetadata, mm["rank"], err)
	}
	if m.Step, err = strconv.Atoi(mm["step"]); err != nil {
		return Metadata{}, fmt.Errorf("%w: step %q: %v", ErrBadMetadata, mm["step"], err)
	}
	// "ckpt" and "shards" are optional (hand-built and pre-elastic objects
	// omit them) but must parse when present: a garbled ID would mislabel
	// the restored bytes, a garbled count mis-plan every elastic restore.
	if s, ok := mm["ckpt"]; ok {
		if m.ID, err = strconv.ParseUint(s, 10, 64); err != nil {
			return Metadata{}, fmt.Errorf("%w: ckpt %q", ErrBadMetadata, s)
		}
	}
	if s, ok := mm["shards"]; ok {
		if m.Shards, err = strconv.Atoi(s); err != nil || m.Shards < 0 {
			return Metadata{}, fmt.Errorf("%w: shards %q", ErrBadMetadata, s)
		}
	}
	return m, nil
}

// DefaultNVMCapacity is what a zero Config.NVMCapacity selects.
const DefaultNVMCapacity = 4 << 30

// Config assembles a node.
type Config struct {
	Job  string
	Rank int

	// NVMCapacity bounds the local checkpoint region. Zero selects
	// 4 GiB (enough for tests; real deployments size it to hold a few
	// checkpoints).
	NVMCapacity int64

	// Store is the shared global I/O store (required): in-process
	// (iostore.Store), remote (iod.Client), or sharded+replicated
	// (shardstore.Store).
	Store iostore.Backend

	// Codec enables NDP compression of drained checkpoints (on ndpWorkers
	// cores); nil drains raw.
	Codec compress.Codec
	// BlockSize is the drain streaming unit (default 1 MB).
	BlockSize int
	// DisableNDP turns the background drain off entirely: no checkpoint
	// leaves NVM, and whatever the store holds under this job was placed
	// there by someone else (tests put objects there themselves).
	DisableNDP bool
	// DrainGate, when non-nil, is acquired around every NDP drain — the
	// gateway's QoS-weighted drain scheduler plugs in here (see
	// ndp.Config.Gate).
	DrainGate func(ctx context.Context) (release func(), err error)

	// OnError receives asynchronous NDP errors.
	OnError func(error)

	// Metrics, when non-nil, is the registry every layer of this node
	// (NVM, NDP, restores) reports into; cluster passes one registry
	// to all its nodes so per-node series aggregate. Nil creates a private
	// registry, exposed via Node.Metrics. The store is not the node's to
	// instrument: it is shared, and whoever assembled it registers its
	// metrics once (re-registering swaps counters under in-flight writes).
	Metrics *metrics.Registry
}

// ndpWorkers is the NDP core count for compression: the paper's gzip(1)
// configuration (Table 3).
const ndpWorkers = 4

// Node is one compute node's C/R runtime. All methods are safe for
// concurrent use, though an application typically serializes Commit and
// Restore itself.
type Node struct {
	cfg    Config
	device *nvm.Device
	engine *ndp.Engine // nil when DisableNDP

	// dur is the per-node durability state machine: commit marks LevelNVM,
	// the NDP engine marks LevelStore as drains land, and the cluster's
	// propagation marks the partner/erasure levels. The node owns it and
	// closes it after the engine.
	dur *ndp.Tracker

	// partner is this node's region for *other* ranks' redundant copies;
	// buddy is the node holding *this* rank's copies (§3.4 partner level).
	partner region
	buddy   *Node

	// erasure is this node's region for other ranks' erasure shards;
	// eraSet is the cluster's shard router serving *this* rank's
	// reconstructions (§3.4 erasure-set level).
	erasure region
	eraSet  ErasureSet

	// turn is the ID order: one token, held by the node's open commit from
	// Reserve until Publish consumes its ID or Release gives the commit up. So
	// commits take IDs one at a time and in order, and one that fails or is
	// abandoned never burns an ID: nextID moves only once a write succeeded.
	// A channel, not a mutex, so a Reserve waiting its turn can give up with
	// its ctx.
	turn chan struct{}

	mu     sync.Mutex
	nextID uint64
	closed bool
	// streamMeta is the metadata the open commit's drain stamped on its
	// object (Stream), and so the metadata it publishes under; nil when the
	// open commit does not stream.
	streamMeta map[string]string

	// fetchWindow, when positive, overrides the restore's fetch window (in
	// blocks) that fetchObject otherwise sizes from fetchBudget; only
	// in-package tests set it, to pin a narrow window.
	fetchWindow int

	reg       *metrics.Registry
	timelines *metrics.TimelineSet

	mCommits          *metrics.Counter
	mCommitSecs       *metrics.Histogram
	mCommitBytes      *metrics.Histogram
	mMetaErrs         *metrics.Counter
	mRestoreSecs      *metrics.Histogram
	mDecompressSecs   *metrics.Histogram
	mStreamedRestores *metrics.Counter
	mRestores         [LevelIO + 1]*metrics.Counter
}

// New assembles and starts a node runtime.
func New(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("node: Store is required")
	}
	if cfg.Job == "" {
		return nil, errors.New("node: Job is required")
	}
	if cfg.NVMCapacity == 0 {
		cfg.NVMCapacity = DefaultNVMCapacity
	}

	device, err := nvm.NewDevice(cfg.NVMCapacity)
	if err != nil {
		return nil, err
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = ndp.DefaultBlockSize
	}
	n := &Node{cfg: cfg, device: device, nextID: 1, dur: ndp.NewTracker(),
		timelines: metrics.NewTimelineSet(0), turn: make(chan struct{}, 1)}
	n.partner, n.erasure = newRegions(cfg.NVMCapacity)
	n.reg = cfg.Metrics
	if n.reg == nil {
		n.reg = metrics.NewRegistry()
	}
	device.Instrument(n.reg)
	n.mCommits = n.reg.Counter("ndpcr_node_commits_total", "snapshots committed to local NVM")
	n.mCommitSecs = n.reg.Histogram("ndpcr_node_commit_seconds", "host pause per NVM commit", metrics.UnitSeconds)
	n.mCommitBytes = n.reg.Histogram("ndpcr_node_commit_bytes", "snapshot sizes committed", metrics.UnitBytes)
	n.mMetaErrs = n.reg.Counter("ndpcr_node_metadata_errors_total", "checkpoints rejected for corrupt metadata")
	n.mRestoreSecs = n.reg.Histogram("ndpcr_node_restore_seconds", "wall time per restore", metrics.UnitSeconds)
	n.mDecompressSecs = n.reg.Histogram("ndpcr_node_decompress_seconds", "busy time per restored block decompression", metrics.UnitSeconds)
	n.mStreamedRestores = n.reg.Counter("ndpcr_node_streamed_restores_total",
		"I/O fetches served block-streamed (fetch overlapped with decompress)")
	for l := LevelNone; l <= LevelIO; l++ {
		n.mRestores[l] = n.reg.Counter(
			fmt.Sprintf("ndpcr_node_restores_total{level=%q}", l),
			"restores served, by storage level (none = failed)")
	}
	if !cfg.DisableNDP {
		n.engine, err = ndp.New(ndp.Config{
			Job:       cfg.Job,
			Rank:      cfg.Rank,
			Device:    device,
			Store:     cfg.Store,
			Codec:     cfg.Codec,
			Workers:   ndpWorkers,
			BlockSize: cfg.BlockSize,
			OnError:   cfg.OnError,
			Tracker:   n.dur,
			Gate:      cfg.DrainGate,
			Metrics:   n.reg,
			Timelines: n.timelines,
		})
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// BlockSize is the unit the node drains and a committer fills in.
func (n *Node) BlockSize() int { return n.cfg.BlockSize }

// Device exposes the NVM device (tests, metrics).
func (n *Node) Device() *nvm.Device { return n.device }

// Engine exposes the NDP engine, nil when disabled.
func (n *Node) Engine() *ndp.Engine { return n.engine }

// Durability exposes the node's durability tracker: per-level watermarks,
// per-ID failure state, and awaitable completion — the one waiter for
// "is checkpoint id at level L yet".
func (n *Node) Durability() *ndp.Tracker { return n.dur }

// DurableAt reports whether checkpoint id is durable at the given level
// ("id or newer" watermark semantics; failed IDs are never durable).
func (n *Node) DurableAt(id uint64, level ndp.Level) bool {
	return n.dur.DurableAt(id, level)
}

// WaitDurableCtx blocks until checkpoint id is durable at level, the ID
// permanently fails (error wraps ndp.ErrCheckpointFailed), ctx ends, or
// the node shuts down (ndp.ErrStopped).
func (n *Node) WaitDurableCtx(ctx context.Context, id uint64, level ndp.Level) error {
	return n.dur.WaitDurableCtx(ctx, id, level)
}

// Metrics exposes the node's metric registry.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Timelines exposes the node's per-checkpoint phase timelines.
func (n *Node) Timelines() *metrics.TimelineSet { return n.timelines }

// Commit writes one application snapshot to local NVM and notifies the
// NDP: Reserve, one copy into the reserved region, Publish. It returns the
// checkpoint ID as soon as the write lands (the checkpoint is durable at
// ndp.LevelNVM); background propagation carries it to the higher levels,
// observable via the durability tracker — a caller that wants the
// synchronous guarantee follows with WaitDurableCtx.
func (n *Node) Commit(ctx context.Context, snapshot []byte, meta Metadata) (uint64, error) {
	r, err := n.Reserve(ctx, int64(len(snapshot)))
	if err != nil {
		return 0, err
	}
	defer r.Release()
	copy(r.Data, snapshot)
	return n.Publish(r, meta)
}

// Reserve starts a commit: it takes the node's ID order, then claims size
// bytes of local NVM for a snapshot still to arrive. The commit is the node's
// one open commit — it will be published as NextID — until the caller
// Publishes it or Releases it (a no-op after Publish, so defer it); another
// Reserve meanwhile waits its turn, holding no NVM, and gives up when ctx
// ends (an error wrapping ctx.Err()). Admission comes second: when NVM
// occupancy minus drain-locked residents cannot admit the snapshot, Reserve
// blocks until drains release space or ctx ends (a typed nvm.ErrBackpressure);
// a snapshot larger than the device fails nvm.ErrTooLarge. No NVM lock is
// held while waiting or filling: a drain needs the NVM pause gate, and its
// progress is what frees space.
func (n *Node) Reserve(ctx context.Context, size int64) (*nvm.Reservation, error) {
	if err := n.takeTurn(ctx); err != nil {
		return nil, fmt.Errorf("node: commit: waiting for the ID order: %w", err)
	}
	r, err := n.device.Reserve(ctx, size)
	if err != nil {
		<-n.turn
		return nil, err
	}
	r.OnRelease(func() {
		n.mu.Lock()
		n.streamMeta = nil
		n.mu.Unlock()
		<-n.turn
	})
	return r, nil
}

// Stream starts the drain of the open commit r while its bytes are still
// arriving (a cut-through commit: §4.2.2's block streaming, begun before the
// commit ends). The NDP ships each block once r's writer has marked it
// Filled, under the ID the commit will publish as, and marks the checkpoint
// store-durable only after Publish has made it NVM-durable. Releasing r stops
// the drain, which deletes what it shipped before Release returns, so no late
// cleanup can touch the next commit's object under the same key. A commit
// streams only when r spans more than one block and the NDP takes the stream
// (ndp.Engine.Stream); otherwise Stream reports false and the commit drains
// once published. meta is stamped on the stored object before its first
// block; Publish then uses it, not its own.
func (n *Node) Stream(r *nvm.Reservation, meta Metadata) bool {
	if n.engine == nil || len(r.Data) <= n.cfg.BlockSize {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	mm := n.identify(meta).toMap(n.nextID)
	if n.closed || !n.engine.Stream(n.nextID, r, mm) {
		return false
	}
	n.streamMeta = mm
	return true
}

// identify stamps this node's job and rank on metadata that names none.
func (n *Node) identify(meta Metadata) Metadata {
	if meta.Job == "" {
		meta.Job = n.cfg.Job
		meta.Rank = n.cfg.Rank
	}
	return meta
}

// Publish commits the open commit r, filled, as the node's next checkpoint
// and passes the ID order on. The host "pauses" for the NVM write — any
// concurrent NDP NVM access is excluded for the duration (§4.2.1). The ID is
// consumed only once the write succeeds: a failed Publish leaves nextID
// untouched and the commit open, and its Release offers the same ID again,
// so a single rank's NVM failure cannot desynchronize a coordinated
// checkpoint's ID sequence. A streamed commit publishes under the metadata
// its Stream took.
func (n *Node) Publish(r *nvm.Reservation, meta Metadata) (uint64, error) {
	n.mu.Lock()
	id, closed, mm := n.nextID, n.closed, n.streamMeta
	n.mu.Unlock()
	if closed {
		return 0, errors.New("node: closed")
	}
	if mm == nil {
		mm = n.identify(meta).toMap(id)
	}
	size := len(r.Data)
	if n.engine != nil {
		n.engine.PauseNVM()
	}
	// Before the write: a streamed commit's drain may finish the timeline the
	// moment the write lands.
	n.timelines.Observe(metrics.KindCheckpoint, id, metrics.PhaseCommit, r.Start, time.Now())
	err := r.Publish(id, mm)
	if n.engine != nil {
		n.engine.ResumeNVM()
	}
	if err != nil {
		n.timelines.Discard(metrics.KindCheckpoint, id)
		return 0, fmt.Errorf("node: commit %d: %w", id, err)
	}
	n.mu.Lock()
	n.nextID, n.streamMeta = id+1, nil
	n.mu.Unlock()
	n.dur.MarkDurable(ndp.LevelNVM, id)
	<-n.turn
	n.mCommits.Inc()
	n.mCommitSecs.ObserveSince(r.Start)
	n.mCommitBytes.Observe(int64(size))
	if n.engine != nil {
		n.engine.Notify()
	}
	return id, nil
}

// takeTurn waits for the ID order, or for ctx to end. A free turn is taken
// whatever ctx says, so an ended ctx fails only a commit that would wait.
func (n *Node) takeTurn(ctx context.Context) error {
	select {
	case n.turn <- struct{}{}:
		return nil
	default:
	}
	select {
	case n.turn <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// NextID returns the checkpoint ID the next successful Commit will use.
func (n *Node) NextID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nextID
}

// ResyncNextID raises the node's checkpoint counter to next (never lowers
// it). The cluster calls it on every node after an aborted coordinated
// checkpoint so the surviving ranks and the failed rank agree again on the
// next global ID — the aborted ID is skipped, keeping IDs monotonic and
// never reusing a poisoned one.
func (n *Node) ResyncNextID(next uint64) {
	n.takeTurn(context.Background())
	defer func() { <-n.turn }()
	n.mu.Lock()
	defer n.mu.Unlock()
	if next > n.nextID {
		n.nextID = next
	}
}

// DiscardCommit rolls one committed checkpoint back out of this node: the
// ID is failed on the durability tracker — which is what tells the NDP never
// to acknowledge a drain of it (deleting anything it already shipped) — the
// NVM entry is force-removed, and the global object is deleted. It is the
// per-node abort path of a failed coordinated checkpoint; discarding an ID
// that was never committed here is a no-op.
// The returned error reports a failed global delete — a leaked object the
// caller can now see (and a cluster rollback counts).
func (n *Node) DiscardCommit(id uint64) error {
	n.dur.Fail(id, ndp.ErrDiscarded)
	n.device.Discard(id)
	return n.cfg.Store.Delete(context.Background(),
		iostore.Key{Job: n.cfg.Job, Rank: n.cfg.Rank, ID: id})
}

// ErrNoCheckpoint reports that neither level holds a restorable checkpoint.
var ErrNoCheckpoint = errors.New("node: no checkpoint available at any level")

// Sink receives one restored snapshot. It is called once, when the
// snapshot's identity, level and exact size are known and before any
// payload; the emit function it returns is then handed the payload in
// order, in pieces that sum to size. A piece is read-only, and whose it is
// depends on the level: a local level's one piece aliases device memory and
// may be kept; a piece at LevelIO is a pooled buffer of the restore's, valid
// until emit returns and recycled then — copy or write it before returning.
// A failed restore emitted at most a prefix.
type Sink func(meta Metadata, size int64, level Level) (emit func(piece []byte) error, err error)

// collect runs a streaming restore into memory: a local level's one piece
// as is (aliasing device memory, like Device.Get), the I/O level's blocks
// copied, once, into one buffer of the object's size.
func collect(restore func(Sink) error) (data []byte, meta Metadata, level Level, err error) {
	err = restore(func(m Metadata, size int64, l Level) (func([]byte) error, error) {
		meta, level = m, l
		if l == LevelIO {
			data = make([]byte, 0, size)
		}
		return func(piece []byte) error {
			if data == nil {
				data = piece
			} else {
				data = append(data, piece...)
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, Metadata{}, LevelNone, err
	}
	return data, meta, level, nil
}

// Restore returns the newest restorable snapshot, walking the §4.2.3
// recovery hierarchy: local NVM, then the buddy node's partner copy
// (§3.4), then the erasure set, then global I/O with pipelined host
// decompression (§4.3). It reports which level served the restore. The
// context bounds the global-I/O leg (fetches, shard failover, reconnect
// backoff).
func (n *Node) Restore(ctx context.Context) ([]byte, Metadata, Level, error) {
	return collect(func(sink Sink) error { return n.RestoreTo(ctx, sink) })
}

// RestoreTo is Restore streaming into sink (I/O-level blocks as they land).
func (n *Node) RestoreTo(ctx context.Context, sink Sink) error {
	start := time.Now()
	level, err := n.restore(ctx, sink)
	n.recordRestore(level, start, err)
	return err
}

func (n *Node) restore(ctx context.Context, sink Sink) (Level, error) {
	if ckpt, ok := n.device.Latest(); ok {
		t0 := time.Now()
		if data, meta, ok := n.restoreFromLocal(ckpt.ID); ok {
			return n.serveWhole(ckpt.ID, t0, sink, data, meta, LevelLocal)
		}
	}
	// Pick the newest checkpoint across the partner, erasure, and I/O
	// levels; on ties prefer the cheaper level (partner, then erasure).
	var pLatest uint64
	pOK := false
	n.mu.Lock()
	buddy := n.buddy
	n.mu.Unlock()
	if buddy != nil {
		if ids := buddy.PartnerCopyIDs(n.cfg.Rank); len(ids) > 0 {
			pLatest, pOK = ids[len(ids)-1], true
		}
	}
	eLatest, eOK := n.erasureLatest()
	// A transport error is not "no checkpoint stored": remember it, try the
	// cheaper levels, and only report the unreachable I/O level if nothing
	// else serves.
	ioLatest, ioOK, ioErr := n.cfg.Store.Latest(ctx, n.cfg.Job, n.cfg.Rank)
	if ioErr != nil {
		ioOK = false
	}
	if pOK && (!eOK || pLatest >= eLatest) && (!ioOK || pLatest >= ioLatest) {
		t0 := time.Now()
		if data, meta, ok := n.restoreFromPartner(pLatest); ok {
			return n.serveWhole(pLatest, t0, sink, data, meta, LevelPartner)
		}
	}
	if eOK && (!ioOK || eLatest >= ioLatest) {
		t0 := time.Now()
		if data, meta, ok := n.restoreFromErasure(eLatest); ok {
			return n.serveWhole(eLatest, t0, sink, data, meta, LevelErasure)
		}
	}
	if !ioOK {
		if ioErr != nil {
			return LevelNone, fmt.Errorf("%w (I/O level unreachable: %v)", ErrNoCheckpoint, ioErr)
		}
		return LevelNone, ErrNoCheckpoint
	}
	return n.serveIO(ctx, n.cfg.Rank, ioLatest, sink)
}

// RestoreID restores a specific checkpoint ID: local, then partner, then
// the erasure set, then global I/O.
func (n *Node) RestoreID(ctx context.Context, id uint64) ([]byte, Metadata, Level, error) {
	return collect(func(sink Sink) error { return n.RestoreIDTo(ctx, id, sink) })
}

// RestoreIDTo is RestoreID streaming into sink.
func (n *Node) RestoreIDTo(ctx context.Context, id uint64, sink Sink) error {
	start := time.Now()
	level, err := n.restoreByID(ctx, id, sink)
	n.recordRestore(level, start, err)
	return err
}

func (n *Node) restoreByID(ctx context.Context, id uint64, sink Sink) (Level, error) {
	for _, lv := range []struct {
		level Level
		get   func(uint64) ([]byte, Metadata, bool)
	}{{LevelLocal, n.restoreFromLocal}, {LevelPartner, n.restoreFromPartner}, {LevelErasure, n.restoreFromErasure}} {
		t0 := time.Now()
		if data, meta, ok := lv.get(id); ok {
			return n.serveWhole(id, t0, sink, data, meta, lv.level)
		}
	}
	return n.serveIO(ctx, n.cfg.Rank, id, sink)
}

// restoreFromLocal is the local level: one NVM read. Corrupt local
// metadata is a level miss, not a wrong-rank restore.
func (n *Node) restoreFromLocal(id uint64) ([]byte, Metadata, bool) {
	ckpt, err := n.device.Get(id)
	if err != nil {
		return nil, Metadata{}, false
	}
	meta, err := MetadataFromMap(ckpt.Meta)
	if err != nil {
		n.mMetaErrs.Inc()
		return nil, Metadata{}, false
	}
	return ckpt.Data, meta, true
}

// serveWhole serves a level that produced the snapshot in memory.
func (n *Node) serveWhole(id uint64, t0 time.Time, sink Sink, data []byte, meta Metadata, level Level) (Level, error) {
	n.restoreSpan(id, metrics.PhaseFetch, t0)
	n.timelines.Finish(metrics.KindRestore, id)
	return level, sink.whole(data, meta, level)
}

// whole hands sink a snapshot that is already in memory, as one piece.
func (sink Sink) whole(data []byte, meta Metadata, level Level) error {
	emit, err := sink(meta, int64(len(data)), level)
	if err != nil {
		return err
	}
	return emit(data)
}

// serveIO streams rank's checkpoint id from the global store into sink.
func (n *Node) serveIO(ctx context.Context, rank int, id uint64, sink Sink) (Level, error) {
	if err := n.fetchFromIO(ctx, rank, id, sink); err != nil {
		return LevelNone, err
	}
	n.timelines.Finish(metrics.KindRestore, id)
	return LevelIO, nil
}

// restoreSpan records one restore-path phase span ending now.
func (n *Node) restoreSpan(id uint64, phase metrics.Phase, start time.Time) {
	n.timelines.Observe(metrics.KindRestore, id, phase, start, time.Now())
}

// recordRestore updates the restore counters and latency histogram.
func (n *Node) recordRestore(level Level, start time.Time, err error) {
	if err != nil {
		level = LevelNone
	}
	n.mRestores[level].Inc()
	n.mRestoreSecs.ObserveSince(start)
}

// Level identifies which storage level served a restore.
type Level int

// Restore levels.
const (
	LevelNone Level = iota
	LevelLocal
	LevelPartner
	LevelErasure
	LevelIO
)

func (l Level) String() string {
	switch l {
	case LevelLocal:
		return "local"
	case LevelPartner:
		return "partner"
	case LevelErasure:
		return "erasure"
	case LevelIO:
		return "io"
	}
	return "none"
}

// fetchFromIO streams rank's checkpoint from the global store (usually
// this node's own rank; an elastic restore fetches other source ranks'
// objects through the same path) into sink, block by block as it lands.
//
// Finish-or-discard: a failed fetch discards the restore timeline it
// opened. The success paths Finish it (in the callers); without the
// discard, every failed restore left an open timeline behind forever —
// residue that DiscardOlder never collects, since failures don't advance
// the finished-ID watermark.
func (n *Node) fetchFromIO(ctx context.Context, rank int, id uint64, sink Sink) error {
	err := n.fetchObject(ctx, rank, id, sink)
	if err != nil {
		n.timelines.Discard(metrics.KindRestore, id)
	}
	return err
}

// ErrBadObject reports a stored object whose block count or payload size
// cannot describe a checkpoint: negative, blocks without bytes or bytes
// without blocks, or larger than anything this node could have committed.
var ErrBadObject = errors.New("node: stored object has an impossible shape")

// checkObjectShape validates the counts a store reports for an object before
// the restore sizes any buffer from them: they arrive off the wire, and a
// corrupt or hostile reply must fail the restore, not the process. Every
// block of a multi-block object carries at least one payload byte, and a
// payload that exceeds this node's NVM could never have been committed here.
func (n *Node) checkObjectShape(numBlocks int, origSize int64) error {
	switch {
	case numBlocks < 0 || origSize < 0,
		numBlocks == 0 && origSize > 0,
		numBlocks > 1 && int64(numBlocks) > origSize,
		origSize > n.device.Capacity():
		return fmt.Errorf("%w: %d blocks, %d bytes (NVM capacity %d)",
			ErrBadObject, numBlocks, origSize, n.device.Capacity())
	}
	return nil
}

// fetchBudget is a restore's byte budget of block fetches in flight, in
// payload bytes. The fetch window — how many GetBlocks a restore keeps in
// flight, and (doubled) how far fetched blocks may run ahead of the consumer
// — is ndp.Window(fetchBudget, block size), clamped to the block count: 8
// blocks of 1 MiB, what the CPU-bound restore of large blocks can use, and 128
// of 64 KiB, where depth is what hides device latency.
const fetchBudget = 8 << 20

// fetchObject streams one stored object's decompressed payload, in order,
// to the emit function sink returns. sink is called once — after the
// StatBlocks answer passed every shape check, before any block is fetched —
// with the object's metadata and exact payload size. The blocks run through
// ndp.Ordered on window workers, each of which fetches a block and
// decompresses it, so decompressing block i overlaps fetching block i+1
// (§4.3 mirrored onto the restore path) and every fetch of the window is on
// the wire at once over the iod client's lanes; the calling goroutine emits
// each block once every earlier block has been. Each block holds one of
// 2×window tokens until it has been emitted: a slow consumer holds the
// workers — and the restore's memory — to that many blocks ahead of it. No
// byte past the declared size is emitted; a shortfall is an error after the
// fact.
//
// Every block buffer is this restore's, from blockpool and back to it: the
// fetched block (GetBlock's caller owns it) once it is decoded, or emitted
// when there is no codec; the decode destination once emit has returned.
// What a failed restore has fetched and not emitted is garbage, never
// released.
func (n *Node) fetchObject(ctx context.Context, rank int, id uint64, sink Sink) error {
	key := iostore.Key{Job: n.cfg.Job, Rank: rank, ID: id}
	obj, numBlocks, ok, err := n.cfg.Store.StatBlocks(ctx, key)
	if err != nil {
		return fmt.Errorf("node: restore %d from I/O: %w", id, err)
	}
	if !ok {
		return fmt.Errorf("node: restore %d from I/O: %w: %s", id, iostore.ErrNotFound, key)
	}
	if err := n.checkObjectShape(numBlocks, obj.OrigSize); err != nil {
		return fmt.Errorf("node: restore %d: %w", id, err)
	}
	meta, err := MetadataFromMap(obj.Meta)
	if err != nil {
		n.mMetaErrs.Inc()
		return fmt.Errorf("node: restore %d: %w", id, err)
	}
	var codec compress.Codec
	if obj.Codec != "" {
		codec, err = compress.Lookup(obj.Codec, obj.CodecLevel)
		if err != nil {
			return fmt.Errorf("node: restore %d: %w", id, err)
		}
	}
	emit, err := sink(meta, obj.OrigSize, LevelIO)
	if err != nil {
		return err
	}

	window := n.fetchWindow
	if window <= 0 {
		window = ndp.Window(fetchBudget, obj.OrigSize/int64(max(numBlocks, 1)))
	}
	var (
		fetchClock, decClock metrics.Envelope
		// Size of the pooled buffer a block is decompressed into, so its
		// output never outgrows it: the largest decoded block so far, starting
		// from the mean. A hint, never a limit; workers racing to raise it
		// differ by a block.
		decHint atomic.Int64
		emitted int64
	)
	decHint.Store((obj.OrigSize + int64(numBlocks) - 1) / int64(max(numBlocks, 1)))
	err = ndp.Ordered(ctx, numBlocks, window, func(ctx context.Context, i int) ([]byte, error) {
		t0 := time.Now()
		b, err := n.cfg.Store.GetBlock(ctx, key, i)
		fetchClock.Mark(t0, time.Now())
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		if codec == nil {
			return b, nil
		}
		t0 = time.Now()
		p, err := codec.Decompress(blockpool.Get(int(decHint.Load()))[:0], b)
		blockpool.Put(b)
		decClock.Mark(t0, time.Now())
		n.mDecompressSecs.ObserveSince(t0)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		if int64(len(p)) > decHint.Load() {
			decHint.Store(int64(len(p)))
		}
		return p, nil
	}, func(i int, p []byte) error {
		var err error
		if emitted += int64(len(p)); emitted > obj.OrigSize {
			err = fmt.Errorf("%w: block %d takes the payload past its declared %d bytes",
				ErrBadObject, i, obj.OrigSize)
		} else {
			err = emit(p)
		}
		blockpool.Put(p)
		return err
	})

	n.timelines.ObserveEnvelope(metrics.KindRestore, id, metrics.PhaseFetch, &fetchClock)
	n.timelines.ObserveEnvelope(metrics.KindRestore, id, metrics.PhaseDecompress, &decClock)
	if err != nil {
		return fmt.Errorf("node: restore %d: %w", id, err)
	}
	if emitted != obj.OrigSize {
		return fmt.Errorf("node: restore %d: %w: blocks hold %d bytes, %d declared",
			id, ErrBadObject, emitted, obj.OrigSize)
	}
	n.mStreamedRestores.Inc()
	return nil
}

// FailLocal simulates a node failure that destroys local state: the NVM is
// wiped — including any partner copies and erasure shards this node held
// for other ranks, since they live on the same physical device — and an
// in-flight drain aborts. The node keeps running (a replacement node
// reattaches to the same job/rank).
func (n *Node) FailLocal() {
	n.device.Wipe()
	n.partner.dev.Wipe()
	n.erasure.dev.Wipe()
}

// Close shuts the runtime down.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	if n.engine != nil {
		n.engine.Close()
	}
	// Close the tracker after the engine so an in-flight drain's final
	// MarkDurable wins the race against the stop; parked waiters then get
	// the definitive answer rather than ErrStopped.
	n.dur.Close()
	n.device.Retire()
}
