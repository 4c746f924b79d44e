// Package cluster implements coordinated checkpoint/restart across many
// compute-node runtimes, in the style of OpenMPI+BLCR coordinated
// checkpoints (§4.2.1): every rank pauses, commits its snapshot under a
// shared global checkpoint ID, and resumes; recovery computes the restart
// line — the newest checkpoint ID every rank can still restore — and rolls
// all ranks back to it together.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ndpcr/internal/cluster/elastic"
	"ndpcr/internal/erasure"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
)

// Rank is one checkpointable application process.
type Rank interface {
	// Snapshot serializes the paused rank's state.
	Snapshot() ([]byte, error)
	// Restore replaces the rank's state from a snapshot.
	Restore(data []byte) error
}

// PartitionedRank is a Rank whose Snapshot returns an elastic snapshot
// frame (elastic.Encode / elastic.FrameBytes): a self-describing shard
// sequence the restore planner can re-distribute onto a different rank
// count. Checkpoint verifies the frame and stamps its shard count into the
// checkpoint metadata, which is what makes a later N→M restore plannable
// from Stat calls alone. Restore receives an elastic frame holding the
// shard range the new topology assigns this rank.
type PartitionedRank interface {
	Rank
	// Partitioned marks the contract; implementations return trivially.
	Partitioned()
}

// Cluster coordinates C/R for a fixed set of ranks, each backed by its own
// node runtime writing into a shared global store.
type Cluster struct {
	job     string
	store   iostore.Backend
	nodes   []*node.Node
	ranks   []Rank
	partner bool

	// Erasure-set level configuration (see erasure.go). eraCode is nil
	// when the level is disabled.
	eraGroup  int
	eraParity int
	eraCode   *erasure.Code

	mu     sync.Mutex
	nextID uint64
	closed bool

	// Propagation state: propMu serializes background propagation rounds
	// (partner copies + erasure encode run in commit order), propWG tracks
	// them so Close waits instead of wiping state under a live round, and
	// onAsyncErr receives deferred-abort errors.
	propMu     sync.Mutex
	propWG     sync.WaitGroup
	onAsyncErr func(error)

	reg            *metrics.Registry
	mCkpts         *metrics.Counter
	mCkptErrors    *metrics.Counter
	mRollbacks     *metrics.Counter
	mRecoveries    *metrics.Counter
	mLineAttempts  *metrics.Counter
	mFallbacks     *metrics.Counter
	mInvErrors     *metrics.Counter
	mLeakedDeletes *metrics.Counter
	mBarrierSecs   *metrics.Histogram
	mEncodeSecs    *metrics.Histogram
	mPlaceSecs     *metrics.Histogram
	mRecoverSecs   *metrics.Histogram
}

// Option configures a cluster at assembly time.
type Option func(*Cluster)

// WithPartnerReplication enables the §3.4 partner level: each coordinated
// checkpoint is also copied into the next rank's node-local storage, so a
// single-node NVM loss recovers at local-storage speed from the buddy
// instead of global I/O. Requires at least two ranks.
func WithPartnerReplication() Option {
	return func(c *Cluster) { c.partner = true }
}

// WithOnAsyncError registers a handler for deferred-abort errors: a
// checkpoint whose background propagation fails rolls the round back and
// reports the cause here (waiters also observe it as a permanent failure on
// every rank's durability tracker). It is invoked for every failed round —
// including one a synchronous Checkpoint waited on and also returns, so a
// caller whose context ended mid-round still has somewhere to learn of it.
func WithOnAsyncError(fn func(error)) Option {
	return func(c *Cluster) { c.onAsyncErr = fn }
}

// New assembles a cluster. nodes[i] backs ranks[i]; the slices must be the
// same non-zero length and every node must use the given job name.
func New(job string, store iostore.Backend, nodes []*node.Node, ranks []Rank, opts ...Option) (*Cluster, error) {
	if job == "" {
		return nil, errors.New("cluster: empty job name")
	}
	if store == nil {
		return nil, errors.New("cluster: store is required")
	}
	if len(nodes) == 0 || len(nodes) != len(ranks) {
		return nil, fmt.Errorf("cluster: %d nodes vs %d ranks", len(nodes), len(ranks))
	}
	c := &Cluster{job: job, store: store, nodes: nodes, ranks: ranks, nextID: 1}
	c.reg = metrics.NewRegistry()
	c.mCkpts = c.reg.Counter("ndpcr_cluster_checkpoints_total", "coordinated checkpoints completed")
	c.mCkptErrors = c.reg.Counter("ndpcr_cluster_checkpoint_errors_total", "coordinated checkpoints aborted")
	c.mRollbacks = c.reg.Counter("ndpcr_cluster_checkpoint_rollbacks_total",
		"aborted coordinated checkpoints rolled back across all levels")
	c.mRecoveries = c.reg.Counter("ndpcr_cluster_recoveries_total", "cluster-wide recoveries completed")
	c.mLineAttempts = c.reg.Counter("ndpcr_cluster_recover_line_attempts_total",
		"restart lines attempted during recoveries (successes and fallbacks)")
	c.mFallbacks = c.reg.Counter("ndpcr_cluster_recover_fallbacks_total",
		"restart lines abandoned for an older line during recoveries")
	c.mInvErrors = c.reg.Counter("ndpcr_cluster_inventory_errors_total",
		"restart-line inventories that found the global store unreachable")
	c.mLeakedDeletes = c.reg.Counter("ndpcr_cluster_rollback_leaked_deletes_total",
		"rollback deletes that failed, leaving a global object leaked")
	c.mBarrierSecs = c.reg.Histogram("ndpcr_cluster_barrier_seconds",
		"coordination barrier: slowest rank's snapshot + NVM commit wall time", metrics.UnitSeconds)
	c.mEncodeSecs = c.reg.Histogram("ndpcr_cluster_erasure_encode_seconds",
		"Reed-Solomon split+encode wall time per rank", metrics.UnitSeconds)
	c.mPlaceSecs = c.reg.Histogram("ndpcr_cluster_erasure_place_seconds",
		"shard placement wall time per rank", metrics.UnitSeconds)
	c.mRecoverSecs = c.reg.Histogram("ndpcr_cluster_recover_seconds",
		"wall time per cluster-wide recovery", metrics.UnitSeconds)
	for _, opt := range opts {
		opt(c)
	}
	if c.partner {
		if len(nodes) < 2 {
			return nil, errors.New("cluster: partner replication needs at least 2 ranks")
		}
		// Rank i's copies live on node (i+1) mod N. SetPartner rejects
		// self-buddying, so a misconfigured pairing can never count a
		// same-device copy as redundancy.
		for i, n := range nodes {
			if err := n.SetPartner(nodes[(i+1)%len(nodes)]); err != nil {
				return nil, fmt.Errorf("cluster: wire partner level: %w", err)
			}
		}
	}
	if c.eraGroup != 0 || c.eraParity != 0 {
		if err := c.setupErasure(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Size returns the rank count.
func (c *Cluster) Size() int { return len(c.ranks) }

// Metrics exposes the cluster's coordination metrics (barrier, erasure
// encode/placement, recovery timings). Per-node pipeline metrics live on
// each node's own registry (Node(i).Metrics()).
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// Node returns the runtime backing rank i (metrics, drain observation),
// or nil for an out-of-range rank.
func (c *Cluster) Node(i int) *node.Node {
	if i < 0 || i >= len(c.nodes) {
		return nil
	}
	return c.nodes[i]
}

// Checkpoint performs one coordinated checkpoint synchronously: it is
// CheckpointAsync plus a wait for that round's background propagation, so
// it returns once the checkpoint holds every configured local level
// (erasure set, else partner copies, else NVM alone). The NDP drain to
// global I/O stays in the background either way; follow with
// WaitDurable(ctx, id, ndp.LevelStore) for durable-at-I/O.
//
// Checkpoint is failure-atomic: if any rank's snapshot, commit, partner
// copy, or erasure encode fails, every trace of the aborted global ID is
// rolled back — committed NVM entries, partner copies, erasure shards, and
// any blocks an NDP drain already shipped to global I/O (best-effort
// delete) — and all nodes' checkpoint counters are resynchronized past the
// aborted ID, so the next Checkpoint succeeds with a strictly larger ID
// instead of failing "nodes out of sync" forever. The error names the
// failure that caused the abort and is returned after the rollback.
//
// The context bounds each rank's NVM admission wait and the wait for the
// round; if it ends mid-round the round still resolves in the background
// (a failure then reaches only WithOnAsyncError).
func (c *Cluster) Checkpoint(ctx context.Context, step int) (uint64, error) {
	id, round, err := c.checkpoint(ctx, step)
	if err != nil {
		return 0, err
	}
	select {
	case err = <-round:
	case <-ctx.Done():
		err = fmt.Errorf("cluster: checkpoint %d: waiting for propagation: %w", id, ctx.Err())
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// shardCount validates a PartitionedRank's snapshot frame and returns its
// shard count for metadata stamping; opaque ranks return 0. A
// PartitionedRank producing a non-frame snapshot is a checkpoint failure:
// committing it would poison every later elastic restore plan.
func (c *Cluster) shardCount(i int, snap []byte) (int, error) {
	if _, ok := c.ranks[i].(PartitionedRank); !ok {
		return 0, nil
	}
	n, err := elastic.ShardCount(snap)
	if err != nil {
		return 0, fmt.Errorf("cluster: rank %d partitioned snapshot: %w", i, err)
	}
	return n, nil
}

// markDurable advances one durability level's watermark on every rank.
func (c *Cluster) markDurable(level ndp.Level, id uint64) {
	for _, n := range c.nodes {
		n.Durability().MarkDurable(level, id)
	}
}

// rollback erases every trace of an aborted coordinated checkpoint and
// realigns the checkpoint counters. committed[i] is the ID rank i actually
// committed (0 if it never did — discards there are no-ops). Each level's
// removal is idempotent, and DiscardCommit's tracker failure guarantees a
// drain still in flight deletes rather than acknowledges the dead ID. A failed global
// delete (a leaked object on an unreachable store) is now visible — counted
// and surfaced through mInvErrors-adjacent accounting rather than silently
// dropped.
// Rollback deletes run on a background context internally: cleanup must be
// attempted even when the checkpoint's own context is already canceled.
func (c *Cluster) rollback(id uint64, committed []uint64) {
	for i, n := range c.nodes {
		if cid := committed[i]; cid != 0 {
			// Local NVM, the rank's in-flight drain, and its global object.
			if derr := n.DiscardCommit(cid); derr != nil {
				c.mLeakedDeletes.Inc()
			}
			// The buddy's partner copy of rank i.
			if c.partner {
				c.nodes[(i+1)%len(c.nodes)].DiscardPartnerCopy(i, cid)
			}
		}
		// Rank i's erasure shards on every holder (encode may have placed a
		// partial stripe before failing).
		if c.eraCode != nil {
			holders := c.shardHolders(i)
			for s := 0; s < c.eraGroup+c.eraParity; s++ {
				c.nodes[holders[s%len(holders)]].DiscardErasureShard(i, s, id)
			}
		}
	}
	// Resynchronize forward: everyone — including the cluster's own counter
	// — moves past both the aborted ID and the furthest node, so the next
	// Checkpoint issues one common, strictly larger ID and never reuses a
	// poisoned one.
	next := id + 1
	for _, n := range c.nodes {
		if nid := n.NextID(); nid > next {
			next = nid
		}
	}
	c.resync(next)
	c.mRollbacks.Inc()
}

// resync raises every node's checkpoint counter, and the cluster's, to at
// least next.
func (c *Cluster) resync(next uint64) {
	for _, n := range c.nodes {
		n.ResyncNextID(next)
	}
	c.mu.Lock()
	if next > c.nextID {
		c.nextID = next
	}
	c.mu.Unlock()
}

// available reports the checkpoint IDs rank i can restore from any level:
// its own NVM, its buddy's partner region, the erasure set, or the global
// store. The returned error (which wraps ErrLevelUnavailable) means the
// global store could not be *inventoried* — "level unreachable" — which is
// a different fact from the store reporting no checkpoints: the IDs it
// would have contributed are unknown, not absent. A sharded store draws the
// same line one level deeper: its IDs call succeeds (merging surviving
// replicas) while fewer than R backends are unreachable, and only reports
// an error — landing here — when enough backends are down that some
// object's every replica may be unreachable.
func (c *Cluster) available(ctx context.Context, i int) (map[uint64]bool, error) {
	out := make(map[uint64]bool)
	for _, id := range c.nodes[i].Device().IDs() {
		out[id] = true
	}
	if c.partner {
		buddy := c.nodes[(i+1)%len(c.nodes)]
		for _, id := range buddy.PartnerCopyIDs(i) {
			out[id] = true
		}
	}
	if c.eraCode != nil {
		router := &erasureRouter{c: c}
		for _, id := range router.ShardIDs(i) {
			out[id] = true
		}
	}
	var invErr error
	ids, err := c.store.IDs(ctx, c.job, i)
	if err != nil {
		// Masking this as "no checkpoints" would silently delete the I/O
		// level from the restart-line intersection and report
		// ErrNoRestartLine for what is really a transport outage.
		c.mInvErrors.Inc()
		invErr = fmt.Errorf("%w: rank %d global-store inventory: %v", ErrLevelUnavailable, i, err)
	}
	for _, id := range ids {
		out[id] = true
	}
	return out, invErr
}

// ErrNoRestartLine reports that no checkpoint ID is restorable by all
// ranks.
var ErrNoRestartLine = errors.New("cluster: no common restorable checkpoint")

// ErrLevelUnavailable reports that a storage level could not be
// inventoried during restart-line computation: the level's checkpoints are
// unknown, not absent. Callers should retry once the level is reachable
// rather than conclude no restart line exists.
var ErrLevelUnavailable = errors.New("cluster: storage level unreachable")

// restartLines computes the common restorable IDs, newest first, plus the
// first inventory failure encountered (nil when every level answered).
// Lines found despite an inventory failure are genuinely restorable — the
// surviving levels vouch for them — so recovery can still proceed on them.
func (c *Cluster) restartLines(ctx context.Context) ([]uint64, error) {
	return commonLines(len(c.ranks), func(i int) (map[uint64]bool, error) { return c.available(ctx, i) })
}

// RestartLines returns every checkpoint ID restorable by all ranks, newest
// first — the full fallback ladder of consistent rollback points (§4.2.3).
// Level inventories only prove presence, not readability: Recover walks
// this list so a line that turns out unreadable (corrupt object, lost
// shards) falls back to the next-older line instead of aborting.
func (c *Cluster) RestartLines(ctx context.Context) []uint64 {
	lines, _ := c.restartLines(ctx)
	return lines
}

// RestartLine returns the newest checkpoint ID restorable by every rank —
// the consistent rollback point of §4.2.3. When no line is found and a
// level could not be inventoried, the error wraps ErrLevelUnavailable
// (retry when the level returns) rather than ErrNoRestartLine (no
// checkpoint exists anywhere).
func (c *Cluster) RestartLine(ctx context.Context) (uint64, error) {
	lines, invErr := c.restartLines(ctx)
	if len(lines) == 0 {
		if invErr != nil {
			return 0, invErr
		}
		return 0, ErrNoRestartLine
	}
	return lines[0], nil
}

// RecoverOutcome describes a completed recovery.
type RecoverOutcome struct {
	// ID is the restart-line checkpoint all ranks rolled back to.
	ID uint64
	// Step is the application step recorded at that checkpoint.
	Step int
	// Levels records which storage level served each rank's restore.
	Levels []node.Level
	// FailedLines lists newer restart lines that were attempted and
	// abandoned (unreadable on some rank) before ID succeeded, newest
	// first; empty when the newest line restored cleanly.
	FailedLines []uint64
	// Plan is the restore plan that was executed — nil on the classic
	// same-shape path, set whenever the elastic planner ran (reshape or
	// store-only recovery).
	Plan *RestorePlan
}

// RecoverOptions selects the restart topology and line. The zero value
// reproduces the classic recovery: same rank count as the checkpoint,
// newest restart line first with fallback, every storage level in play.
type RecoverOptions struct {
	// SourceRanks is the rank count of the job when it checkpointed (N).
	// Zero means the checkpoint topology matches this cluster and selects
	// the classic multilevel recovery. Any non-zero value — equal to the
	// cluster's size or not — engages the restore planner over the global
	// store (an explicit topology implies the local levels may not
	// describe it).
	SourceRanks int
	// Line pins one specific restart line: recovery tries it and fails
	// rather than falling back. Zero walks lines newest to oldest.
	Line uint64
	// StoreOnly restores from the global store alone even when local
	// levels exist — the restore path of a cluster whose nodes are new
	// machines (every elastic restore is implicitly store-only for shard
	// fetches; StoreOnly additionally forces it for same-shape fetches).
	StoreOnly bool
}

// Recover rolls every rank back to a common restart line in parallel,
// walking the restart-line ladder newest to oldest (WalkLines): if any rank
// fails to restore at a line (corrupt object, insufficient erasure shards,
// buddy gone), the cluster falls back to the next-older common line instead
// of aborting — the multilevel hierarchy keeps recovery progressing through
// partial damage. Per-line attempts and fallbacks are recorded in metrics.
//
// Every recovery is one restore plan per line, executed by recoverPlan.
// With zero-value options the lines come from every storage level and the
// plan is the identity — each rank restores its own checkpoint through the
// full multilevel hierarchy. Options select an elastic N→M restore instead:
// lines come from the global store (the only level that survives a
// topology change), the planner (PlanRestore) re-shards opts.SourceRanks
// checkpointed snapshots onto this cluster's ranks, and the checkpoint
// counters resynchronize past the source job's newest ID so the restarted
// job appends rather than overwrites.
//
// The context bounds the global-I/O legs (inventories, fetches, shard
// failover): a deadline aborts the whole recovery rather than letting a
// retry schedule serve out.
func (c *Cluster) Recover(ctx context.Context, opts RecoverOptions) (RecoverOutcome, error) {
	recoverStart := time.Now()
	defer c.mRecoverSecs.ObserveSince(recoverStart)
	planned := opts.StoreOnly || opts.SourceRanks != 0
	sources := opts.SourceRanks
	if sources == 0 {
		sources = len(c.ranks)
	}
	inventory := func() ([]uint64, error) { return c.restartLines(ctx) }
	if planned {
		inventory = func() ([]uint64, error) { return StoreRestartLines(ctx, c.store, c.job, sources) }
	}
	var out RecoverOutcome
	failed, err := WalkLines(ctx, opts.Line, inventory, c.mFallbacks, func(line uint64) error {
		c.mLineAttempts.Inc()
		// Same-shape specs plan as identity without touching the store, so
		// the classic path costs no Stat calls here.
		plan, err := PlanRestore(ctx, c.store, c.job, RestoreSpec{
			SourceRanks: sources, TargetRanks: len(c.ranks), Line: line,
		})
		if err != nil {
			return err
		}
		if out, err = c.recoverPlan(ctx, plan, opts.StoreOnly); err != nil {
			return err
		}
		if planned {
			out.Plan = &plan
		}
		return nil
	})
	if err != nil {
		return RecoverOutcome{}, err
	}
	out.FailedLines = failed
	if planned {
		c.resyncAfterElastic(ctx, sources, out.ID)
	}
	c.mRecoveries.Inc()
	return out, nil
}

// WalkLines is the recovery ladder of §4.2.3, the one newest-to-oldest loop
// every restart-line walk runs: try the newest line every rank can restore,
// fall back to the next-older one when it turns out unreadable. The lines
// are the pinned one alone — a pinned line never falls back — or, with
// pinned zero, whatever inventory reports, newest first. The first line try
// accepts ends the walk; failed lists the lines abandoned before it, and
// fallbacks counts each line abandoned for an older one. A context that
// ends stops the walk: older lines cannot help a caller that is gone.
//
// An empty inventory reports its own error when it has one: with a level
// unreachable an empty intersection proves nothing, so the outage is
// reported, not a possibly false ErrNoRestartLine.
func WalkLines(ctx context.Context, pinned uint64, inventory func() ([]uint64, error),
	fallbacks *metrics.Counter, try func(line uint64) error) (failed []uint64, err error) {
	lines := []uint64{pinned}
	if pinned == 0 {
		var invErr error
		lines, invErr = inventory()
		if len(lines) == 0 {
			if invErr != nil {
				return nil, invErr
			}
			return nil, ErrNoRestartLine
		}
	}
	for i, line := range lines {
		if i > 0 {
			fallbacks.Inc()
		}
		if err = try(line); err == nil {
			return failed, nil
		}
		failed = append(failed, line)
		if ctx.Err() != nil {
			break
		}
	}
	return failed, fmt.Errorf("cluster: %d restart line(s) failed (newest to oldest %v): %w",
		len(failed), failed, err)
}

// recoverPlan executes one restore plan across all ranks in parallel. A
// rank whose state was already replaced by a newer, partially-successful
// attempt is simply re-restored: Rank.Restore replaces state wholesale, so
// the last fully-successful line wins. Targets that own no shards restore
// the empty frame with a synthetic step of -1; the step-consistency check
// skips them.
func (c *Cluster) recoverPlan(ctx context.Context, plan RestorePlan, storeOnly bool) (RecoverOutcome, error) {
	out := RecoverOutcome{ID: plan.Line, Step: -1, Levels: make([]node.Level, len(c.ranks))}
	errs := make([]error, len(c.ranks))
	steps := make([]int, len(c.ranks))
	var wg sync.WaitGroup
	for i := range c.ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, meta, level, err := c.nodes[i].RestoreElastic(ctx, plan.Targets[i], storeOnly)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: target %d restore %d: %w", i, plan.Line, err)
				return
			}
			if err := c.ranks[i].Restore(data); err != nil {
				errs[i] = fmt.Errorf("cluster: target %d apply restore: %w", i, err)
				return
			}
			out.Levels[i] = level
			steps[i] = meta.Step
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return RecoverOutcome{}, err
		}
	}
	for i, s := range steps {
		if s == -1 {
			continue // shardless target, synthetic metadata
		}
		if out.Step == -1 {
			out.Step = s
		} else if s != out.Step {
			return RecoverOutcome{}, fmt.Errorf(
				"cluster: inconsistent restart line %d: target %d at step %d, earlier targets at step %d",
				plan.Line, i, s, out.Step)
		}
	}
	return out, nil
}

// resyncAfterElastic moves every node's checkpoint counter — and the
// cluster's — past the source job's newest store object, so the restarted
// M-rank incarnation appends new checkpoints instead of overwriting the
// N-rank history it just restored from. Best-effort: an unreachable rank
// inventory can only make the resync conservative (the restored line
// itself is always cleared).
func (c *Cluster) resyncAfterElastic(ctx context.Context, sourceRanks int, line uint64) {
	next := line + 1
	for i := 0; i < sourceRanks; i++ {
		if id, ok, err := c.store.Latest(ctx, c.job, i); err == nil && ok && id+1 > next {
			next = id + 1
		}
	}
	c.resync(next)
}

// FailNode injects a node-local failure on rank i: its NVM is wiped and any
// in-flight drain aborted. The rank's in-memory state is presumed lost; the
// caller follows with Recover.
func (c *Cluster) FailNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: rank %d out of range", i)
	}
	c.nodes[i].FailLocal()
	return nil
}

// Close shuts every node down, first waiting for any in-flight async
// propagation rounds (their deferred aborts must run against live nodes).
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.propWG.Wait()
	for _, n := range c.nodes {
		n.Close()
	}
}
