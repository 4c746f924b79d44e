// The coordinated save path (VELOC-style, one implementation): the
// application is paused only for the local NVM captures — the commit
// barrier returns as soon as every rank's snapshot is NVM-durable — and a
// background round propagates the checkpoint through the redundancy
// hierarchy (partner copies, erasure encode; the per-node NDP engines carry
// it to global I/O concurrently). Completion is observable per level
// through each node's durability tracker; a propagation failure triggers a
// deferred abort that rolls the whole round back and marks the ID
// permanently failed, so waiters learn the checkpoint is gone rather than
// pending. The synchronous Checkpoint is this path plus a wait for the
// round's result.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ndpcr/internal/node"
	"ndpcr/internal/node/ndp"
)

// CheckpointAsync performs one coordinated checkpoint and returns at the
// commit barrier: all ranks snapshot and commit to local NVM under the same
// global ID — under admission control when drain-locked residents crowd the
// device (ctx bounds the wait; nvm.ErrBackpressure on expiry) — and the
// call returns as soon as the last rank's NVM write lands. Partner copies
// and the erasure encode run in a background propagation round; the NDP
// engines drain to global I/O as usual.
//
// Use WaitDurable / per-node WaitDurableCtx to await any level. A failed
// commit barrier is rolled back before the call returns; a failed
// background propagation is a *deferred abort* — the round is rolled back
// at every level, the ID is permanently failed on every rank's tracker, and
// the error is reported through WithOnAsyncError.
func (c *Cluster) CheckpointAsync(ctx context.Context, step int) (uint64, error) {
	id, _, err := c.checkpoint(ctx, step)
	return id, err
}

// checkpoint is the one save path: the snapshot/commit barrier, then a
// background propagation round whose result (nil, or the abort's cause once
// the rollback finished) is delivered on the returned channel.
func (c *Cluster) checkpoint(ctx context.Context, step int) (uint64, <-chan error, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, nil, errors.New("cluster: closed")
	}
	want := c.nextID
	c.nextID++
	c.mu.Unlock()

	barrierStart := time.Now()
	errs := make([]error, len(c.ranks))
	snaps := make([][]byte, len(c.ranks))
	committed := make([]uint64, len(c.ranks)) // 0 = this rank never committed
	var wg sync.WaitGroup
	for i := range c.ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := c.ranks[i].Snapshot()
			if err != nil {
				errs[i] = fmt.Errorf("cluster: rank %d snapshot: %w", i, err)
				return
			}
			snaps[i] = snap
			meta := node.Metadata{Job: c.job, Rank: i, Step: step}
			if meta.Shards, errs[i] = c.shardCount(i, snap); errs[i] != nil {
				return
			}
			id, err := c.nodes[i].Commit(ctx, snap, meta)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: rank %d commit: %w", i, err)
				return
			}
			committed[i] = id
			if id != want {
				errs[i] = fmt.Errorf("cluster: rank %d committed id %d, expected %d (nodes out of sync)",
					i, id, want)
			}
		}(i)
	}
	wg.Wait()
	// The barrier is the slowest rank's snapshot + NVM commit: every rank
	// stays paused until all have committed (Fig. 3's coordinated timeline),
	// and the pause excludes partner copies, the erasure encode, and the I/O
	// drain.
	c.mBarrierSecs.ObserveSince(barrierStart)
	for _, err := range errs {
		if err != nil {
			c.mCkptErrors.Inc()
			c.rollback(want, committed)
			return 0, nil, err
		}
	}
	round := make(chan error, 1) // one send; CheckpointAsync never receives
	c.propWG.Add(1)
	go c.propagate(want, step, snaps, committed, round)
	c.mCkpts.Inc()
	return want, round, nil
}

// propagate runs one background propagation round: partner copies for
// every rank (parallel), then the erasure encode — which therefore only
// ever sees fully committed checkpoints (shards of ID n imply all ranks
// committed n). Rounds are serialized in commit order. Any failure is a
// deferred abort: rollback at every level plus a permanent per-rank failure
// mark (rollback's DiscardCommit fails the ID on each tracker), so
// watermark waiters resolve instead of hanging. The round's result is sent
// once the rollback is complete, so a synchronous caller that sees the
// error also sees zero residue.
func (c *Cluster) propagate(id uint64, step int, snaps [][]byte, committed []uint64, round chan<- error) {
	defer c.propWG.Done()
	c.propMu.Lock()
	defer c.propMu.Unlock()

	var firstErr error
	if c.partner {
		errs := make([]error, len(c.ranks))
		var wg sync.WaitGroup
		for i := range c.ranks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				meta := node.Metadata{Job: c.job, Rank: i, Step: step}
				buddy := c.nodes[(i+1)%len(c.nodes)]
				if err := buddy.StorePartnerCopy(i, id, snaps[i], meta); err != nil {
					errs[i] = fmt.Errorf("cluster: rank %d partner copy %d: %w", i, id, err)
					return
				}
				c.nodes[i].Durability().MarkDurable(ndp.LevelPartner, id)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr == nil && c.eraCode != nil {
		if err := c.encodeErasure(id, step, snaps); err != nil {
			firstErr = fmt.Errorf("cluster: erasure encode %d: %w", id, err)
		} else {
			c.markDurable(ndp.LevelErasure, id)
		}
	}
	if firstErr != nil {
		c.mCkptErrors.Inc()
		c.rollback(id, committed)
		if c.onAsyncErr != nil {
			c.onAsyncErr(firstErr)
		}
	}
	round <- firstErr
}

// WaitDurable blocks until checkpoint id is durable at level on every
// rank, any rank permanently fails it (error wraps ndp.ErrCheckpointFailed),
// ctx ends, or the cluster shuts down.
func (c *Cluster) WaitDurable(ctx context.Context, id uint64, level ndp.Level) error {
	for i, n := range c.nodes {
		if err := n.WaitDurableCtx(ctx, id, level); err != nil {
			return fmt.Errorf("cluster: rank %d durability %d@%s: %w", i, id, level, err)
		}
	}
	return nil
}

// DurableAt reports whether checkpoint id is durable at level on every
// rank.
func (c *Cluster) DurableAt(id uint64, level ndp.Level) bool {
	for _, n := range c.nodes {
		if !n.DurableAt(id, level) {
			return false
		}
	}
	return true
}
