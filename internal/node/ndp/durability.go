// Durability tracking for the asynchronous checkpoint mode: a VELOC-style
// per-node state machine that follows each checkpoint ID through the
// redundancy hierarchy (local NVM → partner copy → erasure set → global
// I/O) and exposes "checkpoint v is durable at level L" as a queryable and
// awaitable watermark. The tracker is the single completion surface for
// async commits: the engine marks LevelStore as drains land, the cluster
// marks LevelPartner/LevelErasure as its background propagation completes,
// and an aborted checkpoint is marked failed so waiters learn the ID will
// never arrive instead of blocking forever.
package ndp

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Level identifies one rung of the durability hierarchy a checkpoint climbs
// after its commit: the levels are ordered by cost of loss, and each keeps
// its own watermark. (Distinct from node.Level, which reports which rung
// served a restore.)
type Level int

// Durability levels, in propagation order.
const (
	// LevelNVM: the snapshot is in node-local NVM — the async commit's ack
	// point.
	LevelNVM Level = iota
	// LevelPartner: the partner node holds a redundant copy.
	LevelPartner
	// LevelErasure: the erasure set holds the rank's encoded shards.
	LevelErasure
	// LevelStore: the global I/O store holds the full object — the
	// strongest level, equivalent to the synchronous durable-before-ack
	// guarantee.
	LevelStore

	numLevels
)

func (l Level) String() string {
	switch l {
	case LevelNVM:
		return "nvm"
	case LevelPartner:
		return "partner"
	case LevelErasure:
		return "erasure"
	case LevelStore:
		return "store"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel maps a level name ("nvm", "partner", "erasure", "store") to
// its Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "nvm", "local":
		return LevelNVM, nil
	case "partner":
		return LevelPartner, nil
	case "erasure":
		return LevelErasure, nil
	case "store", "io":
		return LevelStore, nil
	}
	return 0, fmt.Errorf("ndp: unknown durability level %q", s)
}

// Tracker errors.
var (
	// ErrCheckpointFailed reports that the awaited checkpoint was
	// permanently failed (propagation exhausted its retries, or the
	// coordinated checkpoint aborted) and will never reach the level.
	ErrCheckpointFailed = errors.New("ndp: checkpoint permanently failed")
	// ErrStopped reports the tracker was closed while waiting.
	ErrStopped = errors.New("ndp: durability tracker stopped")
	// ErrDiscarded is the failure cause recorded for checkpoints rolled
	// back by a coordinated-checkpoint abort or an explicit discard.
	ErrDiscarded = errors.New("checkpoint discarded by rollback")
)

// durWaiter parks one WaitDurableCtx call; ch (buffered 1) receives nil
// once the level's watermark reaches the ID, or the failure cause if the
// ID is permanently failed first.
type durWaiter struct {
	id    uint64
	level Level
	ch    chan error
}

// Tracker is the per-node durability state machine. All methods are safe
// for concurrent use. Watermark semantics are "id or newer": a level's
// watermark at X means the state as of checkpoint X is held there — the
// newest-first drain policy may skip stale intermediates, whose state is
// superseded rather than lost.
type Tracker struct {
	mu    sync.Mutex
	marks [numLevels]uint64
	has   [numLevels]bool
	// failed holds permanently failed checkpoint IDs with their first
	// cause. IDs are never reused after a failure (counters resync
	// forward), so entries are permanent and the map stays small.
	failed map[uint64]error
	// waiters is keyed by a token so an abandoned wait (ctx cancel, stop)
	// removes exactly its own entry — the set stays bounded by the number
	// of concurrent waiters, never by the history of timed-out ones.
	waiters map[uint64]*durWaiter
	nextTok uint64
	closed  bool
	stop    chan struct{}
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		failed:  make(map[uint64]error),
		waiters: make(map[uint64]*durWaiter),
		stop:    make(chan struct{}),
	}
}

// MarkDurable advances a level's watermark to id (watermarks never move
// backwards) and wakes every waiter the new watermark satisfies.
func (t *Tracker) MarkDurable(level Level, id uint64) {
	if level < 0 || level >= numLevels {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.has[level] && id <= t.marks[level] {
		return
	}
	t.marks[level] = id
	t.has[level] = true
	for tok, w := range t.waiters {
		if w.level == level && id >= w.id {
			if cause, bad := t.failed[w.id]; bad {
				w.ch <- fmt.Errorf("%w: checkpoint %d: %v", ErrCheckpointFailed, w.id, cause)
			} else {
				w.ch <- nil
			}
			delete(t.waiters, tok)
		}
	}
}

// Fail marks id permanently failed with the given cause (the first cause
// wins) and wakes waiters for that exact ID at every level. A failed ID is
// never reported durable by DurableAt or WaitDurableCtx, even if a level's
// watermark later passes it.
func (t *Tracker) Fail(id uint64, cause error) {
	if cause == nil {
		cause = errors.New("unspecified failure")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.failed[id]; !dup {
		t.failed[id] = cause
	}
	first := t.failed[id]
	for tok, w := range t.waiters {
		if w.id == id {
			w.ch <- fmt.Errorf("%w: checkpoint %d: %v", ErrCheckpointFailed, id, first)
			delete(t.waiters, tok)
		}
	}
}

// Watermark returns a level's current watermark; ok is false before
// anything reached the level.
func (t *Tracker) Watermark(level Level) (uint64, bool) {
	if level < 0 || level >= numLevels {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.marks[level], t.has[level]
}

// DurableAt reports whether checkpoint id is durable at level: the level's
// watermark has reached id (or newer — superseded state counts) and the ID
// was not permanently failed.
func (t *Tracker) DurableAt(id uint64, level Level) bool {
	if level < 0 || level >= numLevels {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, bad := t.failed[id]; bad {
		return false
	}
	return t.has[level] && t.marks[level] >= id
}

// FailedErr returns the failure cause recorded for id, or nil if the ID
// was not failed.
func (t *Tracker) FailedErr(id uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed[id]
}

// WaitDurableCtx blocks until checkpoint id is durable at level (nil), the
// ID is permanently failed (error wrapping ErrCheckpointFailed), ctx ends
// (ctx.Err()), or the tracker stops (ErrStopped). A wait abandoned by ctx
// or stop removes its own waiter entry immediately — abandoned waiters
// never accumulate until the next completion sweep.
func (t *Tracker) WaitDurableCtx(ctx context.Context, id uint64, level Level) error {
	if level < 0 || level >= numLevels {
		return fmt.Errorf("ndp: invalid durability level %d", int(level))
	}
	t.mu.Lock()
	if cause, bad := t.failed[id]; bad {
		t.mu.Unlock()
		return fmt.Errorf("%w: checkpoint %d: %v", ErrCheckpointFailed, id, cause)
	}
	if t.has[level] && t.marks[level] >= id {
		t.mu.Unlock()
		return nil
	}
	if t.closed {
		t.mu.Unlock()
		return ErrStopped
	}
	tok := t.nextTok
	t.nextTok++
	w := &durWaiter{id: id, level: level, ch: make(chan error, 1)}
	t.waiters[tok] = w
	t.mu.Unlock()

	select {
	case err := <-w.ch:
		return err
	case <-ctx.Done():
		t.removeWaiter(tok, w)
		// A completion racing the cancel may have delivered already;
		// prefer the definitive answer over a spurious timeout.
		select {
		case err := <-w.ch:
			return err
		default:
		}
		return ctx.Err()
	case <-t.stop:
		t.removeWaiter(tok, w)
		select {
		case err := <-w.ch:
			return err
		default:
		}
		// The stop may have raced the completion the waiter was parked
		// for: re-check state before reporting a shutdown, so a drained
		// checkpoint is never mis-reported as not-durable.
		if t.DurableAt(id, level) {
			return nil
		}
		if cause := t.FailedErr(id); cause != nil {
			return fmt.Errorf("%w: checkpoint %d: %v", ErrCheckpointFailed, id, cause)
		}
		return ErrStopped
	}
}

// removeWaiter deletes one abandoned waiter entry.
func (t *Tracker) removeWaiter(tok uint64, w *durWaiter) {
	t.mu.Lock()
	if cur, ok := t.waiters[tok]; ok && cur == w {
		delete(t.waiters, tok)
	}
	t.mu.Unlock()
}

// waiterCount reports the parked-waiter population (leak regression tests).
func (t *Tracker) waiterCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.waiters)
}

// Close releases every parked waiter with ErrStopped (or their definitive
// result, if the completion raced the stop) and fails future waits fast.
// Safe to call multiple times.
func (t *Tracker) Close() {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		close(t.stop)
	}
	t.mu.Unlock()
}
