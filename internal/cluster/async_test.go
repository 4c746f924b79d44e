package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/faultinject"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// stepAll advances every rank's app once.
func stepAll(t *testing.T, apps []*appRank) {
	t.Helper()
	for _, a := range apps {
		if err := a.app.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointAsyncReachesAllLevels(t *testing.T) {
	c, apps, inner := chaosCluster(t, 4, faultinject.New(1),
		WithPartnerReplication(), WithErasureSets(2, 1))
	stepAll(t, apps)
	id, err := c.CheckpointAsync(context.Background(), apps[0].app.StepCount())
	if err != nil {
		t.Fatal(err)
	}
	// The async ack point: every rank is NVM-durable already.
	if !c.DurableAt(id, ndp.LevelNVM) {
		t.Fatal("CheckpointAsync returned before all ranks were NVM-durable")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, lvl := range []ndp.Level{ndp.LevelPartner, ndp.LevelErasure, ndp.LevelStore} {
		if err := c.WaitDurable(ctx, id, lvl); err != nil {
			t.Fatalf("waiting for %s durability: %v", lvl, err)
		}
	}
	// Partner copies and erasure shards really landed: restores by level
	// are covered elsewhere; here check the store holds every rank.
	for i := 0; i < 4; i++ {
		ids, err := inner.IDs(context.Background(), "job", i)
		if err != nil || !contains(ids, id) {
			t.Errorf("rank %d: checkpoint %d not in the store (ids=%v err=%v)", i, id, ids, err)
		}
	}
}

// fixedRank serves a settable snapshot (asymmetric sizes drive the
// partner-copy failure below).
type fixedRank struct {
	mu   sync.Mutex
	data []byte
}

func (r *fixedRank) Snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.data...), nil
}

func (r *fixedRank) Restore([]byte) error { return nil }

func (r *fixedRank) set(data []byte) {
	r.mu.Lock()
	r.data = data
	r.mu.Unlock()
}

// partnerFailCluster builds a two-rank partner-replicated cluster in which
// rank 0's snapshot fits its own NVM but not its buddy's (smaller) partner
// region, so the commit barrier succeeds and the partner copy fails in the
// propagation round. Shrinking ranks[0] makes later rounds succeed. errCh
// receives WithOnAsyncError reports.
func partnerFailCluster(t *testing.T) (*Cluster, []*fixedRank, *iostore.Store, chan error) {
	t.Helper()
	store := iostore.New(nvm.Pacer{})
	caps := []int64{1 << 20, 32 << 10} // rank 1's partner region: 32 KiB
	nodes := make([]*node.Node, 2)
	ranks := []*fixedRank{{data: make([]byte, 64<<10)}, {data: make([]byte, 4<<10)}}
	rankIfaces := make([]Rank, 2)
	for i := range nodes {
		var err error
		nodes[i], err = node.New(node.Config{
			Job: "job", Rank: i, Store: store,
			BlockSize: 1 << 16, NVMCapacity: caps[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		rankIfaces[i] = ranks[i]
	}
	errCh := make(chan error, 4)
	c, err := New("job", store, nodes, rankIfaces,
		WithPartnerReplication(),
		WithOnAsyncError(func(err error) {
			select {
			case errCh <- err:
			default:
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, ranks, store, errCh
}

// TestCheckpointAsyncDeferredAbort forces a partner-copy failure in the
// background propagation round. The barrier has already acked, so the
// failure must surface as a deferred abort — the round rolled back, the ID
// permanently failed on every rank's tracker, and the error reported
// through WithOnAsyncError. No silent loss: waiters learn the checkpoint is
// gone instead of blocking or being told it is durable.
func TestCheckpointAsyncDeferredAbort(t *testing.T) {
	c, ranks, _, errCh := partnerFailCluster(t)

	id, err := c.CheckpointAsync(context.Background(), 1)
	if err != nil {
		t.Fatalf("commit barrier failed (fault should hit propagation, not commit): %v", err)
	}
	// The abort is asynchronous: synchronize on its report before
	// asserting, so the test is deterministic regardless of how far the
	// concurrent store drain got.
	select {
	case aerr := <-errCh:
		if aerr == nil {
			t.Fatal("nil async error reported")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deferred abort never reported through WithOnAsyncError")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	werr := c.WaitDurable(ctx, id, ndp.LevelStore)
	if !errors.Is(werr, ndp.ErrCheckpointFailed) {
		t.Fatalf("deferred abort: wait got %v, want ErrCheckpointFailed", werr)
	}
	if c.DurableAt(id, ndp.LevelPartner) || c.DurableAt(id, ndp.LevelStore) {
		t.Error("aborted checkpoint still reported durable")
	}

	// The failed round must not wedge the cluster: shrink the offending
	// snapshot and the next async round succeeds end to end with a
	// strictly larger ID.
	ranks[0].set(make([]byte, 4<<10))
	id2, err := c.CheckpointAsync(context.Background(), 2)
	if err != nil {
		t.Fatalf("checkpoint after deferred abort: %v", err)
	}
	if id2 <= id {
		t.Fatalf("next ID %d not larger than aborted %d", id2, id)
	}
	if err := c.WaitDurable(ctx, id2, ndp.LevelStore); err != nil {
		t.Fatalf("round after deferred abort never became store-durable: %v", err)
	}
	if err := c.WaitDurable(ctx, id2, ndp.LevelPartner); err != nil {
		t.Fatalf("round after deferred abort never became partner-durable: %v", err)
	}
}

// TestCheckpointAsyncRoundsSerialize runs several async rounds back to
// back without waiting and verifies they all converge to store durability
// (propagation rounds are serialized internally, so out-of-order completion
// cannot interleave partner/erasure writes of different rounds).
func TestCheckpointAsyncRoundsSerialize(t *testing.T) {
	c, apps, _ := chaosCluster(t, 2, faultinject.New(1), WithPartnerReplication())
	var ids []uint64
	for round := 0; round < 5; round++ {
		stepAll(t, apps)
		id, err := c.CheckpointAsync(context.Background(), apps[0].app.StepCount())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, id := range ids {
		if err := c.WaitDurable(ctx, id, ndp.LevelStore); err != nil {
			t.Fatalf("checkpoint %d never store-durable: %v", id, err)
		}
		if err := c.WaitDurable(ctx, id, ndp.LevelPartner); err != nil {
			t.Fatalf("checkpoint %d never partner-durable: %v", id, err)
		}
	}
}

// TestCheckpointSyncPropagationFailure: the synchronous Checkpoint is the
// async path plus a wait, so a partner-copy failure — which now happens in
// the propagation round, after the barrier — must still come back as the
// call's error, naming its cause, only after the rollback left zero residue
// at every level; and the next Checkpoint gets a strictly larger ID.
func TestCheckpointSyncPropagationFailure(t *testing.T) {
	c, ranks, store, _ := partnerFailCluster(t)
	ctx := context.Background()

	_, err := c.Checkpoint(ctx, 1)
	if err == nil {
		t.Fatal("Checkpoint succeeded although rank 0's partner copy cannot fit")
	}
	if !errors.Is(err, nvm.ErrTooLarge) || !strings.Contains(err.Error(), "partner copy") {
		t.Fatalf("Checkpoint error does not name the cause (partner copy, too large): %v", err)
	}
	const dead = 1
	// NVM and partner residue must be gone by the time the error returns.
	for i := 0; i < 2; i++ {
		if contains(c.Node(i).Device().IDs(), dead) {
			t.Errorf("rank %d NVM still holds aborted checkpoint %d", i, dead)
		}
		if contains(c.Node((i+1)%2).PartnerCopyIDs(i), dead) {
			t.Errorf("rank %d partner copy of aborted checkpoint %d survives", i, dead)
		}
		if c.Node(i).DurableAt(dead, ndp.LevelNVM) {
			t.Errorf("rank %d still reports aborted checkpoint %d durable", i, dead)
		}
	}

	ranks[0].set(make([]byte, 4<<10))
	id2, err := c.Checkpoint(ctx, 2)
	if err != nil {
		t.Fatalf("checkpoint after the aborted round: %v", err)
	}
	if id2 <= dead {
		t.Fatalf("next ID %d not larger than aborted %d", id2, dead)
	}
	if !c.DurableAt(id2, ndp.LevelPartner) {
		t.Error("synchronous Checkpoint returned before the partner level was durable")
	}
	// Each engine drains serially, so once id2 is on the store any drain of
	// the dead ID has finished — and must have deleted what it shipped.
	waitStore(t, c, id2, 10*time.Second)
	for i := 0; i < 2; i++ {
		ids, err := store.IDs(ctx, "job", i)
		if err != nil {
			t.Fatal(err)
		}
		if contains(ids, dead) {
			t.Errorf("rank %d global object for aborted checkpoint %d survives", i, dead)
		}
	}
}
