package node

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/faultinject"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

func TestCommitAcksAtNVMThenReachesStore(t *testing.T) {
	n, store := newNode(t, nil)
	id, err := n.Commit(context.Background(), snapshot(8<<10, 1), Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The ack point: NVM durability is already established when
	// Commit returns, before any drain work.
	if !n.DurableAt(id, ndp.LevelNVM) {
		t.Fatal("Commit returned without NVM durability")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.WaitDurableCtx(ctx, id, ndp.LevelStore); err != nil {
		t.Fatalf("waiting for store durability: %v", err)
	}
	if !n.DurableAt(id, ndp.LevelStore) {
		t.Error("store watermark not visible after the wait resolved")
	}
	if _, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: id}); err != nil {
		t.Errorf("checkpoint %d missing from the store: %v", id, err)
	}
}

// TestCommitAdmissionNeverErrFull is the admission-control regression:
// concurrent commits against a near-full device whose residents are
// drain-locked (the store is fault-stalled, so locks are held long) must
// park and then be admitted as drains release space — never surface
// nvm.ErrFull to the committer.
func TestCommitAdmissionNeverErrFull(t *testing.T) {
	in := faultinject.New(7,
		faultinject.Rule{Site: faultinject.SiteStorePutBlock, Mode: faultinject.ModeStall, Delay: 5 * time.Millisecond},
	)
	inner := iostore.New(nvm.Pacer{})
	n, _ := newNode(t, func(c *Config) {
		c.Store = faultinject.WrapStore(inner, in)
		// Room for ~2 of the 60 KiB snapshots: committers must contend.
		c.NVMCapacity = 150 << 10
	})

	const commits = 8
	var wg sync.WaitGroup
	errs := make([]error, commits)
	ids := make([]uint64, commits)
	for i := 0; i < commits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			ids[i], errs[i] = n.Commit(ctx, snapshot(60<<10, byte(i)), Metadata{Step: i})
		}(i)
	}
	wg.Wait()
	var max uint64
	for i, err := range errs {
		if err != nil {
			if errors.Is(err, nvm.ErrFull) {
				t.Fatalf("commit %d surfaced ErrFull: %v", i, err)
			}
			t.Fatalf("commit %d: %v", i, err)
		}
		if ids[i] > max {
			max = ids[i]
		}
	}
	// Every acked ID must become store-durable (directly or superseded by
	// a newer drain — watermark semantics).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, id := range ids {
		if err := n.WaitDurableCtx(ctx, id, ndp.LevelStore); err != nil {
			t.Fatalf("acked commit %d (id %d) never became store-durable: %v", i, id, err)
		}
	}
	if _, err := inner.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: max}); err != nil {
		t.Errorf("newest checkpoint %d missing from the store: %v", max, err)
	}
}

// TestCommitBackpressureTypedError: when the device cannot admit
// within the caller's deadline because a drain-locked resident pins the
// space, the commit fails with the typed nvm.ErrBackpressure — not ErrFull,
// not a bare deadline error.
func TestCommitBackpressureTypedError(t *testing.T) {
	in := faultinject.New(7,
		faultinject.Rule{Site: faultinject.SiteStorePutBlock, Mode: faultinject.ModeStall, Delay: 2 * time.Second},
	)
	n, _ := newNode(t, func(c *Config) {
		c.Store = faultinject.WrapStore(iostore.New(nvm.Pacer{}), in)
		c.NVMCapacity = 100 << 10
	})
	if _, err := n.Commit(context.Background(), snapshot(70<<10, 1), Metadata{Step: 1}); err != nil {
		t.Fatal(err)
	}
	// Wait for the drain to lock the resident (the stalled store holds the
	// lock for its 2s stall — far past this test's admission deadline).
	deadline := time.After(5 * time.Second)
	for n.Device().LockedBytes() == 0 {
		select {
		case <-deadline:
			t.Fatal("drain never locked the resident")
		case <-time.After(time.Millisecond):
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := n.Commit(ctx, snapshot(70<<10, 2), Metadata{Step: 2})
	if !errors.Is(err, nvm.ErrBackpressure) {
		t.Fatalf("got %v, want nvm.ErrBackpressure", err)
	}
	if errors.Is(err, nvm.ErrFull) {
		t.Error("backpressure error must not alias ErrFull")
	}
}

func TestDiscardCommitFailsDurability(t *testing.T) {
	// A stalled store keeps the checkpoint un-drained long enough to
	// discard it first.
	in := faultinject.New(7,
		faultinject.Rule{Site: faultinject.SiteStorePutBlock, Mode: faultinject.ModeStall, Delay: 200 * time.Millisecond},
	)
	n, _ := newNode(t, func(c *Config) {
		c.Store = faultinject.WrapStore(iostore.New(nvm.Pacer{}), in)
	})
	id, err := n.Commit(context.Background(), snapshot(4<<10, 4), Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.DiscardCommit(id)
	err = n.WaitDurableCtx(context.Background(), id, ndp.LevelStore)
	if !errors.Is(err, ndp.ErrCheckpointFailed) {
		t.Fatalf("wait on discarded commit: got %v, want ErrCheckpointFailed", err)
	}
	if n.DurableAt(id, ndp.LevelStore) {
		t.Error("discarded commit reported store-durable")
	}
}
