package ndp

import (
	"context"
	"errors"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

func TestWaitDrainedCompletes(t *testing.T) {
	dev, _, eng := testRig(t, nil)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(5000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	if err := waitStore(eng, 1, 5*time.Second); err != nil {
		t.Fatalf("wait for 1: %v", err)
	}
	// Fast path: already drained, no waiter parked.
	if err := waitStore(eng, 1, time.Millisecond); err != nil {
		t.Errorf("wait for 1 after the drain completed: %v", err)
	}
}

func TestWaitDrainedSatisfiedByNewerDrain(t *testing.T) {
	dev, _, eng := testRig(t, nil)
	// Both checkpoints are resident before the bell rings, so the engine
	// skips straight to 2; the waiter on 1 must still be released.
	for id := uint64(1); id <= 2; id++ {
		if err := dev.Put(nvm.Checkpoint{ID: id, Data: ckptData(1000)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- waitStore(eng, 1, 5*time.Second) }()
	eng.Notify()
	if err := <-done; err != nil {
		t.Errorf("waiter on skipped checkpoint 1 not released by the drain of 2: %v", err)
	}
}

func TestWaitDrainedTimesOut(t *testing.T) {
	_, _, eng := testRig(t, nil)
	start := time.Now()
	if err := waitStore(eng, 1, 20*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait with nothing committed: %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("timeout wait overshot")
	}
}

func TestWaitDrainedUnblocksOnClose(t *testing.T) {
	_, _, eng := testRig(t, nil)
	done := make(chan error, 1)
	go func() { done <- waitStore(eng, 42, time.Minute) }()
	await(t, "the waiter parks", func() bool { return eng.Tracker().waiterCount() == 1 })
	eng.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("wait after Close: %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait still blocked after Close")
	}
}

func TestDiscardedCheckpointNeverDrains(t *testing.T) {
	dev, store, eng := testRig(t, nil)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(1000)}); err != nil {
		t.Fatal(err)
	}
	eng.Tracker().Fail(1, ErrDiscarded)
	eng.Notify()
	if err := waitStore(eng, 1, 50*time.Millisecond); !errors.Is(err, ErrCheckpointFailed) {
		t.Fatalf("wait on discarded checkpoint: %v, want ErrCheckpointFailed", err)
	}
	if _, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 1}); err == nil {
		t.Error("discarded checkpoint reached global I/O")
	}
	// The poisoned ID must not wedge the drain: a later commit drains
	// normally, and the dead ID keeps reporting its cause.
	if err := dev.Put(nvm.Checkpoint{ID: 2, Data: ckptData(1000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	if err := waitStore(eng, 2, 5*time.Second); err != nil {
		t.Fatalf("drain after a discarded checkpoint never completed: %v", err)
	}
	if _, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 2}); err != nil {
		t.Errorf("checkpoint 2 missing from global I/O: %v", err)
	}
	if err := waitStore(eng, 1, time.Millisecond); !errors.Is(err, ErrCheckpointFailed) {
		t.Errorf("discarded ID after a newer drain: %v, want ErrCheckpointFailed", err)
	}
}
