package shardstore

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
)

// TestAddedBackendsTakeLoadOffTheOthers: 256 single-block keys at R = 2 over
// 1, 2 and 4 backends. Placement is hashed from the fixed member names and
// the keys, so the counts are exact and repeatable: every backend receives
// within a quarter of its even share of the 256·R writes — a backend added
// to the set takes load off the others instead of idling beside them.
func TestAddedBackendsTakeLoadOffTheOthers(t *testing.T) {
	const keys = 256
	for _, n := range []int{1, 2, 4} {
		s, flakies, _ := rig(t, n, Config{Replicas: 2})
		for id := uint64(1); id <= keys; id++ {
			if err := s.Put(context.Background(), obj(id, "x")); err != nil {
				t.Fatal(err)
			}
		}
		share := keys * int64(min(2, n)) / int64(n)
		var total int64
		for i, f := range flakies {
			got := f.calls.Load()
			total += got
			if got < share*3/4 || got > share*5/4 {
				t.Errorf("%d backends: iod-%d received %d writes, want %d ± 25%%", n, i, got, share)
			}
		}
		if total != share*int64(n) {
			t.Errorf("%d backends: %d writes in all, want %d", n, total, share*int64(n))
		}
	}
}

// TestMoverBudgetBoundsCopiesBesideForegroundWrites: a decommission has 32
// objects to migrate and every move parks on a gate. Exactly moverBudget
// moves are ever in flight, and with all of them parked a foreground write
// still completes — the mover holds no lock a writer needs.
func TestMoverBudgetBoundsCopiesBesideForegroundWrites(t *testing.T) {
	var inFlight, over atomic.Int64
	entered := make(chan struct{}, 64) // every move of the test announces itself without blocking
	gate := make(chan struct{})
	s, _, _ := rig(t, 5, Config{Replicas: 2, MoveFault: func(iostore.Key) error {
		if n := inFlight.Add(1); n > moverBudget {
			over.Store(n)
		}
		defer inFlight.Add(-1)
		entered <- struct{}{}
		<-gate
		return nil
	}})
	for id := uint64(1); id <= 32; id++ {
		if err := s.Put(context.Background(), obj(id, "to-migrate")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Decommission("iod-0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < moverBudget; i++ {
		select {
		case <-entered:
		case <-ctx.Done():
			t.Fatalf("%d of %d movers started", i, moverBudget)
		}
	}
	if err := s.Put(ctx, obj(1000, "foreground")); err != nil {
		t.Fatalf("foreground write beside %d parked movers: %v", moverBudget, err)
	}
	close(gate)
	if err := s.WaitDecommissioned(ctx, "iod-0"); err != nil {
		t.Fatal(err)
	}
	if n := over.Load(); n != 0 {
		t.Errorf("%d moves in flight at once, budget %d", n, moverBudget)
	}
}
