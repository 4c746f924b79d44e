package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// TestCommitFailureDoesNotBurnID is the regression for the ID-burn bug:
// Commit used to increment nextID before the NVM write, so a failed write
// consumed the ID and the node drifted ahead of its peers forever. A failed
// Commit must leave the counter untouched and offer the same ID on retry.
func TestCommitFailureDoesNotBurnID(t *testing.T) {
	n, _ := newNode(t, nil)
	injected := errors.New("boom")
	fail := true
	n.Device().SetFaultHook(func(op string, id uint64) error {
		if op == "put" && fail {
			return injected
		}
		return nil
	})
	if _, err := n.Commit(context.Background(), snapshot(1000, 1), Metadata{Step: 1}); !errors.Is(err, injected) {
		t.Fatalf("commit error = %v, want injected", err)
	}
	if got := n.NextID(); got != 1 {
		t.Fatalf("NextID after failed commit = %d, want 1 (ID not burned)", got)
	}
	fail = false
	id, err := n.Commit(context.Background(), snapshot(1000, 1), Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("retried commit id = %d, want 1", id)
	}
	if got := n.NextID(); got != 2 {
		t.Errorf("NextID = %d, want 2", got)
	}
}

// TestCommitTooLargeDoesNotBurnID covers the original failure mode — an
// oversized snapshot rejected by the device — without any injection hooks.
func TestCommitTooLargeDoesNotBurnID(t *testing.T) {
	n, _ := newNode(t, func(cfg *Config) { cfg.NVMCapacity = 4096 })
	if _, err := n.Commit(context.Background(), snapshot(8192, 1), Metadata{Step: 1}); !errors.Is(err, nvm.ErrTooLarge) {
		t.Fatalf("oversized commit error = %v, want ErrTooLarge", err)
	}
	id, err := n.Commit(context.Background(), snapshot(1024, 1), Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("commit after rejected oversize got id %d, want 1", id)
	}
}

// TestResyncNextIDOnlyRaises verifies the cluster's forward resync cannot
// rewind a node's counter (rewinding would reuse a poisoned ID).
func TestResyncNextIDOnlyRaises(t *testing.T) {
	n, _ := newNode(t, nil)
	if _, err := n.Commit(context.Background(), snapshot(100, 1), Metadata{Step: 1}); err != nil {
		t.Fatal(err)
	}
	n.ResyncNextID(7)
	if got := n.NextID(); got != 7 {
		t.Errorf("NextID after resync = %d, want 7", got)
	}
	n.ResyncNextID(3)
	if got := n.NextID(); got != 7 {
		t.Errorf("NextID lowered to %d by a stale resync", got)
	}
}

// TestDiscardCommitErasesEveryLevel verifies the per-node abort path: after
// a drained commit is discarded, neither the NVM nor the global store holds
// the ID, and discarding an unknown ID is a harmless no-op.
func TestDiscardCommitErasesEveryLevel(t *testing.T) {
	n, store := newNode(t, nil)
	id, err := n.Commit(context.Background(), snapshot(5000, 1), Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	if _, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: id}); err != nil {
		t.Fatalf("drained object missing before discard: %v", err)
	}
	n.DiscardCommit(id)
	for _, got := range n.Device().IDs() {
		if got == id {
			t.Errorf("NVM still holds discarded checkpoint %d", id)
		}
	}
	if _, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: id}); !errors.Is(err, iostore.ErrNotFound) {
		t.Errorf("global object survives discard: err = %v", err)
	}
	n.DiscardCommit(999) // never committed: must not panic or error
}

// TestCommitIDsStayDenseAcrossFailures exercises a failure mid-sequence:
// IDs before and after the failed commit stay consecutive.
func TestCommitIDsStayDenseAcrossFailures(t *testing.T) {
	n, _ := newNode(t, nil)
	failOn := uint64(0)
	n.Device().SetFaultHook(func(op string, id uint64) error {
		if op == "put" && id == failOn {
			return fmt.Errorf("scheduled failure at %d", id)
		}
		return nil
	})
	commit := func() (uint64, error) { return n.Commit(context.Background(), snapshot(500, 2), Metadata{Step: 1}) }
	if id, err := commit(); err != nil || id != 1 {
		t.Fatalf("commit 1: id=%d err=%v", id, err)
	}
	failOn = 2
	if _, err := commit(); err == nil {
		t.Fatal("scheduled failure did not fire")
	}
	failOn = 0
	for want := uint64(2); want <= 4; want++ {
		id, err := commit()
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Errorf("commit got id %d, want %d", id, want)
		}
	}
}

// TestAbandonedReservationDoesNotBurnID is the aborted-body case: a commit
// whose bytes never all arrive (the reservation is released, never
// published) leaves the ID counter and the device's occupancy where they
// were, and the next commit gets the ID the abandoned one would have.
func TestAbandonedReservationDoesNotBurnID(t *testing.T) {
	n, _ := newNode(t, func(cfg *Config) { cfg.DisableNDP = true })
	if id, err := n.Commit(context.Background(), snapshot(1000, 1), Metadata{Step: 1}); err != nil || id != 1 {
		t.Fatalf("commit 1: id=%d err=%v", id, err)
	}
	used := n.Device().Used()
	r, err := n.Reserve(context.Background(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	copy(r.Data, snapshot(2500, 2)) // half a body, then the reader errors
	r.Release()
	if got := n.NextID(); got != 2 {
		t.Errorf("NextID after an abandoned reservation = %d, want 2", got)
	}
	if got := n.Device().Used(); got != used {
		t.Errorf("NVM used = %d after an abandoned reservation, want %d", got, used)
	}
	if id, err := n.Commit(context.Background(), snapshot(1000, 3), Metadata{Step: 2}); err != nil || id != 2 {
		t.Errorf("commit after the abandoned one: id=%d err=%v, want 2", id, err)
	}
}

// TestConcurrentFillsPublishInOrder: reservations fill in parallel, holding
// nothing, and IDs are handed out in publish order, dense.
func TestConcurrentFillsPublishInOrder(t *testing.T) {
	n, _ := newNode(t, func(cfg *Config) { cfg.DisableNDP = true })
	var rs []*nvm.Reservation
	for i := 0; i < 4; i++ {
		r, err := n.Reserve(context.Background(), 100)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	for i := len(rs) - 1; i >= 0; i-- { // last reserved, first published
		copy(rs[i].Data, snapshot(100, byte(i)))
		id, err := n.Publish(context.Background(), rs[i], Metadata{Step: i})
		if want := uint64(len(rs) - i); err != nil || id != want {
			t.Fatalf("publish of reservation %d: id=%d err=%v, want id %d", i, id, err, want)
		}
	}
	got, meta, _, err := n.RestoreID(context.Background(), 1)
	if err != nil || meta.Step != 3 || !bytes.Equal(got, snapshot(100, 3)) {
		t.Errorf("checkpoint 1 = step %d, err %v; want the last reservation's bytes", meta.Step, err)
	}
}
