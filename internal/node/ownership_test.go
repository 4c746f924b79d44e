package node

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"ndpcr/internal/compress"
	"ndpcr/internal/faultinject"
)

// fetchIO restores id from the global store whatever the local levels hold.
func fetchIO(n *Node, id uint64) ([]byte, error) {
	data, _, _, err := collect(func(sink Sink) error {
		return n.fetchFromIO(context.Background(), n.cfg.Rank, id, sink)
	})
	return data, err
}

// TestRawDrainNeverReleasesDeviceMemory: the raw drain sends slices of the
// NVM region through the same sender the compressing pipeline releases its
// buffers in, and the last block of a region is a sub-slice whose capacity
// can be exactly a pool class (here: the second 4 KiB of an 8 KiB region) —
// Put's capacity check would take it. Ownership is the rule, not capacity: a
// raw block is device memory, never released. If it were, the restores
// churning 4 KiB buffers below would be handed the region's tail to fill (or,
// under the race detector, Put would have poisoned it), and the local restore
// would not be the committed bytes.
func TestRawDrainNeverReleasesDeviceMemory(t *testing.T) {
	n, _ := newNode(t, nil) // raw, 4 KiB blocks
	other := snapshot(8192, 2)
	otherID, err := n.Commit(context.Background(), other, Metadata{})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, otherID)

	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			if got, err := fetchIO(n, otherID); err != nil || !bytes.Equal(got, other) {
				t.Errorf("I/O restore of checkpoint %d: err %v, match %v", otherID, err, bytes.Equal(got, other))
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // restores running while the checkpoint under test drains
		defer wg.Done()
		churn(50)
	}()
	snap := snapshot(8192, 1)
	id, err := n.Commit(context.Background(), snap, Metadata{})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	wg.Wait()
	churn(20) // and after it: every pooled 4 KiB buffer is drawn and filled again

	got, _, level, err := n.RestoreID(context.Background(), id)
	if err != nil || level != LevelLocal {
		t.Fatalf("RestoreID = level %v, err %v; want the local level", level, err)
	}
	if !bytes.Equal(got, snap) {
		t.Error("the NVM region changed under a drained checkpoint: the raw drain released device memory")
	}
}

// TestAbortedRestoreReleasesNothingTwice: a restore that fails at its k-th
// fetch — the block corrupted on the way out of the store, so the decoder
// refuses it — leaves whatever was in flight as garbage: no buffer is released
// by the abort that an owner releases again, and none is released while a
// worker still reads it. The restore that follows, drawing from the same
// pool, is byte-identical (under the race detector every released buffer is
// poisoned first, so a use after release cannot go unseen).
func TestAbortedRestoreReleasesNothingTwice(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	saver, store := newNode(t, func(c *Config) { c.Codec = gz })
	snap := snapshot(8*4096, 3)
	id, err := saver.Commit(context.Background(), snap, Metadata{})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, saver, id)

	for k := 0; k < 8; k++ {
		in := faultinject.New(1, faultinject.Rule{
			Site: faultinject.SiteStoreGet, Rank: faultinject.AnyRank, Mode: faultinject.ModeCorrupt, After: k, Count: 1,
		})
		n, _ := newNode(t, func(c *Config) { c.Store, c.DisableNDP = faultinject.WrapStore(store, in), true })
		if data, _, _, err := n.RestoreID(context.Background(), id); err == nil {
			t.Fatalf("k=%d: a restore with a corrupted block returned %d bytes and no error", k, len(data))
		}
		for round := 0; round < 2; round++ {
			got, _, level, err := n.RestoreID(context.Background(), id)
			if err != nil || level != LevelIO || !bytes.Equal(got, snap) {
				t.Fatalf("k=%d: restore %d after the aborted one: level %v, err %v, match %v",
					k, round, level, err, bytes.Equal(got, snap))
			}
		}
	}
}
