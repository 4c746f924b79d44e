package node

import (
	"bytes"
	"context"
	"testing"

	"ndpcr/internal/compress"
	"ndpcr/internal/node/iostore"
)

// incrementalNode builds a node with incremental drains enabled.
func incrementalNode(t *testing.T, codec compress.Codec, fullEvery int) (*Node, *iostore.Store) {
	t.Helper()
	n, store := newNode(t, func(c *Config) {
		c.Codec = codec
		c.Incremental = true
		c.FullEvery = fullEvery
		c.BlockSize = 4096
		c.DeltaBlockSize = 4096
	})
	return n, store
}

// evolvingSnapshot mutates ~5% of the buffer per version, HPC-style.
func evolvingSnapshot(version int) []byte {
	b := make([]byte, 400_000)
	for i := range b {
		b[i] = byte(i / 97)
	}
	// Each version touches a distinct contiguous region.
	lo := (version * 20_000) % (len(b) - 20_000)
	for i := lo; i < lo+20_000; i++ {
		b[i] = byte(version)
	}
	return b
}

func drainAll(t *testing.T, n *Node, id uint64) {
	t.Helper()
	waitDrained(t, n, id)
}

func TestIncrementalDrainShipsLess(t *testing.T) {
	n, store := incrementalNode(t, nil, 100)
	var lastID uint64
	for v := 1; v <= 4; v++ {
		id, err := n.Commit(context.Background(), evolvingSnapshot(v), Metadata{Step: v})
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
		drainAll(t, n, id) // serialize drains so each version ships
	}
	// First object is full; later ones are patches and much smaller.
	full, _ := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 1})
	if full.DeltaBase != 0 {
		t.Fatal("first drain was not a full checkpoint")
	}
	for id := uint64(2); id <= lastID; id++ {
		obj, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: id})
		if err != nil {
			t.Fatalf("object %d: %v", id, err)
		}
		if obj.DeltaBase != id-1 {
			t.Errorf("object %d has base %d, want %d", id, obj.DeltaBase, id-1)
		}
		if obj.StoredSize() > full.StoredSize()/4 {
			t.Errorf("patch %d is %d bytes vs full %d — not incremental",
				id, obj.StoredSize(), full.StoredSize())
		}
	}
}

func TestIncrementalRestoreReconstructsChain(t *testing.T) {
	for _, codecName := range []string{"", "gzip"} {
		var codec compress.Codec
		if codecName != "" {
			codec, _ = compress.Lookup(codecName, 1)
		}
		n, _ := incrementalNode(t, codec, 100)
		var want []byte
		var lastID uint64
		for v := 1; v <= 5; v++ {
			want = evolvingSnapshot(v)
			id, err := n.Commit(context.Background(), want, Metadata{Step: v})
			if err != nil {
				t.Fatal(err)
			}
			lastID = id
			drainAll(t, n, id)
		}
		n.FailLocal()
		got, meta, level, err := n.Restore(context.Background())
		if err != nil {
			t.Fatalf("codec %q: %v", codecName, err)
		}
		if level != LevelIO || meta.Step != 5 {
			t.Errorf("codec %q: level=%v step=%d", codecName, level, meta.Step)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("codec %q: chain reconstruction mismatch", codecName)
		}
		_ = lastID
		n.Close()
	}
}

func TestIncrementalFullEveryBoundsChains(t *testing.T) {
	n, store := incrementalNode(t, nil, 2)
	for v := 1; v <= 7; v++ {
		id, err := n.Commit(context.Background(), evolvingSnapshot(v), Metadata{Step: v})
		if err != nil {
			t.Fatal(err)
		}
		drainAll(t, n, id)
	}
	// With FullEvery=2 the pattern is full, patch, patch, full, patch,
	// patch, full.
	wantFull := map[uint64]bool{1: true, 4: true, 7: true}
	for id := uint64(1); id <= 7; id++ {
		obj, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: id})
		if err != nil {
			t.Fatalf("object %d: %v", id, err)
		}
		isFull := obj.DeltaBase == 0
		if isFull != wantFull[id] {
			t.Errorf("object %d: full=%v, want %v", id, isFull, wantFull[id])
		}
	}
	// Restoring a mid-chain checkpoint works too.
	n.FailLocal()
	got, meta, _, err := n.RestoreID(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 5 || !bytes.Equal(got, evolvingSnapshot(5)) {
		t.Error("mid-chain restore mismatch")
	}
}

func TestIncrementalSkipsStillReconstruct(t *testing.T) {
	// When drains lag commits, the engine skips intermediate checkpoints;
	// diffs are then between non-consecutive IDs and must still apply.
	n, store := incrementalNode(t, nil, 100)
	// Commit three versions quickly; the engine may coalesce.
	var lastID uint64
	for v := 1; v <= 3; v++ {
		id, err := n.Commit(context.Background(), evolvingSnapshot(v), Metadata{Step: v})
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
	}
	drainAll(t, n, lastID)
	n.FailLocal()
	got, _, _, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, evolvingSnapshot(3)) {
		t.Error("reconstruction after skipped drains mismatch")
	}
	_ = store
}

func TestIncrementalAfterIOLevelRecovery(t *testing.T) {
	// After a node loss + I/O restore, the engine's digest table refers to
	// the pre-failure lineage; subsequent incremental drains must still
	// reconstruct correctly (diffs are content-based).
	n, _ := incrementalNode(t, nil, 100)
	id, err := n.Commit(context.Background(), evolvingSnapshot(1), Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, n, id)
	n.FailLocal()
	if _, _, _, err := n.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	// New lineage: different content evolution after restart.
	want := evolvingSnapshot(9)
	id2, err := n.Commit(context.Background(), want, Metadata{Step: 2})
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, n, id2)
	n.FailLocal()
	got, meta, _, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 2 || !bytes.Equal(got, want) {
		t.Error("post-recovery incremental drain did not reconstruct")
	}
}
