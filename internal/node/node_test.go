package node

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

func newNode(t *testing.T, mutate func(*Config)) (*Node, *iostore.Store) {
	t.Helper()
	store := iostore.New(nvm.Pacer{})
	cfg := Config{
		Job:       "job",
		Rank:      0,
		Store:     store,
		BlockSize: 4096,
		OnError:   func(err error) { t.Logf("async error: %v", err) },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, store
}

func snapshot(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i/128) ^ tag
	}
	return b
}

func waitDrained(t *testing.T, n *Node, id uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.WaitDurableCtx(ctx, id, ndp.LevelStore); err != nil {
		t.Fatalf("checkpoint %d never drained: %v", id, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Job: "x"}); err == nil {
		t.Error("missing store accepted")
	}
	if _, err := New(Config{Store: iostore.New(nvm.Pacer{})}); err == nil {
		t.Error("missing job accepted")
	}
}

func TestCommitRestoreLocal(t *testing.T) {
	n, _ := newNode(t, nil)
	snap := snapshot(50000, 1)
	id, err := n.Commit(context.Background(), snap, Metadata{Step: 7})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first id = %d", id)
	}
	data, meta, level, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if level != LevelLocal {
		t.Errorf("level = %v, want local", level)
	}
	if !bytes.Equal(data, snap) {
		t.Error("restored bytes differ")
	}
	if meta.Step != 7 || meta.Job != "job" || meta.ID != id {
		t.Errorf("meta = %+v, want step 7 of job under checkpoint %d", meta, id)
	}
}

func TestRestorePrefersNewestLocal(t *testing.T) {
	n, _ := newNode(t, nil)
	n.Commit(context.Background(), snapshot(1000, 1), Metadata{Step: 1})
	n.Commit(context.Background(), snapshot(1000, 2), Metadata{Step: 2})
	data, meta, _, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 2 || !bytes.Equal(data, snapshot(1000, 2)) {
		t.Error("did not restore newest checkpoint")
	}
}

func TestRestoreFromIOAfterLocalLoss(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	n, _ := newNode(t, func(c *Config) { c.Codec = gz })
	snap := snapshot(200000, 3)
	id, err := n.Commit(context.Background(), snap, Metadata{Step: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)

	// Node failure wipes NVM (§4.2.3's second recovery path).
	n.FailLocal()
	data, meta, level, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if level != LevelIO {
		t.Errorf("level = %v, want io", level)
	}
	if !bytes.Equal(data, snap) {
		t.Error("I/O restore bytes differ")
	}
	if meta.Step != 5 {
		t.Errorf("meta = %+v", meta)
	}
}

func TestRestoreUncompressedFromIO(t *testing.T) {
	n, _ := newNode(t, nil) // no codec: drains raw
	snap := snapshot(100000, 4)
	id, _ := n.Commit(context.Background(), snap, Metadata{})
	waitDrained(t, n, id)
	n.FailLocal()
	data, _, level, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if level != LevelIO || !bytes.Equal(data, snap) {
		t.Error("raw I/O restore failed")
	}
}

func TestRestoreNoCheckpoint(t *testing.T) {
	n, _ := newNode(t, nil)
	if _, _, _, err := n.Restore(context.Background()); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestRestoreID(t *testing.T) {
	n, _ := newNode(t, nil)
	id1, _ := n.Commit(context.Background(), snapshot(1000, 1), Metadata{Step: 1})
	n.Commit(context.Background(), snapshot(1000, 2), Metadata{Step: 2})
	data, meta, level, err := n.RestoreID(context.Background(), id1)
	if err != nil {
		t.Fatal(err)
	}
	if level != LevelLocal || meta.Step != 1 || !bytes.Equal(data, snapshot(1000, 1)) {
		t.Error("RestoreID returned wrong checkpoint")
	}
	if _, _, _, err := n.RestoreID(context.Background(), 99); err == nil {
		t.Error("missing id accepted")
	}
}

// TestStoredCheckpointsRestoreIndependently: a stored object is a full
// checkpoint in independent blocks, so a store-durable checkpoint restores
// byte-identical from I/O whatever became of its predecessors. Here both are
// rolled back — DiscardCommit deletes their global objects, as a cluster
// rollback and the gateway's delete do — before the node loses its local
// state. (With patch-chain drains this failed: checkpoint 3 was acknowledged
// store-durable, and its restore walked back to a deleted base.)
func TestStoredCheckpointsRestoreIndependently(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	n, store := newNode(t, func(c *Config) { c.Codec = gz })
	ctx := context.Background()
	var snap []byte
	for v := 1; v <= 3; v++ {
		snap = snapshot(20_000, 0) // five blocks, a few bytes changed a round
		snap[v*5000] ^= 0xff
		id, err := n.Commit(ctx, snap, Metadata{Step: v})
		if err != nil || id != uint64(v) {
			t.Fatalf("commit %d: id %d, %v", v, id, err)
		}
		waitDrained(t, n, id)
	}
	for _, id := range []uint64{1, 2} {
		if err := n.DiscardCommit(id); err != nil {
			t.Fatal(err)
		}
	}
	if !n.DurableAt(3, ndp.LevelStore) {
		t.Fatal("checkpoint 3 is not store-durable after its predecessors were discarded")
	}
	if keys, err := store.Keys(ctx); err != nil || len(keys) != 1 || keys[0].ID != 3 {
		t.Fatalf("store holds %v, %v; want checkpoint 3 alone", keys, err)
	}
	n.FailLocal()
	data, meta, level, err := n.RestoreID(ctx, 3)
	if err != nil {
		t.Fatalf("restore of a store-durable checkpoint: %v", err)
	}
	if level != LevelIO || meta.ID != 3 || meta.Step != 3 || !bytes.Equal(data, snap) {
		t.Errorf("restored level %v, id %d, step %d, bytes match %v; want io, 3, 3, true",
			level, meta.ID, meta.Step, bytes.Equal(data, snap))
	}
}

func TestRestoreThenStepEquivalence(t *testing.T) {
	// End-to-end with a real mini-app through the runtime: commit, fail,
	// restore, and verify trajectory equivalence against a twin.
	gz, _ := compress.Lookup("gzip", 1)
	n, _ := newNode(t, func(c *Config) { c.Codec = gz })

	appOrig := mustApp(t, 11)
	appTwin := mustApp(t, 11)
	for i := 0; i < 3; i++ {
		appOrig.Step()
		appTwin.Step()
	}
	var buf bytes.Buffer
	if err := appTwin.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	id, err := n.Commit(context.Background(), buf.Bytes(), Metadata{Step: appTwin.StepCount()})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	// Run the twin ahead, then fail the node AND lose the twin's memory.
	appTwin.Step()
	n.FailLocal()
	data, _, level, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if level != LevelIO {
		t.Fatalf("expected I/O restore, got %v", level)
	}
	if err := appTwin.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appOrig.Step()
		appTwin.Step()
	}
	if appOrig.Signature() != appTwin.Signature() {
		t.Error("restored trajectory diverged")
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	n, _ := newNode(t, nil)
	n.Close()
	if _, err := n.Commit(context.Background(), []byte("x"), Metadata{}); err == nil {
		t.Error("commit after close accepted")
	}
	n.Close() // idempotent
}

func TestLevelString(t *testing.T) {
	if LevelLocal.String() != "local" || LevelIO.String() != "io" || LevelNone.String() != "none" {
		t.Error("level labels wrong")
	}
}
