package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// appRank adapts a mini-app to the Rank interface.
type appRank struct{ app miniapps.App }

func (r *appRank) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.app.Checkpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (r *appRank) Restore(data []byte) error {
	return r.app.Restore(bytes.NewReader(data))
}

func testCluster(t *testing.T, ranks int, withNDP bool) (*Cluster, []*appRank, *iostore.Store) {
	t.Helper()
	store := iostore.New(nvm.Pacer{})
	gz, _ := compress.Lookup("gzip", 1)
	nodes := make([]*node.Node, ranks)
	apps := make([]*appRank, ranks)
	rankIfaces := make([]Rank, ranks)
	for i := 0; i < ranks; i++ {
		app, err := miniapps.New("HPCCG", miniapps.Small, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = &appRank{app: app}
		rankIfaces[i] = apps[i]
		cfg := node.Config{
			Job: "job", Rank: i, Store: store,
			Codec: gz, BlockSize: 1 << 16,
			DisableNDP: !withNDP,
		}
		nodes[i], err = node.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := New("job", store, nodes, rankIfaces)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, apps, store
}

func TestNewValidation(t *testing.T) {
	store := iostore.New(nvm.Pacer{})
	if _, err := New("", store, nil, nil); err == nil {
		t.Error("empty job accepted")
	}
	if _, err := New("j", nil, nil, nil); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New("j", store, nil, nil); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestCoordinatedCheckpointIDs(t *testing.T) {
	c, apps, _ := testCluster(t, 4, true)
	for i := 0; i < 2; i++ {
		for _, a := range apps {
			a.app.Step()
		}
		id, err := c.Checkpoint(context.Background(), apps[0].app.StepCount())
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i+1) {
			t.Errorf("checkpoint %d got id %d", i, id)
		}
	}
	if c.Size() != 4 {
		t.Errorf("size = %d", c.Size())
	}
}

func TestRecoverFromLocal(t *testing.T) {
	c, apps, _ := testCluster(t, 3, true)
	sigs := make([]uint64, 3)
	for _, a := range apps {
		a.app.Step()
		a.app.Step()
	}
	if _, err := c.Checkpoint(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	for i, a := range apps {
		sigs[i] = a.app.Signature()
	}
	// Run ahead, then roll everyone back.
	for _, a := range apps {
		a.app.Step()
	}
	out, err := c.Recover(context.Background(), RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 1 || out.Step != 2 {
		t.Errorf("recovered to id=%d step=%d", out.ID, out.Step)
	}
	for i, a := range apps {
		if a.app.Signature() != sigs[i] {
			t.Errorf("rank %d state differs after recover", i)
		}
		if out.Levels[i] != node.LevelLocal {
			t.Errorf("rank %d restored from %v, want local", i, out.Levels[i])
		}
	}
}

func TestRecoverFromIOAfterNodeLoss(t *testing.T) {
	c, apps, store := testCluster(t, 3, true)
	for _, a := range apps {
		a.app.Step()
	}
	id, err := c.Checkpoint(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sigs := make([]uint64, len(apps))
	for i, a := range apps {
		sigs[i] = a.app.Signature()
	}
	// Wait for every rank's drain ack: the store's Latest turns visible at
	// the first landed block, but only the ack means every block landed
	// (the windowed sender writes them out of order).
	waitStore(t, c, id, 5*time.Second)
	if latest, ok, err := store.Latest(context.Background(), "job", 1); err != nil || !ok || latest < id {
		t.Fatalf("rank 1 drained but store.Latest = %d, %v", latest, ok)
	}
	// Everyone runs ahead, then rank 1 loses its node entirely.
	for _, a := range apps {
		a.app.Step()
	}
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	out, err := c.Recover(context.Background(), RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != id {
		t.Errorf("restart line = %d, want %d", out.ID, id)
	}
	if out.Levels[1] != node.LevelIO {
		t.Errorf("rank 1 restored from %v, want io", out.Levels[1])
	}
	if out.Levels[0] != node.LevelLocal {
		t.Errorf("rank 0 restored from %v, want local", out.Levels[0])
	}
	// Every rank is back at the checkpointed state, the I/O-restored one
	// included.
	for i, a := range apps {
		if a.app.Signature() != sigs[i] {
			t.Errorf("rank %d state differs after recover", i)
		}
	}
	// All ranks advance in lockstep afterwards.
	for _, a := range apps {
		if err := a.app.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRestartLineDropsPartiallyAvailable(t *testing.T) {
	// Without NDP, nothing reaches I/O; wiping one node invalidates all
	// its checkpoints, so the restart line disappears entirely.
	c, apps, _ := testCluster(t, 2, false)
	apps[0].app.Step()
	apps[1].app.Step()
	if _, err := c.Checkpoint(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	c.FailNode(0)
	if _, err := c.RestartLine(context.Background()); !errors.Is(err, ErrNoRestartLine) {
		t.Errorf("err = %v, want ErrNoRestartLine", err)
	}
	if _, err := c.Recover(context.Background(), RecoverOptions{}); err == nil {
		t.Error("recover succeeded with no restart line")
	}
}

func TestRestartLinePrefersNewestCommon(t *testing.T) {
	c, apps, _ := testCluster(t, 2, true)
	var lastID uint64
	for s := 1; s <= 3; s++ {
		for _, a := range apps {
			a.app.Step()
		}
		id, err := c.Checkpoint(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
	}
	// Checkpoint 3 drained everywhere.
	waitStore(t, c, lastID, 5*time.Second)
	line, err := c.RestartLine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if line != lastID {
		t.Errorf("restart line = %d, want %d", line, lastID)
	}
}

func TestFailNodeValidation(t *testing.T) {
	c, _, _ := testCluster(t, 2, false)
	if err := c.FailNode(-1); err == nil {
		t.Error("negative rank accepted")
	}
	if err := c.FailNode(2); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestNodeAccessor(t *testing.T) {
	c, _, _ := testCluster(t, 2, false)
	if c.Node(0) == nil || c.Node(1) == nil {
		t.Error("in-range node missing")
	}
	if c.Node(-1) != nil || c.Node(2) != nil {
		t.Error("out-of-range node not nil")
	}
	if c.Node(0) == c.Node(1) {
		t.Error("ranks share a node")
	}
}

func TestCheckpointAfterClose(t *testing.T) {
	c, _, _ := testCluster(t, 2, false)
	c.Close()
	if _, err := c.Checkpoint(context.Background(), 1); err == nil {
		t.Error("checkpoint after close accepted")
	}
	c.Close() // idempotent
}
