package cluster

import (
	"context"
	"testing"

	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// partnerCluster builds a cluster with partner replication and NDP drains
// disabled, isolating the partner level.
func partnerCluster(t *testing.T, ranks int) (*Cluster, []*appRank, *iostore.Store) {
	t.Helper()
	store := iostore.New(nvm.Pacer{})
	nodes := make([]*node.Node, ranks)
	apps := make([]*appRank, ranks)
	rankIfaces := make([]Rank, ranks)
	for i := 0; i < ranks; i++ {
		app, err := miniapps.New("HPCCG", miniapps.Small, uint64(300+i))
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = &appRank{app: app}
		rankIfaces[i] = apps[i]
		nodes[i], err = node.New(node.Config{
			Job: "pjob", Rank: i, Store: store, DisableNDP: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := New("pjob", store, nodes, rankIfaces, WithPartnerReplication())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, apps, store
}

func TestPartnerReplicationNeedsTwoRanks(t *testing.T) {
	store := iostore.New(nvm.Pacer{})
	app, _ := miniapps.New("HPCCG", miniapps.Small, 1)
	n, err := node.New(node.Config{Job: "x", Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	_, err = New("x", store, []*node.Node{n}, []Rank{&appRank{app: app}},
		WithPartnerReplication())
	if err == nil {
		t.Error("single-rank partner replication accepted")
	}
}

func TestRecoverFromPartnerAfterNodeLoss(t *testing.T) {
	// Without NDP drains, nothing reaches I/O; a node loss must recover
	// from the buddy's partner copy at the checkpointed step.
	c, apps, _ := partnerCluster(t, 3)
	for _, a := range apps {
		a.app.Step()
		a.app.Step()
	}
	if _, err := c.Checkpoint(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	sigs := make([]uint64, len(apps))
	for i, a := range apps {
		sigs[i] = a.app.Signature()
	}
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
	if out.Step != 2 {
		t.Errorf("recovered to step %d, want 2", out.Step)
	}
	if out.Levels[1] != node.LevelPartner {
		t.Errorf("rank 1 restored via %v, want partner", out.Levels[1])
	}
	if out.Levels[0] != node.LevelLocal || out.Levels[2] != node.LevelLocal {
		t.Errorf("surviving ranks used %v/%v, want local", out.Levels[0], out.Levels[2])
	}
	for i, a := range apps {
		if a.app.Signature() != sigs[i] {
			t.Errorf("rank %d state differs after partner recovery", i)
		}
	}
}

func TestPartnerLossOfBuddyFallsThrough(t *testing.T) {
	// If BOTH a rank's node and its buddy fail, the partner level is gone
	// too: with no drains to I/O the restart line disappears.
	c, apps, _ := partnerCluster(t, 3)
	for _, a := range apps {
		a.app.Step()
	}
	if _, err := c.Checkpoint(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Rank 1's copies live on node 2. Kill both.
	c.FailNode(1)
	c.FailNode(2)
	if _, err := c.RestartLine(context.Background()); err == nil {
		t.Error("restart line survived loss of a rank and its buddy")
	}
}

func TestPartnerCopiesTrackEveryCheckpoint(t *testing.T) {
	c, apps, _ := partnerCluster(t, 2)
	for s := 1; s <= 3; s++ {
		for _, a := range apps {
			a.app.Step()
		}
		if _, err := c.Checkpoint(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 holds rank 0's copies; node 0 holds rank 1's.
	if got := c.nodes[1].PartnerCopyIDs(0); len(got) != 3 {
		t.Errorf("rank 0 partner copies = %v", got)
	}
	if got := c.nodes[0].PartnerCopyIDs(1); len(got) != 3 {
		t.Errorf("rank 1 partner copies = %v", got)
	}
	// And none for themselves.
	if got := c.nodes[0].PartnerCopyIDs(0); len(got) != 0 {
		t.Errorf("node 0 holds its own copies: %v", got)
	}
}

func TestPartnerPrefersNewestAcrossLevels(t *testing.T) {
	// Direct node-level check: when the partner has a newer copy than
	// I/O, Restore picks the partner; metadata must match.
	store := iostore.New(nvm.Pacer{})
	a, err := node.New(node.Config{Job: "j", Rank: 0, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := node.New(node.Config{Job: "j", Rank: 1, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.SetPartner(b); err != nil {
		t.Fatal(err)
	}

	id1, err := a.Commit(context.Background(), []byte("version-one"), node.Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	putCommitted(t, store, a, id1)
	id2, err := a.Commit(context.Background(), []byte("version-two"), node.Metadata{Step: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.StorePartnerCopy(0, id2, []byte("version-two"), node.Metadata{Job: "j", Rank: 0, Step: 2}); err != nil {
		t.Fatal(err)
	}
	a.FailLocal()
	data, meta, level, err := a.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if level != node.LevelPartner || meta.Step != 2 || string(data) != "version-two" {
		t.Errorf("restore = %q via %v step %d", data, level, meta.Step)
	}
}
