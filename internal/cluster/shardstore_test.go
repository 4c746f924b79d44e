package cluster

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/iod"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

// iodBackend is one live ndpcr-iod server for the acceptance rig.
type iodBackend struct {
	srv  *iod.Server
	addr string
}

func startIODBackend(t *testing.T) *iodBackend {
	t.Helper()
	srv, err := iod.NewServer(iostore.New(nvm.Pacer{}))
	if err != nil {
		t.Fatal(err)
	}
	// Listen first, so the address is known before Serve runs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	return &iodBackend{srv: srv, addr: ln.Addr().String()}
}

// shardTier boots `backends` live iod servers over TCP and a shardstore
// client with R=2 placing across them.
func shardTier(t *testing.T, backends int) (*shardstore.Store, []*iodBackend) {
	t.Helper()
	iods := make([]*iodBackend, backends)
	addrs := make([]string, backends)
	for i := range iods {
		iods[i] = startIODBackend(t)
		addrs[i] = iods[i].addr
	}
	// A short CallTimeout keeps failover (and so the test) fast: a killed
	// backend costs one timeout, not the client's full reconnect schedule.
	store, err := shardstore.Dial(addrs, 2, shardstore.Config{
		Replicas:    2,
		CallTimeout: 300 * time.Millisecond,
		Probe:       -1, // tests drive RepairInventory explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store, iods
}

// drainingNodes builds one node per rank of job over store, each draining
// gzip(1) in 16 KiB blocks through its NDP engine.
func drainingNodes(t *testing.T, job string, store iostore.Backend, ranks int) []*node.Node {
	t.Helper()
	gz, _ := compress.Lookup("gzip", 1)
	nodes := make([]*node.Node, ranks)
	for i := range nodes {
		var err error
		nodes[i], err = node.New(node.Config{Job: job, Rank: i, Store: store, Codec: gz, BlockSize: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

// shardCluster wires the full acceptance rig: a shardTier of `backends`
// servers and a coordinated cluster of `ranks` nodes draining through it.
func shardCluster(t *testing.T, ranks, backends int) (*Cluster, []*appRank, *shardstore.Store, []*iodBackend) {
	t.Helper()
	store, iods := shardTier(t, backends)
	apps := make([]*appRank, ranks)
	rankIfaces := make([]Rank, ranks)
	for i := range apps {
		app, err := miniapps.New("HPCCG", miniapps.Small, uint64(900+i))
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = &appRank{app: app}
		rankIfaces[i] = apps[i]
	}
	c, err := New("shardjob", store, drainingNodes(t, "shardjob", store, ranks), rankIfaces)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, apps, store, iods
}

// TestShardClusterSurvivesBackendDeathMidDrain is the shard tier's
// acceptance scenario: with 3 backends and R=2, killing any single I/O node
// while the NDP engines are draining a committed checkpoint must lose no
// restart line — the drain completes on surviving replicas, recovery
// succeeds from the I/O level, and the repair pass returns every object to 2
// whole copies, the one drained whole before the kill included.
func TestShardClusterSurvivesBackendDeathMidDrain(t *testing.T) {
	const ranks, backends = 2, 3
	for victim := 0; victim < backends; victim++ {
		t.Run(fmt.Sprintf("kill-iod-%d", victim), func(t *testing.T) {
			c, apps, store, iods := shardCluster(t, ranks, backends)
			var committed []uint64
			for step := 1; step <= 2; step++ {
				for _, a := range apps {
					if err := a.app.Step(); err != nil {
						t.Fatal(err)
					}
				}
				id, err := c.Checkpoint(context.Background(), step)
				if err != nil {
					t.Fatal(err)
				}
				committed = append(committed, id)
				if step == 2 {
					// The checkpoint is committed locally; the NDP drains
					// are now racing the kill. Whatever the interleaving,
					// the committed line must survive on the other two
					// backends.
					iods[victim].srv.Close()
				}
				waitStore(t, c, id, 20*time.Second)
			}
			id := committed[1]

			// All local state gone: recovery must come from the shard tier,
			// and both committed lines are still there.
			for i := 0; i < ranks; i++ {
				if err := c.FailNode(i); err != nil {
					t.Fatal(err)
				}
			}
			if lines := c.RestartLines(context.Background()); !contains(lines, committed[0]) || !contains(lines, id) {
				t.Fatalf("restart lines %v after the kill, want both of %v", lines, committed)
			}
			out, err := c.Recover(context.Background(), RecoverOptions{})
			if err != nil {
				t.Fatalf("recover with backend %d dead: %v", victim, err)
			}
			if out.ID != id {
				t.Fatalf("recovered id %d, want %d", out.ID, id)
			}
			for i, lvl := range out.Levels {
				if lvl != node.LevelIO {
					t.Errorf("rank %d recovered from %v, want the I/O level", i, lvl)
				}
			}

			// The repair pass restores every committed object to R whole
			// copies across the two live backends: those the victim held
			// whole before it died as well as those it died writing.
			if _, err := store.RepairInventory(context.Background()); err != nil {
				t.Fatalf("repair: %v", err)
			}
			for _, ckpt := range committed {
				for i := 0; i < ranks; i++ {
					k := iostore.Key{Job: "shardjob", Rank: i, ID: ckpt}
					if n := store.ReplicaCount(context.Background(), k); n != 2 {
						t.Errorf("rank %d checkpoint %d on %d replicas after repair, want 2", i, ckpt, n)
					}
				}
			}
		})
	}
}

// TestShardClusterMembershipMidDrain is the membership acceptance
// scenario: while the NDP engines are draining a committed checkpoint, a
// new backend joins the shard set and an original member is
// decommissioned. The restart line must survive the reshuffle, the
// decommissioned backend must end empty, and an inventory-driven repair by
// a *fresh* client (restart-blind: empty assignment map) must confirm and
// restore R copies of every object — including ones the fresh client never
// wrote.
func TestShardClusterMembershipMidDrain(t *testing.T) {
	const ranks = 2
	c, apps, store, iods := shardCluster(t, ranks, 3)
	for _, a := range apps {
		if err := a.app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	id, err := c.Checkpoint(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Membership changes land while the drains are in flight.
	joiner := startIODBackend(t)
	if err := store.AddBackendAddr(joiner.addr, 2); err != nil {
		t.Fatal(err)
	}
	if err := store.Decommission(iods[0].addr); err != nil {
		t.Fatal(err)
	}
	waitStore(t, c, id, 20*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := store.WaitDecommissioned(ctx, iods[0].addr); err != nil {
		t.Fatal(err)
	}
	for _, name := range store.Members() {
		if name == iods[0].addr {
			t.Fatal("decommissioned backend still a member")
		}
	}
	// The decommissioned backend's server is still running; ask it
	// directly — it must hold nothing.
	direct, err := iod.Dial(iods[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := direct.Keys(context.Background()); err != nil || len(keys) != 0 {
		t.Fatalf("decommissioned backend holds %d objects (%v), want 0", len(keys), err)
	}
	direct.Close()

	// Zero lost restart lines: recovery from the reshuffled shard tier.
	for i := 0; i < ranks; i++ {
		if err := c.FailNode(i); err != nil {
			t.Fatal(err)
		}
	}
	out, err := c.Recover(context.Background(), RecoverOptions{})
	if err != nil {
		t.Fatalf("recover after membership change: %v", err)
	}
	if out.ID != id {
		t.Fatalf("recovered id %d, want %d", out.ID, id)
	}
	for i, lvl := range out.Levels {
		if lvl != node.LevelIO {
			t.Errorf("rank %d recovered from %v, want the I/O level", i, lvl)
		}
	}

	// Restart-blind repair: a fresh client over the post-change member set
	// has an empty assignment map, yet the inventory-driven planner must
	// verify (and where needed restore) R copies of the pre-"restart"
	// checkpoint objects. Damage one replica first so there is real work.
	survivors := []string{iods[1].addr, iods[2].addr, joiner.addr}
	fresh, err := shardstore.Dial(survivors, 2, shardstore.Config{
		Replicas:    2,
		CallTimeout: 300 * time.Millisecond,
		Probe:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	k0 := iostore.Key{Job: "shardjob", Rank: 0, ID: id}
	damaged, err := iod.Dial(iods[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	held, err := damaged.Keys(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range held {
		if k == k0 {
			if err := damaged.Delete(context.Background(), k0); err != nil {
				t.Fatal(err)
			}
		}
	}
	damaged.Close()
	if _, err := fresh.RepairInventory(context.Background()); err != nil {
		t.Fatalf("inventory repair: %v", err)
	}
	for i := 0; i < ranks; i++ {
		k := iostore.Key{Job: "shardjob", Rank: i, ID: id}
		if n := fresh.ReplicaCount(context.Background(), k); n < 2 {
			t.Errorf("rank %d checkpoint on %d replicas after restart-blind repair, want >= 2", i, n)
		}
	}
}

// TestShardClusterBackendDeathMidStreamedRestore kills a backend between
// checkpoint and restore: the streamed block fetch must fail over to the
// surviving replica of every block instead of failing the restore.
func TestShardClusterBackendDeathMidStreamedRestore(t *testing.T) {
	c, apps, store, iods := shardCluster(t, 2, 3)
	for _, a := range apps {
		if err := a.app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	id, err := c.Checkpoint(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	waitStore(t, c, id, 20*time.Second)
	for i := 0; i < 2; i++ {
		if err := c.FailNode(i); err != nil {
			t.Fatal(err)
		}
	}
	// The kill lands after the drain but before the restore: every block
	// read during the streamed restore races the dead connection.
	iods[1].srv.Close()
	out, err := c.Recover(context.Background(), RecoverOptions{})
	if err != nil {
		t.Fatalf("recover across mid-restore backend death: %v", err)
	}
	if out.ID != id {
		t.Errorf("recovered id %d, want %d", out.ID, id)
	}
	_ = store
}
