package main

import (
	"context"
	"fmt"
	"os"

	"ndpcr/internal/cluster"
	"ndpcr/internal/node/iostore"
)

// runShardChaos demonstrates the sharded, replicated store tier surviving
// the loss of an I/O node: three live ndpcr-iod servers on loopback TCP, a
// shardstore client placing every checkpoint object on R=2 of them, and a
// coordinated cluster draining through the tier. One backend is killed
// while the NDP engines are mid-drain; the run asserts no committed
// restart line is lost, recovers the cluster from the surviving replicas,
// and fails unless the repair pass returns every committed object to R whole
// copies.
func runShardChaos() error {
	const (
		ranks    = 2
		backends = 3
		rounds   = 3
	)

	fmt.Printf("shard-chaos: %d ranks draining through %d iod backends, R=2\n\n", ranks, backends)

	t, err := liveTier(backends)
	if err != nil {
		return err
	}
	defer t.close()
	store, reg := t.store, t.reg

	apps, err := chaosApps(ranks, 4200)
	if err != nil {
		return err
	}
	c, err := newJob("shardchaos", store, ranks, func(i int) cluster.Rank { return apps[i] })
	if err != nil {
		return err
	}
	defer c.Close()

	// Kill a backend while the final drain is in flight.
	committed, err := drainRounds(c, apps, rounds, func(id uint64) error {
		fmt.Printf("  >>> killing iod-1 (%s) mid-drain of checkpoint %d\n", t.addrs[1], id)
		t.servers[1].Close()
		return nil
	})
	if err != nil {
		return err
	}

	// Every committed line must still be restorable through the shard tier.
	lines := c.RestartLines(context.Background())
	fmt.Printf("\n  restart lines after backend death: %v\n", lines)
	lost := lostLines(committed, lines)
	if lost != 0 {
		return fmt.Errorf("shard-chaos: %d committed restart lines lost to a single backend death", lost)
	}

	// Wipe all local state and recover from the surviving replicas.
	for i := 0; i < ranks; i++ {
		if err := c.FailNode(i); err != nil {
			return err
		}
	}
	out, err := c.Recover(context.Background(), cluster.RecoverOptions{})
	if err != nil {
		return fmt.Errorf("recover with one backend dead: %w", err)
	}
	fmt.Printf("  recovered checkpoint %d (step %d) from the I/O level with iod-1 dead\n", out.ID, out.Step)

	// Repair what the dead backend held back up to R whole copies: every
	// committed key, not just the recovered line, and a torn copy does not
	// count as one.
	moved, err := store.RepairInventory(context.Background())
	if err != nil {
		return fmt.Errorf("repair after backend death: %w", err)
	}
	fmt.Printf("  repair created %d object copies\n", moved)
	for _, id := range committed {
		for i := 0; i < ranks; i++ {
			k := iostore.Key{Job: "shardchaos", Rank: i, ID: id}
			n := store.ReplicaCount(context.Background(), k)
			fmt.Printf("  rank %d checkpoint %d now on %d backends\n", i, id, n)
			if n < 2 {
				return fmt.Errorf("shard-chaos: rank %d checkpoint %d on %d whole replicas after repair, want 2", i, id, n)
			}
		}
	}

	fmt.Println("\n--- shardstore metrics ---")
	return reg.Dump(os.Stdout)
}
