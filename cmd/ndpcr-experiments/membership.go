package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"ndpcr/internal/cluster"
	"ndpcr/internal/compress"
	"ndpcr/internal/iod"
	"ndpcr/internal/metrics"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/shardstore"
)

// runMembership demonstrates dynamic shard-tier membership under live
// traffic: three iod backends serve a replicated drain, then — while the
// NDP engines are mid-drain — a fourth backend joins and an original
// member is decommissioned. The drain controller migrates replica sets off
// the leaver (and backfills the joiner) from store inventory, so the run
// must end with zero lost restart lines, the decommissioned backend empty,
// and — after a simulated client restart — an inventory-driven repair
// restoring R copies of objects the fresh client never wrote.
func runMembership() error {
	const (
		ranks    = 2
		backends = 3
	)
	rounds := 3
	if *flagQuick {
		rounds = 2
	}

	fmt.Printf("membership: %d ranks over %d iod backends R=2; join + decommission land mid-drain\n\n", ranks, backends)

	servers, addrs, err := startIODs(backends)
	if err != nil {
		return err
	}
	defer func() { closeIODs(servers) }() // a closure: the joiner is appended below

	store, err := shardstore.Dial(addrs, 2, shardstore.Config{
		Replicas:    2,
		CallTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer store.Close()

	gz, _ := compress.Lookup("gzip", 1)
	nodes := make([]*node.Node, ranks)
	apps := make([]*chaosRank, ranks)
	rankIfaces := make([]cluster.Rank, ranks)
	for i := 0; i < ranks; i++ {
		app, err := miniapps.New("HPCCG", miniapps.Small, uint64(7100+i))
		if err != nil {
			return err
		}
		apps[i] = &chaosRank{app: app}
		rankIfaces[i] = apps[i]
		nodes[i], err = node.New(node.Config{
			Job: "membership", Rank: i, Store: store,
			Codec: gz, BlockSize: 1 << 14,
		})
		if err != nil {
			return err
		}
	}
	c, err := cluster.New("membership", store, nodes, rankIfaces)
	if err != nil {
		return err
	}
	defer c.Close()

	reg := metrics.NewRegistry()
	store.Instrument(reg)

	var committed []uint64
	var joinerAddr string
	fmt.Println()
	for round := 1; round <= rounds; round++ {
		for _, a := range apps {
			if err := a.app.Step(); err != nil {
				return err
			}
		}
		id, err := c.Checkpoint(context.Background(), round)
		if err != nil {
			return err
		}
		committed = append(committed, id)
		fmt.Printf("  round %d: checkpoint %d committed\n", round, id)

		if round == rounds {
			// The membership changes land while the final drain is in
			// flight: a new backend joins and iod-0 is decommissioned.
			var joiner *iod.Server
			if joiner, joinerAddr, err = startIOD("joiner"); err != nil {
				return err
			}
			servers = append(servers, joiner)
			fmt.Printf("  >>> adding %s and decommissioning iod-0 (%s) mid-drain of checkpoint %d\n",
				joinerAddr, addrs[0], id)
			if err := store.AddBackendAddr(joinerAddr, 2); err != nil {
				return err
			}
			if err := store.Decommission(addrs[0]); err != nil {
				return err
			}
		}
		if err := waitStore(c, id, 30*time.Second); err != nil {
			return fmt.Errorf("checkpoint %d never drained: %w", id, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = store.WaitDecommissioned(ctx, addrs[0])
	cancel()
	if err != nil {
		return fmt.Errorf("decommission never completed: %w", err)
	}
	fmt.Printf("\n  iod-0 decommissioned; members now %v\n", store.Members())

	// The leaver's server is still up — ask it directly: it must be empty.
	direct, err := iod.Dial(addrs[0])
	if err != nil {
		return err
	}
	leftover, err := direct.Keys(context.Background())
	direct.Close()
	if err != nil {
		return fmt.Errorf("inventory on decommissioned backend: %w", err)
	}
	fmt.Printf("  decommissioned backend holds %d objects\n", len(leftover))
	if len(leftover) != 0 {
		return fmt.Errorf("membership: decommissioned backend still holds %d objects", len(leftover))
	}

	// Zero lost restart lines across the reshuffle.
	lines := c.RestartLines(context.Background())
	fmt.Printf("  restart lines after join+decommission: %v\n", lines)
	lost := 0
	for _, id := range committed {
		found := false
		for _, l := range lines {
			if l == id {
				found = true
			}
		}
		if !found {
			lost++
			fmt.Printf("  LOST restart line %d\n", id)
		}
	}
	fmt.Printf("  lost restart lines: %d\n", lost)
	if lost != 0 {
		return fmt.Errorf("membership: %d committed restart lines lost to a membership change", lost)
	}

	// Wipe all local state and recover through the post-change tier.
	for i := 0; i < ranks; i++ {
		if err := c.FailNode(i); err != nil {
			return err
		}
	}
	out, err := c.Recover(context.Background(), cluster.RecoverOptions{})
	if err != nil {
		return fmt.Errorf("recover after membership change: %w", err)
	}
	fmt.Printf("  recovered checkpoint %d (step %d) from the reshuffled shard tier\n", out.ID, out.Step)

	// Simulated client restart: a *fresh* shardstore client has an empty
	// assignment map, so only the inventory-driven planner can see the old
	// objects. Damage one replica first so the repair has real work.
	survivors := []string{addrs[1], addrs[2], joinerAddr}
	fresh, err := shardstore.Dial(survivors, 2, shardstore.Config{
		Replicas:    2,
		CallTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer fresh.Close()
	k0 := iostore.Key{Job: "membership", Rank: 0, ID: out.ID}
	for _, addr := range survivors {
		damaged, err := iod.Dial(addr)
		if err != nil {
			return err
		}
		held, err := damaged.Keys(context.Background())
		hit := false
		if err == nil {
			for _, k := range held {
				if k == k0 {
					err = damaged.Delete(context.Background(), k0)
					hit = true
				}
			}
		}
		damaged.Close()
		if err != nil {
			return err
		}
		if hit {
			fmt.Printf("  damaged: deleted %s from %s\n", k0, addr)
			break
		}
	}
	moved, err := fresh.RepairInventory(context.Background())
	if err != nil {
		return fmt.Errorf("restart-blind inventory repair: %w", err)
	}
	fmt.Printf("  restart-blind repair moved %d object copies\n", moved)
	for i := 0; i < ranks; i++ {
		k := iostore.Key{Job: "membership", Rank: i, ID: out.ID}
		n := fresh.ReplicaCount(context.Background(), k)
		fmt.Printf("  rank %d checkpoint %d now on %d backends\n", i, out.ID, n)
		if n < 2 {
			return fmt.Errorf("membership: rank %d checkpoint on %d replicas after restart-blind repair, want >= 2", i, n)
		}
	}

	fmt.Println("\n--- shardstore metrics ---")
	return reg.Dump(os.Stdout)
}
