package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"ndpcr/internal/cluster"
	"ndpcr/internal/iod"
	"ndpcr/internal/node/iostore"
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

	t, err := liveTier(backends)
	if err != nil {
		return err
	}
	defer t.close()
	store, reg, addrs := t.store, t.reg, t.addrs

	apps, err := chaosApps(ranks, 7100)
	if err != nil {
		return err
	}
	c, err := newJob("membership", store, ranks, func(i int) cluster.Rank { return apps[i] })
	if err != nil {
		return err
	}
	defer c.Close()

	// The membership changes land while the final drain is in flight: a new
	// backend joins and iod-0 is decommissioned.
	var joinerAddr string
	committed, err := drainRounds(c, apps, rounds, func(id uint64) error {
		joiner, addr, err := startIOD("joiner")
		if err != nil {
			return err
		}
		joinerAddr = addr
		t.servers = append(t.servers, joiner)
		fmt.Printf("  >>> adding %s and decommissioning iod-0 (%s) mid-drain of checkpoint %d\n",
			joinerAddr, addrs[0], id)
		if err := store.AddBackendAddr(joinerAddr, 2); err != nil {
			return err
		}
		return store.Decommission(addrs[0])
	})
	if err != nil {
		return err
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
	lost := lostLines(committed, lines)
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
	fresh, err := dialTier(survivors)
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
