package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ndpcr/internal/cluster"
	"ndpcr/internal/compress"
	"ndpcr/internal/faultinject"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/report"
)

// waitStore blocks until checkpoint id is on the global store on every
// rank of c, for at most d.
func waitStore(c *cluster.Cluster, id uint64, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.WaitDurable(ctx, id, ndp.LevelStore)
}

// defaultFaults is the representative chaos schedule used when -faults is
// not given: one NVM commit failure on rank 1 at the second coordinated
// checkpoint (aborts it cluster-wide and forces a rollback), and one
// global-store read failure on rank 1 during recovery. After the double
// node failure below wipes rank 1's local NVM, its partner copies, and
// enough of its erasure shards, global I/O is rank 1's only level left —
// so that read failure kills the newest restart line and forces the
// fallback walk to the next-older one.
const defaultFaults = "nvm.put,rank=1,after=1,count=1;store.get,rank=1,count=1"

// chaosRank adapts a mini-app to the cluster.Rank interface.
type chaosRank struct{ app miniapps.App }

func (r *chaosRank) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.app.Checkpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (r *chaosRank) Restore(data []byte) error {
	return r.app.Restore(bytes.NewReader(data))
}

// chaosApps builds one HPCCG mini-app per rank, rank i seeded seed+i.
func chaosApps(ranks int, seed uint64) ([]*chaosRank, error) {
	apps := make([]*chaosRank, ranks)
	for i := range apps {
		app, err := miniapps.New("HPCCG", miniapps.Small, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		apps[i] = &chaosRank{app: app}
	}
	return apps, nil
}

// runChaos drives the functional coordinated-checkpoint cluster under a
// deterministic injected failure schedule (-faults, -seed): every rank is a
// live mini-app, the global store is wrapped with the injector, and each
// node's NVM gets the injector's fault hook. The run reports each
// checkpoint round (committed or aborted+rolled back), then wipes one
// node's local storage and recovers, reporting the restart-line fallback
// walk.
func runChaos() error {
	const ranks = 4
	spec := *flagFaults
	if spec == "" {
		spec = defaultFaults
	}
	injector, err := faultinject.Parse(*flagSeed, spec)
	if err != nil {
		return err
	}
	fmt.Printf("Chaos run: %d ranks, partner + erasure(2,1) levels, seed %d\nschedule: %s\n\n",
		ranks, *flagSeed, spec)

	store := faultinject.WrapStore(iostore.New(nvm.Pacer{}), injector)
	gz, err := compress.Lookup("gzip", 1)
	if err != nil {
		return err
	}
	apps, err := chaosApps(ranks, *flagSeed)
	if err != nil {
		return err
	}
	nodes := make([]*node.Node, ranks)
	rankIfaces := make([]cluster.Rank, ranks)
	for i := 0; i < ranks; i++ {
		rankIfaces[i] = apps[i]
		nodes[i], err = node.New(node.Config{
			Job: "chaos", Rank: i, Store: store,
			Codec: gz, BlockSize: 1 << 16,
		})
		if err != nil {
			return err
		}
		nodes[i].Device().SetFaultHook(injector.NVMHook(i))
	}
	c, err := cluster.New("chaos", store, nodes, rankIfaces,
		cluster.WithPartnerReplication(), cluster.WithErasureSets(2, 1))
	if err != nil {
		return err
	}
	defer c.Close()

	tab := &report.Table{Headers: []string{"Round", "Step", "Ckpt ID", "Outcome"}}
	const rounds = 4
	for r := 1; r <= rounds; r++ {
		for _, a := range apps {
			if err := a.app.Step(); err != nil {
				return err
			}
		}
		step := apps[0].app.StepCount()
		id, err := c.Checkpoint(context.Background(), step)
		outcome := "committed"
		if err != nil {
			outcome = "ABORTED + rolled back: " + firstLine(err.Error())
		} else if err := waitStore(c, id, 10*time.Second); err != nil {
			// Every NDP must finish shipping this checkpoint before the next
			// round, so the global store deterministically holds every
			// committed ID when recovery walks the restart lines below.
			outcome = "committed, drain incomplete: " + firstLine(err.Error())
		}
		tab.AddRow(fmt.Sprintf("%d", r), fmt.Sprintf("%d", step),
			fmt.Sprintf("%d", id), outcome)
	}
	tab.Fprint(os.Stdout)

	// Fail a buddy pair: ranks 1 and 2 lose their local NVM along with the
	// partner/erasure regions they host. That leaves rank 1 nothing but
	// global I/O (its partner copies lived on node 2, and too few of its
	// erasure shards survive), where the schedule's store.get fault awaits.
	fmt.Println("\nnode failure: ranks 1 and 2 lose local NVM and the partner/erasure regions they host")
	if err := c.FailNode(1); err != nil {
		return err
	}
	if err := c.FailNode(2); err != nil {
		return err
	}
	lines := c.RestartLines(context.Background())
	fmt.Printf("restart lines (newest first): %v\n", lines)
	out, err := c.Recover(context.Background(), cluster.RecoverOptions{})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	levels := make([]string, len(out.Levels))
	for i, l := range out.Levels {
		levels[i] = l.String()
	}
	fmt.Printf("recovered to line %d (step %d), per-rank levels %v\n", out.ID, out.Step, levels)
	if len(out.FailedLines) > 0 {
		fmt.Printf("fallback: lines %v were unreadable and abandoned before line %d succeeded\n",
			out.FailedLines, out.ID)
	}

	fired := injector.Fired()
	sites := make([]string, 0, len(fired))
	for s := range fired {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	fmt.Println("\ninjected faults fired:")
	for _, s := range sites {
		fmt.Printf("  %-18s %d\n", s, fired[s])
	}

	// Prove the cluster is healthy after the chaos: one more clean round.
	for _, a := range apps {
		if err := a.app.Step(); err != nil {
			return err
		}
	}
	id, err := c.Checkpoint(context.Background(), apps[0].app.StepCount())
	if err != nil {
		return fmt.Errorf("post-chaos checkpoint: %w", err)
	}
	fmt.Printf("\npost-chaos checkpoint committed cleanly as id %d — the cluster healed\n", id)
	return nil
}

// firstLine truncates an error chain to its first line for table cells.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
