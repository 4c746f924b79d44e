package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"slices"
	"time"

	"ndpcr/internal/cluster"
	"ndpcr/internal/compress"
	"ndpcr/internal/iod"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

// startIOD boots one in-memory I/O node on a loopback port and prints its
// "listening" line. It listens before it serves, so a failed bind is an
// error here, not a poll for an address that never comes.
func startIOD(name string) (*iod.Server, string, error) {
	srv, err := iod.NewServer(iostore.New(nvm.Pacer{}))
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() {
		if err := srv.Serve(ln); err != nil { // nil after Close
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		}
	}()
	addr := ln.Addr().String()
	fmt.Printf("  %s listening on %s\n", name, addr)
	return srv, addr, nil
}

// startIODs boots the live tier every scenario runs over: n I/O nodes,
// iod-0 … iod-(n-1). On error the nodes already up are closed.
func startIODs(n int) ([]*iod.Server, []string, error) {
	servers := make([]*iod.Server, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv, addr, err := startIOD(fmt.Sprintf("iod-%d", i))
		if err != nil {
			closeIODs(servers)
			return nil, nil, err
		}
		servers, addrs = append(servers, srv), append(addrs, addr)
	}
	return servers, addrs, nil
}

func closeIODs(servers []*iod.Server) {
	for _, srv := range servers {
		srv.Close()
	}
}

// tier is the live store tier of a cluster scenario: I/O nodes on loopback
// TCP behind a shardstore client that places every object on R = 2 of them
// (two lanes each; the short call timeout keeps a drain from hanging on a
// dead backend's socket), instrumented into reg.
type tier struct {
	servers []*iod.Server
	addrs   []string
	store   *shardstore.Store
	reg     *metrics.Registry
}

func liveTier(backends int) (*tier, error) {
	servers, addrs, err := startIODs(backends)
	if err != nil {
		return nil, err
	}
	store, err := dialTier(addrs)
	if err != nil {
		closeIODs(servers)
		return nil, err
	}
	t := &tier{servers: servers, addrs: addrs, store: store, reg: metrics.NewRegistry()}
	store.Instrument(t.reg)
	return t, nil
}

func dialTier(addrs []string) (*shardstore.Store, error) {
	return shardstore.Dial(addrs, 2, shardstore.Config{Replicas: 2, CallTimeout: 300 * time.Millisecond})
}

// close shuts the client, then every server in t.servers (a scenario appends
// the ones it boots later).
func (t *tier) close() {
	t.store.Close()
	closeIODs(t.servers)
}

// newJob assembles a scenario's coordinated job over store: one node per
// rank draining gzip(1) in 16 KiB blocks, rank(i) as rank i's application.
func newJob(job string, store iostore.Backend, ranks int, rank func(i int) cluster.Rank) (*cluster.Cluster, error) {
	gz, _ := compress.Lookup("gzip", 1)
	nodes := make([]*node.Node, ranks)
	apps := make([]cluster.Rank, ranks)
	for i := range nodes {
		var err error
		nodes[i], err = node.New(node.Config{Job: job, Rank: i, Store: store, Codec: gz, BlockSize: 1 << 14})
		if err != nil {
			return nil, err
		}
		apps[i] = rank(i)
	}
	return cluster.New(job, store, nodes, apps)
}

// drainRounds steps every app and commits one coordinated checkpoint per
// round, waiting for each to reach the store; midDrain runs right after the
// last round's commit, while its drain is in flight. It returns the
// committed IDs.
func drainRounds(c *cluster.Cluster, apps []*chaosRank, rounds int, midDrain func(id uint64) error) ([]uint64, error) {
	var committed []uint64
	fmt.Println()
	for round := 1; round <= rounds; round++ {
		for _, a := range apps {
			if err := a.app.Step(); err != nil {
				return nil, err
			}
		}
		id, err := c.Checkpoint(context.Background(), round)
		if err != nil {
			return nil, err
		}
		committed = append(committed, id)
		fmt.Printf("  round %d: checkpoint %d committed\n", round, id)
		if round == rounds {
			if err := midDrain(id); err != nil {
				return nil, err
			}
		}
		if err := waitStore(c, id, 30*time.Second); err != nil {
			return nil, fmt.Errorf("checkpoint %d never drained: %w", id, err)
		}
	}
	return committed, nil
}

// lostLines prints and counts the committed restart lines missing from lines.
func lostLines(committed, lines []uint64) int {
	lost := 0
	for _, id := range committed {
		if !slices.Contains(lines, id) {
			lost++
			fmt.Printf("  LOST restart line %d\n", id)
		}
	}
	fmt.Printf("  lost restart lines: %d\n", lost)
	return lost
}
