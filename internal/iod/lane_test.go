package iod

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// This file holds what the tests use in place of reaching into a lane: a
// backing store whose block operations park on gates the test opens, and
// helpers that read or break lane state through Client.mu.

// gatedStore parks every GetBlock and PutBlock of a gated block index until
// the test releases that index; everything else passes through. A parked
// call ignores its context, like a device that has stalled.
type gatedStore struct {
	iostore.Backend
	arrived chan int // index of every call that reached a gate, in order

	mu    sync.Mutex
	gates map[int]chan struct{}
	open  chan struct{} // closed at cleanup: a failed test must not strand Server.Close
}

func newGatedStore() *gatedStore {
	return &gatedStore{
		Backend: iostore.New(nvm.Pacer{}),
		arrived: make(chan int, 4*laneDepth), // more than any test parks at once
		gates:   make(map[int]chan struct{}),
		open:    make(chan struct{}),
	}
}

// gate arms (or returns) the gate of one block index.
func (g *gatedStore) gate(index int) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gates[index] == nil {
		g.gates[index] = make(chan struct{})
	}
	return g.gates[index]
}

// release opens the gate of one block index for good.
func (g *gatedStore) release(index int) { close(g.gate(index)) }

func (g *gatedStore) park(index int) {
	g.mu.Lock()
	gate := g.gates[index]
	g.mu.Unlock()
	if gate != nil {
		g.arrived <- index
		select {
		case <-gate:
		case <-g.open:
		}
	}
}

func (g *gatedStore) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	g.park(index)
	return g.Backend.GetBlock(ctx, key, index)
}

func (g *gatedStore) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	g.park(index)
	return g.Backend.PutBlock(ctx, key, meta, index, block)
}

// awaitArrivals collects n gate arrivals.
func (g *gatedStore) awaitArrivals(t *testing.T, n int) []int {
	t.Helper()
	got := make([]int, 0, n)
	for len(got) < n {
		select {
		case i := <-g.arrived:
			got = append(got, i)
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d calls reached the backing store", len(got), n)
		}
	}
	return got
}

// startPoolOver launches a server over backing and returns a connected
// n-lane client (whose Addr is the server's).
func startPoolOver(t *testing.T, backing iostore.Backend, n int) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(backing)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := serve(t, srv)
	client, err := DialPool(addr, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if g, ok := backing.(*gatedStore); ok {
			close(g.open)
		}
		client.Close()
		srv.Close()
	})
	return srv, client
}

// eventually yields until cond holds, for up to 10s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
		runtime.Gosched()
	}
}

// laneDialed reports whether pool lane i has a live connection.
func laneDialed(c *Client, i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lanes[i].link != nil
}

// busyLane returns the index of the one lane carrying exchanges.
func busyLane(t *testing.T, c *Client) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	busy := -1
	for i, ln := range c.lanes {
		if ln.inflight > 0 {
			if busy >= 0 {
				t.Fatalf("lanes %d and %d are both busy", busy, i)
			}
			busy = i
		}
	}
	if busy < 0 {
		t.Fatal("no lane is busy")
	}
	return busy
}

// severLane closes lane i's connection out from under the client, as a
// network break would, and waits for its reader to mark the lane broken.
func severLane(t *testing.T, c *Client, i int) {
	t.Helper()
	c.mu.Lock()
	lk := c.lanes[i].link
	c.mu.Unlock()
	if lk == nil {
		t.Fatalf("lane %d has no connection to sever", i)
	}
	lk.conn.Close()
	eventually(t, "severed lane marked broken", func() bool { return !laneDialed(c, i) })
}

// warmLanes brings every lazy lane of the pool up the way traffic does: one
// block fetch per lane is parked at gated index 0 of key, so each finds the
// lanes before it busy and dials the next idle one.
func warmLanes(t *testing.T, c *Client, g *gatedStore, key iostore.Key) {
	t.Helper()
	g.gate(0)
	var wg sync.WaitGroup
	for range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.GetBlock(context.Background(), key, 0); err != nil {
				t.Errorf("warm-up fetch: %v", err)
			}
		}()
	}
	g.awaitArrivals(t, len(c.lanes))
	g.release(0)
	wg.Wait()
	for i := range c.lanes {
		if !laneDialed(c, i) {
			t.Fatalf("lane %d still undialed after %d concurrent calls", i, len(c.lanes))
		}
	}
}

// putBlocks stores n one-byte blocks under key, block i holding byte(i).
func putBlocks(t *testing.T, b iostore.Backend, key iostore.Key, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := b.PutBlock(context.Background(), key, iostore.Object{OrigSize: int64(n)}, i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
}
