package iod

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/iod/wire"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// fetchAll issues one GetBlock per index concurrently and returns a channel
// of their outcomes: nil when the caller got the block that index holds
// (putBlocks' byte(i)), so a cross-delivered reply shows as an error.
func fetchAll(c *Client, key iostore.Key, indexes []int) chan error {
	out := make(chan error, len(indexes))
	for _, i := range indexes {
		go func() {
			b, err := c.GetBlock(context.Background(), key, i)
			if err == nil && !bytes.Equal(b, []byte{byte(i)}) {
				err = fmt.Errorf("GetBlock(%d) returned block %v", i, b)
			}
			out <- err
		}()
	}
	return out
}

// gateBlocks arms the gates of blocks 0..n-1 and returns their indexes.
func gateBlocks(g *gatedStore, n int) []int {
	indexes := make([]int, n)
	for i := range indexes {
		indexes[i] = i
		g.gate(i)
	}
	return indexes
}

// TestOneLaneCarriesConcurrentCalls is the structural property the lane
// benchmark used to gate, as counts: on a one-lane client every concurrent
// fetch reaches the backing store before any is released, and replies
// arriving in the reverse order each find their own caller.
func TestOneLaneCarriesConcurrentCalls(t *testing.T) {
	const k = 8
	g := newGatedStore()
	srv, client := startPoolOver(t, g, 1)
	key := iostore.Key{Job: "mux", Rank: 0, ID: 1}
	putBlocks(t, g.Backend, key, k)
	indexes := gateBlocks(g, k)
	results := fetchAll(client, key, indexes)
	g.awaitArrivals(t, k)
	if got := srv.mInFlight.Value(); got != k {
		t.Errorf("server handling %v requests with %d parked, want all of them", got, k)
	}
	srv.mu.Lock()
	conns := len(srv.conns)
	srv.mu.Unlock()
	if conns != 1 {
		t.Errorf("%d connections carry the %d calls, want 1", conns, k)
	}
	for i := k - 1; i >= 0; i-- {
		g.release(i)
	}
	for range indexes {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
}

// TestCallsPastLaneDepthQueue: with more concurrent calls than the lane
// carries, exactly laneDepth reach the store and the rest queue — each
// counted once in lane_waits — until a slot frees.
func TestCallsPastLaneDepthQueue(t *testing.T) {
	const extra = 4
	g := newGatedStore()
	_, client := startPoolOver(t, g, 1)
	reg := metrics.NewRegistry()
	client.Instrument(reg)
	waits := reg.Counter("ndpcr_iod_lane_waits_total", "")
	key := iostore.Key{Job: "mux", Rank: 0, ID: 2}
	putBlocks(t, g.Backend, key, laneDepth+extra)
	indexes := gateBlocks(g, laneDepth+extra)
	results := fetchAll(client, key, indexes)
	arrived := g.awaitArrivals(t, laneDepth)
	eventually(t, "the calls past the bound counted as lane waits", func() bool { return waits.Value() == extra })
	// Every call is now accounted for — laneDepth parked, the rest queued —
	// so nothing else can be on its way to the store.
	if n := len(g.arrived); n != 0 {
		t.Fatalf("%d calls reached the store past the per-connection bound", n)
	}
	for _, i := range arrived {
		g.release(i)
	}
	for _, i := range g.awaitArrivals(t, extra) {
		g.release(i)
	}
	for range indexes {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
	if v := waits.Value(); v != extra {
		t.Errorf("lane waits = %v, want %d", v, extra)
	}
	if v := reg.Counter("ndpcr_iod_call_retries_total", "").Value(); v != 0 {
		t.Errorf("%v retries in a fault-free run", v)
	}
}

// TestCanceledReadReleasesItsLane: a canceled fetch returns while its
// request is still parked at the store, its late reply is dropped, and the
// lane goes on serving without a reconnect.
func TestCanceledReadReleasesItsLane(t *testing.T) {
	g := newGatedStore()
	_, client := startPoolOver(t, g, 1)
	reg := metrics.NewRegistry()
	client.Instrument(reg)
	key := iostore.Key{Job: "cancel", Rank: 0, ID: 1}
	putBlocks(t, g.Backend, key, 2)
	g.gate(0)

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := client.GetBlock(ctx, key, 0)
		got <- err
	}()
	g.awaitArrivals(t, 1)
	cancel()
	select {
	case err := <-got: // the gate is still shut
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled GetBlock = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled GetBlock is waiting out its reply")
	}
	g.release(0)
	// The same lane carries the next calls, whichever side of the late
	// reply they land on.
	for i := 0; i < 3; i++ {
		if b, err := client.GetBlock(context.Background(), key, 1); err != nil || !bytes.Equal(b, []byte{1}) {
			t.Fatalf("GetBlock after an abandoned one = %v, %v", b, err)
		}
	}
	if v := reg.Counter("ndpcr_iod_reconnects_total", "").Value(); v != 0 {
		t.Errorf("abandoning a read cost %v reconnects", v)
	}
	if v := reg.Counter("ndpcr_iod_call_retries_total", "").Value(); v != 0 {
		t.Errorf("abandoning a read cost %v retries", v)
	}
	client.mu.Lock()
	pending := len(client.lanes[0].pending)
	client.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d calls still pending on an idle lane", pending)
	}
}

// TestCanceledWriteWaitsForItsReply is the twin: a canceled PutBlock does
// not return while the write may still run on the server, so the Delete its
// caller issues next cannot be overtaken by it.
func TestCanceledWriteWaitsForItsReply(t *testing.T) {
	g := newGatedStore()
	_, client := startPoolOver(t, g, 1)
	key := iostore.Key{Job: "cancel", Rank: 0, ID: 2}
	g.gate(0)

	ctx, cancel := context.WithCancel(context.Background())
	var released atomic.Bool
	got := make(chan error, 1)
	go func() {
		err := client.PutBlock(ctx, key, iostore.Object{OrigSize: 1}, 0, []byte{7})
		if !released.Load() {
			err = fmt.Errorf("PutBlock returned (%v) with its write still parked at the store", err)
		} else if err == nil {
			// What a drain's abort path does once its sender has been waited for.
			err = client.Delete(context.Background(), key)
		}
		got <- err
	}()
	g.awaitArrivals(t, 1)
	cancel()
	// A round trip on the same lane: ample time for a call that does not
	// wait to have returned.
	if _, _, err := client.Stat(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	released.Store(true)
	g.release(0)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if _, ok, err := g.Backend.Stat(context.Background(), key); err != nil || ok {
		t.Errorf("object left behind after PutBlock, Delete: ok=%v err=%v", ok, err)
	}
}

// TestCallDeadlineSeversLane: a deadline that passes with no reply severs
// the lane, which fails the other exchange pending on it; that one retries
// over a fresh connection.
func TestCallDeadlineSeversLane(t *testing.T) {
	g := newGatedStore()
	_, client := startPoolOver(t, g, 1)
	reg := metrics.NewRegistry()
	client.Instrument(reg)
	key := iostore.Key{Job: "deadline", Rank: 0, ID: 1}
	putBlocks(t, g.Backend, key, 2)
	g.gate(0)
	g.gate(1)

	bystander := fetchAll(client, key, []int{1})
	g.awaitArrivals(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := client.GetBlock(ctx, key, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetBlock past its deadline = %v, want DeadlineExceeded", err)
	}
	g.awaitArrivals(t, 2) // the expired call, and the bystander's retry
	g.release(0)
	g.release(1)
	if err := <-bystander; err != nil {
		t.Fatalf("exchange sharing the severed lane: %v", err)
	}
	if v := reg.Counter("ndpcr_iod_reconnects_total", "").Value(); v != 1 {
		t.Errorf("reconnects = %v, want 1", v)
	}
}

// scriptedPeer is the far end of a net.Pipe under the test's control: it
// reads request frames and writes whatever replies the test scripts.
type scriptedPeer struct {
	t    *testing.T
	conn net.Conn
	wc   *wire.Conn
}

func newScriptedPeer(t *testing.T) (*Client, *scriptedPeer) {
	a, b := net.Pipe()
	client := NewClient(a)
	t.Cleanup(func() {
		client.Close()
		b.Close()
	})
	return client, &scriptedPeer{t: t, conn: b, wc: wire.NewConn(b)}
}

// request reads the next request frame and returns its ID. It runs on the
// peer's goroutine, so a failure is reported, not fatal: the test's own
// goroutine then fails on the call that got no answer.
func (p *scriptedPeer) request() uint64 {
	h, _, _, err := p.wc.ReadFrame()
	if err != nil {
		p.t.Errorf("peer read: %v", err)
	} else if h.Aux == 0 {
		p.t.Error("client sent request ID 0")
	}
	return h.Aux
}

// reply writes resp as a GetBlock reply under the given ID.
func (p *scriptedPeer) reply(id uint64, resp *response) error {
	h := wire.Header{Op: uint8(opGetBlock), Flags: respFlags(resp), Aux: id}
	return p.wc.WriteFrame(h, appendResponseMeta(nil, resp), responsePayload(resp)...)
}

// TestStrayRepliesAreDropped: the demultiplexer reads IDs off a wire. A
// reply that names no pending call — an ID never issued, ID 0, a duplicate
// of one already completed — is dropped: it completes no other call, and
// the lane keeps serving.
func TestStrayRepliesAreDropped(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stray func(id uint64) uint64 // the stray reply's ID, given the pending call's
	}{
		{"unknown ID", func(id uint64) uint64 { return id + 1000 }},
		{"ID 0", func(uint64) uint64 { return 0 }},
		{"duplicate of the previous reply", func(id uint64) uint64 { return id - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, peer := newScriptedPeer(t)
			go func() {
				// One clean exchange first, so a previous ID exists.
				peer.reply(peer.request(), &response{Block: []byte("first")})
				id := peer.request()
				peer.reply(tc.stray(id), &response{Block: []byte("stray")})
				peer.reply(id, &response{Block: []byte("second")})
				peer.reply(id, &response{Block: []byte("late twin")})
				peer.reply(peer.request(), &response{Block: []byte("third")})
			}()
			for _, want := range []string{"first", "second", "third"} {
				b, err := client.GetBlock(context.Background(), iostore.Key{Job: "stray"}, 0)
				if err != nil || string(b) != want {
					t.Fatalf("GetBlock = %q, %v; want %q", b, err, want)
				}
			}
		})
	}
}

// TestBadRepliesCostTheLane: a reply that fails its checksum, reports that
// the server read a corrupt request (ID 0: the header could not be
// trusted), or does not decode fails every exchange pending on the lane —
// no call is left waiting, none gets another's answer.
func TestBadRepliesCostTheLane(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(p *scriptedPeer, id uint64)
	}{
		{"corrupt reply", func(p *scriptedPeer, id uint64) {
			p.wc.CorruptNext = true
			p.reply(id, &response{Block: []byte("flipped")})
		}},
		{"server saw a corrupt request", func(p *scriptedPeer, id uint64) {
			p.reply(0, &response{Err: checksumErrPrefix + ": op 8"})
		}},
		{"undecodable meta", func(p *scriptedPeer, id uint64) {
			p.wc.WriteFrame(wire.Header{Op: uint8(opGetBlock), Aux: id}, []byte{0xff})
		}},
		{"peer hangs up", func(p *scriptedPeer, id uint64) { p.conn.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, peer := newScriptedPeer(t)
			go func() {
				first, _ := peer.request(), peer.request()
				tc.bad(peer, first)
			}()
			results := fetchAll(client, iostore.Key{Job: "bad"}, []int{0, 1})
			for i := 0; i < 2; i++ {
				if err := <-results; err == nil {
					t.Error("a call on the failed lane completed")
				}
			}
			// A pipe cannot be redialed: the lane stays broken, loudly.
			if _, err := client.GetBlock(context.Background(), iostore.Key{Job: "bad"}, 0); err == nil {
				t.Error("call on a broken lane with no address succeeded")
			}
		})
	}
}

// TestCloseFailsPendingAndJoinsReaders: Close fails the exchanges in flight,
// a reply arriving afterwards goes nowhere, and no reader goroutine is left
// behind — on a pipe, and on a pool with every lane up.
func TestCloseFailsPendingAndJoinsReaders(t *testing.T) {
	before := runtime.NumGoroutine()

	client, peer := newScriptedPeer(t)
	results := fetchAll(client, iostore.Key{Job: "close"}, []int{0})
	id := peer.request()
	client.Close()
	if err := <-results; err == nil {
		t.Error("call in flight across Close succeeded")
	}
	if err := peer.reply(id, &response{Block: []byte{0}}); err == nil {
		t.Error("reply after Close was accepted by someone")
	}
	peer.conn.Close()

	g := newGatedStore()
	srv, pool := startPoolOver(t, g, 4)
	key := iostore.Key{Job: "close", Rank: 0, ID: 1}
	putBlocks(t, g.Backend, key, 1)
	warmLanes(t, pool, g, key)
	pool.Close()
	for i := 0; i < pool.Lanes(); i++ {
		if laneDialed(pool, i) {
			t.Errorf("lane %d still has a connection after Close", i)
		}
	}
	srv.Close()
	eventually(t, "goroutine count back to where it started", func() bool { return runtime.NumGoroutine() <= before })
}

// rawRequests writes n GetBlock requests for blocks first.. of key on a raw
// connection, reading no reply.
func rawRequests(t *testing.T, conn net.Conn, key iostore.Key, first, n int) {
	t.Helper()
	wc := wire.NewConn(conn)
	for i := first; i < first+n; i++ {
		req := &request{Op: opGetBlock, Key: key, Index: i}
		h := wire.Header{Op: uint8(opGetBlock), Index: uint32(i), Aux: uint64(i + 1)}
		if err := wc.WriteFrame(h, appendRequestMeta(nil, req)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerParksReaderAtLaneDepth: requests come from outside the program,
// so the server enforces the per-connection bound itself — a peer that
// sends past it without reading replies is not read further until a handler
// finishes.
func TestServerParksReaderAtLaneDepth(t *testing.T) {
	g := newGatedStore()
	srv, client := startPoolOver(t, g, 1)
	key := iostore.Key{Job: "park", Rank: 0, ID: 1}
	putBlocks(t, g.Backend, key, laneDepth+1)
	gateBlocks(g, laneDepth+1)
	raw, err := net.Dial("tcp", client.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	rawRequests(t, raw, key, 0, laneDepth+1)
	g.awaitArrivals(t, laneDepth)
	if got := srv.mInFlight.Value(); got != laneDepth {
		t.Errorf("inflight requests = %v with %d sent, want the bound %d", got, laneDepth+1, laneDepth)
	}
	if n := len(g.arrived); n != 0 {
		t.Fatalf("request %d was dispatched past the bound", laneDepth+1)
	}
	g.release(0)
	if got := g.awaitArrivals(t, 1); got[0] != laneDepth {
		t.Errorf("block %d arrived once a slot freed, want the parked request's %d", got[0], laneDepth)
	}
	for i := 1; i <= laneDepth; i++ {
		g.release(i)
	}
}

// TestServerCloseJoinsHandlersOfDroppedConn: a connection dropped with
// handlers in flight leaves nothing behind — the handlers finish into a
// closed socket, Close returns, and the goroutine count is back where it
// started.
func TestServerCloseJoinsHandlersOfDroppedConn(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newGatedStore()
	defer close(g.open)
	srv, err := NewServer(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		srv.Serve(l)
	}()
	key := iostore.Key{Job: "drop", Rank: 0, ID: 1}
	putBlocks(t, g.Backend, key, 3)
	gateBlocks(g, 3)
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rawRequests(t, raw, key, 0, 3)
	g.awaitArrivals(t, 3)
	raw.Close()
	eventually(t, "dropped connection deregistered", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	})
	if got := srv.mInFlight.Value(); got != 3 {
		t.Errorf("inflight requests = %v after the drop, want the 3 still parked", got)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	for i := 0; i < 3; i++ {
		g.release(i)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	serving.Wait()
	eventually(t, "goroutine count back to where it started", func() bool { return runtime.NumGoroutine() <= before })
}
