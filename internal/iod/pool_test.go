package iod

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/iod/wire"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// startPool launches a server and returns a connected n-lane client.
func startPool(t *testing.T, n int) (*Server, *Client, *iostore.Store) {
	t.Helper()
	backing := iostore.New(nvm.Pacer{})
	srv, err := NewServer(backing)
	if err != nil {
		t.Fatal(err)
	}
	go srv.ListenAndServe("127.0.0.1:0")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	client, err := DialPool(srv.Addr().String(), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return srv, client, backing
}

// warmLane forces the lazy dial of pool lane i by keeping every other lane
// busy while one call runs.
func warmLane(t *testing.T, c *Client, i int) {
	t.Helper()
	for j, ln := range c.lanes {
		if j != i {
			ln.mu.Lock()
		}
	}
	c.Latest(context.Background(), "warm", 0)
	for j, ln := range c.lanes {
		if j != i {
			ln.mu.Unlock()
		}
	}
	c.lanes[i].mu.Lock()
	broken := c.lanes[i].broken
	c.lanes[i].mu.Unlock()
	if broken {
		t.Fatalf("lane %d still broken after warm-up call", i)
	}
}

// deadAddr returns a localhost address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestDialPoolLazyLanes(t *testing.T) {
	_, client, _ := startPool(t, 4)
	if client.Lanes() != 4 {
		t.Fatalf("Lanes() = %d, want 4", client.Lanes())
	}
	reg := metrics.NewRegistry()
	client.Instrument(reg)
	// Sequential calls have a free healthy lane 0 every time; the lazy
	// lanes must stay undialed (no reconnects counted).
	for i := 0; i < 10; i++ {
		client.Latest(context.Background(), "lazy", 0)
	}
	if v := reg.Counter("ndpcr_iod_reconnects_total", "").Value(); v != 0 {
		t.Errorf("sequential calls dialed %v lazy lanes; want 0", v)
	}
	for i, ln := range client.lanes[1:] {
		ln.mu.Lock()
		if ln.conn != nil {
			t.Errorf("lazy lane %d has a connection before any concurrent load", i+1)
		}
		ln.mu.Unlock()
	}
}

func TestPoolConcurrentInterleavings(t *testing.T) {
	// Concurrent drain (PutBlock) and inventory/fetch (Stat, Get, GetBlock)
	// traffic on one pooled client: interleavings must neither corrupt
	// per-lane frame streams nor cross-deliver responses. Run under -race.
	_, client, _ := startPool(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := iostore.Key{Job: "pool", Rank: g, ID: 1}
			meta := iostore.Object{OrigSize: 64}
			for i := 0; i < 30; i++ {
				block := bytes.Repeat([]byte{byte(g)}, 16)
				if err := client.PutBlock(context.Background(), key, meta, i, block); err != nil {
					errs <- fmt.Errorf("rank %d put %d: %w", g, i, err)
					return
				}
				if i%5 == 4 {
					obj, err := client.Get(context.Background(), key)
					if err != nil {
						errs <- fmt.Errorf("rank %d get: %w", g, err)
						return
					}
					if len(obj.Blocks) < i+1 || !bytes.Equal(obj.Blocks[i], block) {
						errs <- fmt.Errorf("rank %d read back wrong blocks", g)
						return
					}
					if b, err := client.GetBlock(context.Background(), key, i); err != nil || !bytes.Equal(b, block) {
						errs <- fmt.Errorf("rank %d GetBlock(%d): %v", g, i, err)
						return
					}
				}
				client.Stat(context.Background(), key)
			}
			if _, n, ok, _ := client.StatBlocks(context.Background(), key); !ok || n != 30 {
				errs <- fmt.Errorf("rank %d StatBlocks = %d, %v", g, n, ok)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLaneFailureMidStreamResumesOnAnotherLane(t *testing.T) {
	_, client, backing := startPool(t, 2)
	reg := metrics.NewRegistry()
	client.Instrument(reg)
	warmLane(t, client, 1) // both lanes now connected

	key := iostore.Key{Job: "failover", Rank: 0, ID: 1}
	if err := backing.Put(context.Background(), iostore.Object{Key: key, OrigSize: 4, Blocks: [][]byte{[]byte("data")}}); err != nil {
		t.Fatal(err)
	}

	// Sever lane 0 out from under the client and aim the cursor at it: the
	// first exchange fails mid-stream, and the retry must resume on healthy
	// lane 1 instead of stalling to redial lane 0 first.
	ln0 := client.lanes[0]
	ln0.connMu.Lock()
	ln0.conn.Close()
	ln0.connMu.Unlock()
	client.next.Store(0)

	reconBefore := reg.Counter("ndpcr_iod_reconnects_total", "").Value()
	obj, err := client.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get across lane failure: %v", err)
	}
	if !bytes.Equal(obj.Blocks[0], []byte("data")) {
		t.Error("failover read returned wrong data")
	}
	if v := reg.Counter("ndpcr_iod_call_retries_total", "").Value(); v == 0 {
		t.Error("no retry counted; the severed lane was never hit")
	}
	if v := reg.Counter("ndpcr_iod_reconnects_total", "").Value(); v != reconBefore {
		t.Errorf("retry redialed the broken lane (%v reconnects) instead of resuming on the healthy one", v-reconBefore)
	}
	ln0.mu.Lock()
	broken := ln0.broken
	ln0.mu.Unlock()
	if !broken {
		t.Error("severed lane not marked broken for later repair")
	}
}

func TestBrokenLaneBackoffDoesNotBlockHealthyLane(t *testing.T) {
	// Regression for the lock-hold bug: reconnect backoff used to sleep
	// holding the client mutex, so one broken exchange froze every caller
	// for the full ~4.5 s retry window. With per-lane state and unlocked
	// sleeps, a call riding out a redial on one lane must not delay an
	// inventory call on a healthy lane.
	_, client, backing := startPool(t, 2)
	warmLane(t, client, 1)

	key := iostore.Key{Job: "nb", Rank: 0, ID: 1}
	if err := backing.Put(context.Background(), iostore.Object{Key: key, OrigSize: 1, Blocks: [][]byte{{1}}}); err != nil {
		t.Fatal(err)
	}

	// Break lane 0 and point redials at a dead address, so its repair runs
	// the full dial backoff schedule (~0.8 s of sleeping).
	ln0 := client.lanes[0]
	ln0.connMu.Lock()
	ln0.conn.Close()
	ln0.connMu.Unlock()
	ln0.mu.Lock()
	ln0.broken = true
	ln0.mu.Unlock()
	client.addr = deadAddr(t)

	// Force caller A onto broken lane 0 by keeping lane 1 busy, then let A
	// sink into the repair backoff.
	client.lanes[1].mu.Lock()
	aDone := make(chan error, 1)
	go func() {
		_, err := client.Get(context.Background(), key)
		aDone <- err
	}()
	time.Sleep(150 * time.Millisecond)
	client.lanes[1].mu.Unlock()

	// Caller B on the healthy lane must answer promptly while A is still
	// inside its backoff window.
	start := time.Now()
	if _, ok, _ := client.Stat(context.Background(), key); !ok {
		t.Error("Stat on healthy lane failed")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("healthy-lane Stat took %v; broken lane's backoff is blocking the pool", d)
	}
	select {
	case err := <-aDone:
		t.Fatalf("caller on broken lane finished before its dial backoff could run (err=%v)", err)
	default:
	}

	// A's retry cycle must eventually succeed by resuming on the healthy
	// lane (lane 0 stays unrepairable), not fail the call.
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatalf("call on broken lane never recovered: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("call on broken lane still blocked")
	}
}

func TestStreamedGetMatchesWholeGet(t *testing.T) {
	_, client, backing := startPool(t, 2)
	key := iostore.Key{Job: "eq", Rank: 1, ID: 9}
	want := iostore.Object{
		Key:      key,
		Codec:    "gzip",
		OrigSize: 48,
		Blocks:   [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")},
		Meta:     map[string]string{"step": "9"},
	}
	if err := backing.Put(context.Background(), want); err != nil {
		t.Fatal(err)
	}

	meta, n, ok, _ := client.StatBlocks(context.Background(), key)
	if !ok || n != 3 {
		t.Fatalf("StatBlocks = %d blocks, ok=%v", n, ok)
	}
	if meta.Codec != "gzip" || meta.Meta["step"] != "9" || len(meta.Blocks) != 0 {
		t.Errorf("StatBlocks metadata %+v", meta)
	}
	streamed := meta
	for i := 0; i < n; i++ {
		b, err := client.GetBlock(context.Background(), key, i)
		if err != nil {
			t.Fatalf("GetBlock(%d): %v", i, err)
		}
		streamed.Blocks = append(streamed.Blocks, b)
	}
	whole, err := client.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Blocks) != len(whole.Blocks) {
		t.Fatalf("streamed %d blocks, whole %d", len(streamed.Blocks), len(whole.Blocks))
	}
	for i := range whole.Blocks {
		if !bytes.Equal(streamed.Blocks[i], whole.Blocks[i]) {
			t.Errorf("block %d diverges between streamed and whole fetch", i)
		}
	}

	if _, err := client.GetBlock(context.Background(), key, 99); err == nil {
		t.Error("out-of-range block index accepted")
	}
	missing := iostore.Key{Job: "eq", Rank: 1, ID: 404}
	if _, err := client.GetBlock(context.Background(), missing, 0); !errors.Is(err, iostore.ErrNotFound) {
		t.Errorf("missing object GetBlock err = %v, want ErrNotFound", err)
	}
	if _, _, ok, _ := client.StatBlocks(context.Background(), missing); ok {
		t.Error("StatBlocks found a missing object")
	}
}

func TestKeysEnumerationOverWire(t *testing.T) {
	// opKeys must cross the wire and come back in iostore's
	// canonical order — the shard planner's inventory is built from it.
	_, client, backing := startServer(t)
	want := []iostore.Key{
		{Job: "a", Rank: 0, ID: 1},
		{Job: "a", Rank: 0, ID: 2},
		{Job: "a", Rank: 3, ID: 1},
		{Job: "b", Rank: 0, ID: 7},
	}
	for _, k := range want {
		err := backing.Put(context.Background(), iostore.Object{Key: k, OrigSize: 1, Blocks: [][]byte{{0xff}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := client.Keys(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Keys over wire = %v, want %v", got, want)
	}
	// Empty store: empty listing, no error (the trailing wire section is
	// simply absent).
	for _, k := range want {
		if err := backing.Delete(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	got, err = client.Keys(context.Background())
	if err != nil || len(got) != 0 {
		t.Errorf("Keys on empty store = %v, %v; want empty, nil", got, err)
	}
}

// failingBackend errors every inventory read; writes succeed.
type failingBackend struct {
	iostore.Backend
}

func (f failingBackend) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	return iostore.Object{}, false, errors.New("backend melted")
}
func (f failingBackend) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	return nil, errors.New("backend melted")
}
func (f failingBackend) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	return 0, false, errors.New("backend melted")
}
func (f failingBackend) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	return iostore.Object{}, 0, false, errors.New("backend melted")
}

// TestRemoteInventoryErrorsSurfaced is the masking regression: a remote
// Stat/IDs/Latest/StatBlocks failure must surface as an error — read as
// "nothing stored", a restore coordinator on a sick I/O node would conclude
// there was no checkpoint to restore.
func TestRemoteInventoryErrorsSurfaced(t *testing.T) {
	srv, err := NewServer(failingBackend{iostore.New(nvm.Pacer{})})
	if err != nil {
		t.Fatal(err)
	}
	go srv.ListenAndServe("127.0.0.1:0")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reg := metrics.NewRegistry()
	client.Instrument(reg)

	ctx := context.Background()
	key := iostore.Key{Job: "sick", Rank: 0, ID: 1}
	if _, ok, err := client.Stat(ctx, key); err == nil || ok {
		t.Error("Stat masked a remote failure as absence")
	}
	if ids, err := client.IDs(ctx, "sick", 0); err == nil || ids != nil {
		t.Error("IDs masked a remote failure as an empty inventory")
	}
	if _, ok, err := client.Latest(ctx, "sick", 0); err == nil || ok {
		t.Error("Latest masked a remote failure as absence")
	}
	if _, _, ok, err := client.StatBlocks(ctx, key); err == nil || ok {
		t.Error("StatBlocks masked a remote failure as absence")
	}
	if got := client.mMaskedInv.Value(); got != 4 {
		t.Errorf("masked-inventory counter = %v, want 4", got)
	}
}

func TestInventoryErrorsSurfacedAndMaskedCounted(t *testing.T) {
	// Regression: Stat/IDs/Latest used to swallow transport errors as
	// not-found/empty, silently deleting the I/O level from restart-line
	// intersections. The error-first Backend surface must return the error.
	a, b := net.Pipe()
	b.Close()
	client := NewClient(a)
	a.Close()
	reg := metrics.NewRegistry()
	client.Instrument(reg)

	key := iostore.Key{Job: "inv", Rank: 0, ID: 1}
	if _, _, err := client.Stat(context.Background(), key); err == nil {
		t.Error("Stat masked a dead transport")
	}
	if _, err := client.IDs(context.Background(), "inv", 0); err == nil {
		t.Error("IDs masked a dead transport")
	}
	if _, _, err := client.Latest(context.Background(), "inv", 0); err == nil {
		t.Error("Latest masked a dead transport")
	}
}

func TestServerMaxConnsRejectsSurplus(t *testing.T) {
	backing := iostore.New(nvm.Pacer{})
	srv, err := NewServer(backing)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMaxConns(1)
	go srv.ListenAndServe("127.0.0.1:0")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	defer srv.Close()

	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Complete an exchange so the funded connection is registered before
	// the surplus one arrives.
	if err := client.PutBlock(context.Background(), iostore.Key{Job: "cap", Rank: 0, ID: 1}, iostore.Object{}, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(3 * time.Second))
	wc := wire.NewConn(raw, nil)
	_ = wc.WriteFrame(wire.Header{Op: uint8(opLatest)}, appendRequestMeta(nil, &request{Op: opLatest, Job: "cap"}))
	if _, _, _, err := wc.ReadFrame(); err == nil {
		t.Error("surplus connection was served past the lane budget")
	}
	waitFor := time.Now().Add(3 * time.Second)
	for srv.mRejected.Value() == 0 {
		if time.Now().After(waitFor) {
			t.Fatal("rejected connection never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The funded client keeps working.
	if latest, ok, _ := client.Latest(context.Background(), "cap", 0); !ok || latest != 1 {
		t.Errorf("funded client broken after rejection: %d, %v", latest, ok)
	}
}

// TestAcquireLanePrefersHealthyWhenAllBusy pins every lane busy and checks
// the queueing fallback picks the healthy lane, not blindly the cursor's.
func TestAcquireLanePrefersHealthyWhenAllBusy(t *testing.T) {
	c := &Client{lanes: []*lane{{}, {}, {}}}
	for _, ln := range c.lanes {
		ln.broken = true
		ln.mu.Lock() // every lane busy
	}
	c.lanes[2].healthy.Store(true)

	got := make(chan *lane)
	go func() { got <- c.acquireLane() }()
	// The cursor starts at lane 0 (unhealthy, held forever): the old
	// fallback queued there and would never return. The fixed fallback
	// queues on the healthy lane 2, so freeing it releases the waiter.
	select {
	case <-got:
		t.Fatal("acquireLane returned while every lane was still held")
	case <-time.After(50 * time.Millisecond):
	}
	c.lanes[2].mu.Unlock()
	select {
	case ln := <-got:
		if ln != c.lanes[2] {
			t.Error("acquireLane queued on an unhealthy lane instead of the healthy one")
		}
		ln.mu.Unlock()
	case <-time.After(2 * time.Second):
		t.Fatal("acquireLane never returned after the healthy lane freed (queued on an unhealthy lane?)")
	}
}

// exerciseSuite runs one full drain/restore/inventory cycle through a
// client.
func exerciseSuite(t *testing.T, client *Client) {
	t.Helper()
	ctx := context.Background()
	key := iostore.Key{Job: "compat", Rank: 2, ID: 7}
	meta := iostore.Object{Key: key, OrigSize: 12, Meta: map[string]string{"step": "9"}}
	if err := client.PutBlock(ctx, key, meta, 0, []byte("hello ")); err != nil {
		t.Fatalf("PutBlock 0: %v", err)
	}
	if err := client.PutBlock(ctx, key, meta, 1, []byte("wire!")); err != nil {
		t.Fatalf("PutBlock 1: %v", err)
	}
	obj, err := client.Get(ctx, key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got := string(bytes.Join(obj.Blocks, nil)); got != "hello wire!" {
		t.Fatalf("Get blocks = %q", got)
	}
	if obj.Meta["step"] != "9" {
		t.Errorf("object meta lost: %v", obj.Meta)
	}
	if _, ok, err := client.Stat(ctx, key); err != nil || !ok {
		t.Fatalf("Stat = %v, %v", ok, err)
	}
	if latest, ok, err := client.Latest(ctx, "compat", 2); err != nil || !ok || latest != 7 {
		t.Fatalf("Latest = %d, %v, %v", latest, ok, err)
	}
	if _, err := client.Get(ctx, iostore.Key{Job: "compat", Rank: 2, ID: 404}); !errors.Is(err, iostore.ErrNotFound) {
		t.Fatalf("missing Get err = %v, want ErrNotFound", err)
	}
}

// TestCompatV2BothEnds runs the full cycle over a 2-lane pool: every lane
// speaks wire frames from its first byte.
func TestCompatV2BothEnds(t *testing.T) {
	_, client, _ := startPool(t, 2)
	exerciseSuite(t, client)
	warmLane(t, client, 1)
	for i, ln := range client.lanes {
		ln.mu.Lock()
		dialed := ln.wc != nil
		ln.mu.Unlock()
		if !dialed {
			t.Errorf("lane %d never dialed", i)
		}
	}
}
