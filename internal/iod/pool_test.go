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

// startPool launches a server over a plain in-memory store and returns a
// connected n-lane client.
func startPool(t *testing.T, n int) (*Server, *Client, *iostore.Store) {
	t.Helper()
	backing := iostore.New(nvm.Pacer{})
	srv, client := startPoolOver(t, backing, n)
	return srv, client, backing
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
	for i := 1; i < client.Lanes(); i++ {
		if laneDialed(client, i) {
			t.Errorf("lazy lane %d has a connection before any concurrent load", i)
		}
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
	g := newGatedStore()
	_, client := startPoolOver(t, g, 2)
	reg := metrics.NewRegistry()
	client.Instrument(reg)
	key := iostore.Key{Job: "failover", Rank: 0, ID: 1}
	putBlocks(t, g.Backend, key, 2)
	warmLanes(t, client, g, key) // both lanes now connected

	// Park a fetch at the backing store, then sever the lane that carries
	// it: the exchange fails mid-stream, and the retry must resume on the
	// healthy lane instead of stalling to redial the broken one first.
	g.gate(1)
	reconBefore := reg.Counter("ndpcr_iod_reconnects_total", "").Value()
	got := make(chan error, 1)
	go func() {
		b, err := client.GetBlock(context.Background(), key, 1)
		if err == nil && !bytes.Equal(b, []byte{1}) {
			err = fmt.Errorf("failover read returned %v", b)
		}
		got <- err
	}()
	g.awaitArrivals(t, 1)
	broken := busyLane(t, client)
	severLane(t, client, broken)
	g.awaitArrivals(t, 1) // the retry, over the other lane
	g.release(1)
	if err := <-got; err != nil {
		t.Fatalf("GetBlock across lane failure: %v", err)
	}
	if v := reg.Counter("ndpcr_iod_call_retries_total", "").Value(); v != 1 {
		t.Errorf("%v retries counted, want 1", v)
	}
	if v := reg.Counter("ndpcr_iod_reconnects_total", "").Value(); v != reconBefore {
		t.Errorf("retry redialed the broken lane (%v reconnects) instead of resuming on the healthy one", v-reconBefore)
	}
	if laneDialed(client, broken) {
		t.Error("severed lane not left broken for later repair")
	}
}

// TestBrokenLaneBackoffDoesNotBlockHealthyLane is an ordering, not a
// timing: while one caller sits inside the redial of a broken lane (a dial
// hook holds it there), a second call completes over the healthy lane —
// though that lane is busy and the broken one is not.
func TestBrokenLaneBackoffDoesNotBlockHealthyLane(t *testing.T) {
	g := newGatedStore()
	_, client := startPoolOver(t, g, 2)
	key := iostore.Key{Job: "nb", Rank: 0, ID: 1}
	putBlocks(t, g.Backend, key, 2)
	warmLanes(t, client, g, key)
	severLane(t, client, 0)

	dialing, finishDial := make(chan struct{}), make(chan struct{})
	realDial := client.dial
	client.dial = func(ctx context.Context) (net.Conn, error) {
		close(dialing)
		<-finishDial
		return realDial(ctx)
	}

	// Keep healthy lane 1 busy, so caller A takes idle broken lane 0 and
	// sinks into its redial.
	g.gate(1)
	parked := make(chan error, 1)
	go func() {
		_, err := client.GetBlock(context.Background(), key, 1)
		parked <- err
	}()
	g.awaitArrivals(t, 1)
	aDone := make(chan error, 1)
	go func() {
		_, _, err := client.Stat(context.Background(), key)
		aDone <- err
	}()
	<-dialing

	// Caller B finds lane 0 broken and claimed, lane 1 healthy and busy: it
	// must ride lane 1 and answer while A is still dialing.
	if _, ok, err := client.Stat(context.Background(), key); err != nil || !ok {
		t.Fatalf("Stat over the healthy lane = %v, %v", ok, err)
	}
	select {
	case err := <-aDone:
		t.Fatalf("caller on the broken lane finished before its dial did (err=%v)", err)
	default:
	}
	close(finishDial)
	if err := <-aDone; err != nil {
		t.Fatalf("call on the redialed lane: %v", err)
	}
	g.release(1)
	if err := <-parked; err != nil {
		t.Fatalf("parked fetch: %v", err)
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
	_, client := startPoolOver(t, failingBackend{iostore.New(nvm.Pacer{})}, 1)
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
	addr, _ := serve(t, srv)
	defer srv.Close()

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Complete an exchange so the funded connection is registered before
	// the surplus one arrives.
	if err := client.PutBlock(context.Background(), iostore.Key{Job: "cap", Rank: 0, ID: 1}, iostore.Object{}, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(3 * time.Second))
	wc := wire.NewConn(raw)
	_ = wc.WriteFrame(wire.Header{Op: uint8(opIDs)}, appendRequestMeta(nil, &request{Op: opIDs, Job: "cap"}))
	if _, _, _, err := wc.ReadFrame(); err == nil {
		t.Error("surplus connection was served past the lane budget")
	}
	eventually(t, "rejected connection counted", func() bool { return srv.mRejected.Value() > 0 })
	// The funded client keeps working.
	if latest, ok, _ := client.Latest(context.Background(), "cap", 0); !ok || latest != 1 {
		t.Errorf("funded client broken after rejection: %d, %v", latest, ok)
	}
}

// TestAcquireLanePrefersHealthyWhenAllBusy checks the lane choice once no
// lane is idle: the healthy lane with the fewest exchanges in flight, and a
// broken lane someone is already dialing only when no healthy lane has
// room.
func TestAcquireLanePrefersHealthyWhenAllBusy(t *testing.T) {
	healthy := &link{}
	for _, tc := range []struct {
		name     string
		links    []*link
		inflight []int
		want     int
	}{
		{"healthy beats a lighter broken lane", []*link{nil, nil, healthy}, []int{1, 1, 5}, 2},
		{"fewest in flight among healthy", []*link{healthy, healthy, healthy}, []int{3, 2, 4}, 1},
		{"full healthy lanes leave the broken one", []*link{healthy, nil, healthy}, []int{laneDepth, 2, laneDepth}, 1},
		{"idle broken lane before a busy healthy one", []*link{healthy, nil, healthy}, []int{1, 0, 1}, 1},
		{"idle healthy lane before everything", []*link{nil, healthy, healthy}, []int{0, 3, 0}, 2},
	} {
		c := newClient("", len(tc.links))
		for i, ln := range c.lanes {
			ln.link, ln.inflight = tc.links[i], tc.inflight[i]
		}
		got, err := c.claimLane(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != c.lanes[tc.want] {
			t.Errorf("%s: claimed the wrong lane, want lane %d", tc.name, tc.want)
		}
		if got.inflight != tc.inflight[tc.want]+1 {
			t.Errorf("%s: claim not counted onto the lane", tc.name)
		}
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

// TestFullCycleOverEveryLane runs the full cycle over a 2-lane pool whose
// lanes are both up: every lane speaks wire frames from its first byte.
func TestFullCycleOverEveryLane(t *testing.T) {
	g := newGatedStore()
	_, client := startPoolOver(t, g, 2)
	key := iostore.Key{Job: "warm", Rank: 0, ID: 1}
	putBlocks(t, g.Backend, key, 1)
	warmLanes(t, client, g, key)
	exerciseSuite(t, client)
}
