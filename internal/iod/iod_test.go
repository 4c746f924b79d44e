package iod

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// serve starts srv on a listener of the test's own, on a free loopback port,
// and returns its address and the channel Serve's result arrives on. The
// address is known here and now: Server.Addr is nil until Serve has run, and
// a dial that succeeds proves only that the kernel queued the connection.
func serve(t *testing.T, srv *Server) (addr string, done <-chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	return l.Addr().String(), served
}

// startServer launches a server on a free localhost port and returns a
// connected client (whose Addr is the server's).
func startServer(t *testing.T) (*Server, *Client, *iostore.Store) {
	t.Helper()
	backing := iostore.New(nvm.Pacer{})
	srv, err := NewServer(backing)
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := serve(t, srv)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, client, backing
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil backing accepted")
	}
}

func TestPutGetOverTCP(t *testing.T) {
	_, client, _ := startServer(t)
	obj := iostore.Object{
		Key:      iostore.Key{Job: "j", Rank: 2, ID: 7},
		Codec:    "gzip",
		OrigSize: 10,
		Blocks:   [][]byte{[]byte("hello"), []byte("world")},
		Meta:     map[string]string{"step": "5"},
	}
	if err := client.Put(context.Background(), obj); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(context.Background(), obj.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Codec != "gzip" || got.Meta["step"] != "5" || len(got.Blocks) != 2 ||
		!bytes.Equal(got.Blocks[1], []byte("world")) {
		t.Errorf("got %+v", got)
	}
}

func TestNotFoundCrossesWire(t *testing.T) {
	_, client, _ := startServer(t)
	_, err := client.Get(context.Background(), iostore.Key{Job: "x", Rank: 0, ID: 1})
	if !errors.Is(err, iostore.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound sentinel", err)
	}
	if _, ok, _ := client.Stat(context.Background(), iostore.Key{Job: "x"}); ok {
		t.Error("Stat found missing object")
	}
	if _, ok, _ := client.Latest(context.Background(), "x", 0); ok {
		t.Error("Latest on empty store")
	}
	if ids, _ := client.IDs(context.Background(), "x", 0); len(ids) != 0 {
		t.Errorf("IDs = %v", ids)
	}
}

// TestBlockGapIsNotFoundAcrossWire: a block the remote object does not hold
// (a gap a dead writer left, or past its end) comes back as the ErrNotFound
// sentinel — an answer shardstore fails over on without blaming the backend.
func TestBlockGapIsNotFoundAcrossWire(t *testing.T) {
	_, client, _ := startServer(t)
	ctx := context.Background()
	key := iostore.Key{Job: "j", Rank: 0, ID: 4}
	for _, index := range []int{0, 2} {
		if err := client.PutBlock(ctx, key, iostore.Object{}, index, []byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	for _, index := range []int{1, 3} {
		if b, err := client.GetBlock(ctx, key, index); !errors.Is(err, iostore.ErrNotFound) {
			t.Errorf("GetBlock(%d) of a block never written = %q, %v; want ErrNotFound", index, b, err)
		}
	}
	if b, err := client.GetBlock(ctx, key, 2); err != nil || !bytes.Equal(b, []byte("abc")) {
		t.Errorf("GetBlock(2) = %q, %v", b, err)
	}
	// The whole-object read refuses the torn copy too, naming the gap: it
	// must not come back whole with an empty block 1.
	if o, err := client.Get(ctx, key); !errors.Is(err, iostore.ErrNotFound) || !strings.Contains(err.Error(), "block 1") {
		t.Errorf("Get of an object with a gap at 1 = %d blocks, %v; want ErrNotFound naming block 1", len(o.Blocks), err)
	}
}

// TestBadBlockIndexIsAnErrorReply: the block index is a header field any peer
// can set. One the store refuses (a -1 used to panic a handler goroutine —
// the whole process, with every other tenant's lanes) comes back as an error
// reply, and the same client's next call on the same lane succeeds.
func TestBadBlockIndexIsAnErrorReply(t *testing.T) {
	srv, client, _ := startServer(t)
	ctx := context.Background()
	key := iostore.Key{Job: "j", Rank: 0, ID: 9}
	for _, index := range []int{-1, iostore.MaxBlocks, math.MaxInt32} {
		err := client.PutBlock(ctx, key, iostore.Object{}, index, []byte("abc"))
		if err == nil || !strings.Contains(err.Error(), "block index") {
			t.Errorf("PutBlock at index %d = %v; want the store's block-index error", index, err)
		}
	}
	if err := client.PutBlock(ctx, key, iostore.Object{}, 0, []byte("abc")); err != nil {
		t.Fatalf("PutBlock after the refused frames: %v", err)
	}
	if b, err := client.GetBlock(ctx, key, 0); err != nil || !bytes.Equal(b, []byte("abc")) {
		t.Errorf("GetBlock(0) after the refused frames = %q, %v", b, err)
	}
	if _, n, ok, err := client.StatBlocks(ctx, key); err != nil || !ok || n != 1 {
		t.Errorf("StatBlocks after the refused frames = %d, %v, %v; want the one block", n, ok, err)
	}
	if v := srv.mReqErrors.Value(); v != 3 {
		t.Errorf("request errors = %d, want the 3 refused frames", v)
	}
}

func TestPutBlockStreamingOverTCP(t *testing.T) {
	_, client, backing := startServer(t)
	key := iostore.Key{Job: "j", Rank: 0, ID: 3}
	meta := iostore.Object{Codec: "lz4", CodecLevel: 1, OrigSize: 6}
	if err := client.PutBlock(context.Background(), key, meta, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := client.PutBlock(context.Background(), key, meta, 1, []byte("def")); err != nil {
		t.Fatal(err)
	}
	obj, err := backing.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Codec != "lz4" || len(obj.Blocks) != 2 {
		t.Errorf("backing object %+v", obj)
	}
	client.Delete(context.Background(), key)
	if _, err := backing.Get(context.Background(), key); !errors.Is(err, iostore.ErrNotFound) {
		t.Error("delete did not propagate")
	}
}

func TestValidationErrorsCrossWire(t *testing.T) {
	_, client, _ := startServer(t)
	if err := client.Put(context.Background(), iostore.Object{Blocks: [][]byte{{1}}}); err == nil {
		t.Error("empty job accepted over wire")
	}
	if err := client.PutBlock(context.Background(), iostore.Key{}, iostore.Object{}, 0, nil); err == nil {
		t.Error("PutBlock with empty job accepted over wire")
	}
}

func TestManyClientsConcurrently(t *testing.T) {
	_, client, _ := startServer(t)
	addr := client.Addr()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				key := iostore.Key{Job: "conc", Rank: g, ID: uint64(i + 1)}
				if err := c.PutBlock(context.Background(), key, iostore.Object{OrigSize: 4}, 0, []byte("data")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
			if latest, ok, _ := c.Latest(context.Background(), "conc", g); !ok || latest != 50 {
				t.Errorf("rank %d latest = %d, %v", g, latest, ok)
			}
		}(g)
	}
	wg.Wait()
}

func TestClientAfterClose(t *testing.T) {
	_, client, _ := startServer(t)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := client.Put(context.Background(), iostore.Object{Key: iostore.Key{Job: "j"}, Blocks: [][]byte{{1}}}); err == nil {
		t.Error("call after close succeeded")
	}
}

func TestNodeRuntimeDrainsOverTCP(t *testing.T) {
	// The headline integration: a full node runtime (commit → NDP drain
	// with compression → node loss → restore) where the global store is a
	// remote TCP service. Every drained block traverses the network stack,
	// per §4.2.2.
	_, client, _ := startServer(t)
	gz, _ := compress.Lookup("gzip", 1)
	n, err := node.New(node.Config{Job: "tcp", Store: client, Codec: gz, BlockSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	snap := make([]byte, 200_000)
	for i := range snap {
		snap[i] = byte(i / 100)
	}
	id, err := n.Commit(context.Background(), snap, node.Metadata{Step: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = n.WaitDurableCtx(ctx, id, ndp.LevelStore)
	cancel()
	if err != nil {
		t.Fatalf("drain over TCP never completed: %v", err)
	}
	n.FailLocal()
	got, meta, level, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if level != node.LevelIO || meta.Step != 4 || !bytes.Equal(got, snap) {
		t.Error("restore over TCP failed")
	}
}

func TestClientReconnects(t *testing.T) {
	_, client, _ := startServer(t)
	key := iostore.Key{Job: "r", Rank: 0, ID: 1}
	if err := client.PutBlock(context.Background(), key, iostore.Object{OrigSize: 4}, 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Break the connection out from under the client: the next call must
	// redial transparently (the client was built with Dial, so it knows
	// the address).
	severLane(t, client, 0)

	got, err := client.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("call after broken connection: %v", err)
	}
	if !bytes.Equal(got.Blocks[0], []byte("data")) {
		t.Error("reconnected read returned wrong data")
	}
}

func TestClientRidesOutServerRestartMidDrain(t *testing.T) {
	// Regression: the retry policy used to cover only the initial connect —
	// a call that broke mid-exchange got exactly one immediate reconnect
	// attempt (~0.8 s of dial backoff) and then failed, so an I/O node
	// restart abandoned the in-flight drain. The fix runs reconnect+retry
	// cycles with exponential backoff (a window of about 5.4 s at worst), and
	// PutBlock is idempotent by index, so the drain stream resumes where it
	// broke.
	backing := iostore.New(nvm.Pacer{})
	srv, err := NewServer(backing)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := serve(t, srv)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reg := metrics.NewRegistry()
	client.Instrument(reg)

	key := iostore.Key{Job: "restart", Rank: 0, ID: 1}
	meta := iostore.Object{OrigSize: 12}
	if err := client.PutBlock(context.Background(), key, meta, 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}

	// Kill the I/O node mid-drain, with two blocks still to ship.
	srv.Close()
	rest := make(chan error, 1)
	go func() {
		if err := client.PutBlock(context.Background(), key, meta, 1, []byte("efgh")); err != nil {
			rest <- err
			return
		}
		rest <- client.PutBlock(context.Background(), key, meta, 2, []byte("ijkl"))
	}()

	// Stay down until the client starts its second retry — past the old
	// single reconnect, whose dial backoff the first retry has served out —
	// then restart on the same address and store: an I/O node reboot that
	// preserves its file system.
	eventually(t, "a second retry", func() bool {
		return reg.Counter("ndpcr_iod_call_retries_total", "").Value() >= 2
	})
	srv2, err := NewServer(backing)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.ListenAndServe(addr)
	defer srv2.Close()

	select {
	case err := <-rest:
		if err != nil {
			t.Fatalf("drain did not resume across server restart: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("drain still blocked after server restart")
	}
	obj, err := backing.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Blocks) != 3 || !bytes.Equal(obj.Blocks[2], []byte("ijkl")) {
		t.Errorf("resumed stream incomplete: %d blocks", len(obj.Blocks))
	}
	if reg.Counter("ndpcr_iod_reconnects_total", "").Value() == 0 {
		t.Error("no reconnect counted across the restart")
	}
}

func TestWrappedClientDoesNotReconnect(t *testing.T) {
	// NewClient-wrapped pipes have no address; a broken conn is terminal.
	a, b := net.Pipe()
	defer b.Close()
	c := NewClient(a)
	a.Close()
	if err := c.Put(context.Background(), iostore.Object{Key: iostore.Key{Job: "x"}, Blocks: [][]byte{{1}}}); err == nil {
		t.Error("call on closed pipe succeeded")
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	backing := iostore.New(nvm.Pacer{})
	srv, _ := NewServer(backing)
	addr, done := serve(t, srv)
	// An answered call proves Serve owns the listener: a Close that came
	// first would make Serve refuse it.
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, _, err := client.Latest(context.Background(), "up", 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	srv.Close() // idempotent
}
