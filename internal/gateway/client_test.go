package gateway

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// parkingStore holds every block write from index park on until release
// is called (or the write's ctx ends). parked receives the index of each
// write it holds, landed the index of each block it stored, while their
// buffers have room.
type parkingStore struct {
	iostore.Backend
	park    int
	parked  chan int
	landed  chan int
	gate    chan struct{}
	release func()
}

func newParkingStore(park int) *parkingStore {
	s := &parkingStore{Backend: iostore.New(nvm.Pacer{}), park: park,
		parked: make(chan int, 64), landed: make(chan int, 64), gate: make(chan struct{})}
	s.release = sync.OnceFunc(func() { close(s.gate) })
	return s
}

func (s *parkingStore) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	if index >= s.park {
		select {
		case s.parked <- index:
		default:
		}
		select {
		case <-s.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	err := s.Backend.PutBlock(ctx, key, meta, index, block)
	select {
	case s.landed <- index:
	default:
	}
	return err
}

// await waits (up to 5 s) for index to come out of ch.
func await(t *testing.T, ch <-chan int, index int, what string) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case i := <-ch:
			if i == index {
				return
			}
		case <-timeout:
			t.Fatalf("block %d never %s", index, what)
		}
	}
}

// countingConn counts the writes a request makes on its connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int32
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestClientSavesInTwoWrites: a save's head and body leave in one
// net.Buffers write, the body where it lies. On a connection without
// writev (this test's seam) that is a write each; through a 32 KiB copy
// buffer, as net/http sent it, a 4 MiB body took about 130.
func TestClientSavesInTwoWrites(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	var writes atomic.Int32
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		nc, err := dialTCP(ctx, addr)
		return countingConn{nc, &writes}, err
	}
	payload := pattern(4<<20, 7)
	id, err := c.Save(context.Background(), "acme", "r", 0, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n := writes.Load(); n > 2 {
		t.Errorf("a 4 MiB save took %d writes, want at most 2", n)
	}
	if ck, err := c.Load(context.Background(), "acme", "r", 0, id); err != nil || !bytes.Equal(ck.Data, payload) {
		t.Errorf("Load(%d): %v, payload match %v", id, err, err == nil && bytes.Equal(ck.Data, payload))
	}
}

// TestClientRedialsAfterServerCloses: an idle connection the gateway closed
// is found dead before it carries a request, so the next save and load
// succeed at the first try on a new connection, and the save is sent once:
// the run gains exactly one checkpoint, its IDs dense.
func TestClientRedialsAfterServerCloses(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	dials := countDials(c)
	ctx := context.Background()
	payload := []byte("state")
	if _, err := c.Save(ctx, "acme", "r", 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	ts.CloseClientConnections()
	id, err := c.Save(ctx, "acme", "r", 0, 2, payload)
	if err != nil {
		t.Fatalf("Save after the server closed the idle connection: %v", err)
	}
	ts.CloseClientConnections()
	if ck, err := c.Load(ctx, "acme", "r", 0, id); err != nil || !bytes.Equal(ck.Data, payload) {
		t.Fatalf("Load after the server closed the idle connection: %v", err)
	}
	ids, err := c.List(ctx, "acme", "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []uint64{1, 2}) {
		t.Errorf("run holds checkpoints %v, want [1 2]", ids)
	}
	if n := dials.Load(); n != 3 {
		t.Errorf("dialled %d connections, want 3 (one first, one after each close)", n)
	}
}

// TestClientCancelAbortsStoreWait: a store-durable save whose ctx is
// canceled while the store holds its drain returns at once with the ctx's
// error, and its connection, its reply never read, is not reused.
func TestClientCancelAbortsStoreWait(t *testing.T) {
	store := newParkingStore(0)
	_, ts := newTestServer(t, func(c *Config) { c.Store, c.Codec = store, nil })
	t.Cleanup(store.release)
	c := NewClient(ts.URL, "tok-acme")
	dials := countDials(c)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Save(ctx, "acme", "r", 0, 1, pattern(16<<10, 1))
		done <- err
	}()
	await(t, store.parked, 0, "reached the store")
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled save: err = %v, want one wrapping context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled save still waiting after 5 s")
	}
	if _, err := c.List(context.Background(), "acme", "r", 0); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("dialled %d connections, want 2: the canceled exchange's connection must not be reused", n)
	}
}

// TestClientEarlyAnswerIsTyped: a save larger than the session's NVM is
// refused before the gateway reads its body, and the gateway closes the
// connection under it. The client returns that answer, not the write's
// broken pipe, whether the body fits the socket buffers (4 MiB) or not
// (32 MiB).
func TestClientEarlyAnswerIsTyped(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.SessionNVM = 64 << 10 })
	c := NewClient(ts.URL, "tok-acme")
	for _, size := range []int{4 << 20, 32 << 20} {
		_, err := c.Save(context.Background(), "acme", "r", 0, 1, make([]byte, size))
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge || ae.Code != "too_large" {
			t.Errorf("%d MiB save over a 64 KiB session: err = %v, want APIError 413 too_large", size>>20, err)
		}
	}
}

// TestClientRefusesWhatNetHTTPRefused: a token that would break the request
// head and a base that is not http://host[:port][/prefix] fail before
// anything is dialed; the server sees no request. A base with a path prefix
// carries it on every request.
func TestClientRefusesWhatNetHTTPRefused(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	var requests atomic.Int32
	ts := httptest.NewServer(http.StripPrefix("/gw", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		srv.ServeHTTP(w, r)
	})))
	t.Cleanup(ts.Close)
	for _, tc := range []struct{ base, token string }{
		{ts.URL + "/gw", "tok-acme\r\nX-Injected: 1"},
		{ts.URL + "/gw", "tok-acme\x00"},
		{"https://" + ts.Listener.Addr().String(), "tok-acme"},
		{"ftp://" + ts.Listener.Addr().String(), "tok-acme"},
		{"http://", "tok-acme"},
		{ts.URL + "/gw?x=1", "tok-acme"},
		{ts.URL + "/gw#frag", "tok-acme"},
		{"http://user@" + ts.Listener.Addr().String() + "/gw", "tok-acme"},
	} {
		c := NewClient(tc.base, tc.token)
		dials := countDials(c)
		if _, err := c.Save(context.Background(), "acme", "r", 0, 1, []byte("state")); err == nil {
			t.Errorf("base %q, token %q: save succeeded", tc.base, tc.token)
		}
		if n := dials.Load(); n != 0 {
			t.Errorf("base %q, token %q: dialled %d connections before refusing", tc.base, tc.token, n)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the server saw %d requests from refused clients, want 0", n)
	}
	c := NewClient(ts.URL+"/gw/", "tok-acme")
	id, err := c.Save(context.Background(), "acme", "r", 0, 1, []byte("state"))
	if err != nil {
		t.Fatalf("Save under a path prefix: %v", err)
	}
	if ck, err := c.Load(context.Background(), "acme", "r", 0, id); err != nil || string(ck.Data) != "state" {
		t.Fatalf("Load under a path prefix: %v", err)
	}
}
