package gateway

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ndpcr/internal/faultinject"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// durabilityRequests is how many durability requests the gateway served.
func durabilityRequests(srv *Server) uint64 {
	return srv.Metrics().Counter(`ndpcr_gateway_requests_total{op="durability"}`, "").Value()
}

// waitStored waits until the session of acme/run's rank has id store-durable.
func waitStored(t *testing.T, srv *Server, run string, rank int, id uint64) {
	t.Helper()
	n := sessionNode(t, srv, run, rank)
	waitFor(t, "checkpoint "+strconv.FormatUint(id, 10)+" to reach the store", func() bool {
		return n.DurableAt(id, ndp.LevelStore)
	})
}

// TestClientAnswersDurabilityFromReplies: four ranks' async saves, drained,
// are answered store-durable by the reply to one later request to the run:
// the four Durability calls send no request. Each answer is the one the
// endpoint gives, and is taken once: a second call asks the endpoint.
func TestClientAnswersDurabilityFromReplies(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	ids := make([]uint64, 4)
	for rank := range ids {
		id, err := c.SaveAsync(ctx, "acme", "r", rank, 1, pattern(16<<10, byte(rank)))
		if err != nil {
			t.Fatal(err)
		}
		ids[rank] = id
	}
	for rank, id := range ids {
		waitStored(t, srv, "r", rank, id)
	}
	if _, err := c.List(ctx, "acme", "r", 0); err != nil { // the reply that carries the answers
		t.Fatal(err)
	}
	before := durabilityRequests(srv)
	got := make([]Durability, len(ids))
	for rank, id := range ids {
		d, err := c.Durability(ctx, "acme", "r", rank, id, "store")
		if err != nil || !d.Durable("store") || d.Failed {
			t.Fatalf("rank %d: Durability(%d) = %+v, %v; want store-durable", rank, id, d, err)
		}
		got[rank] = d
	}
	if n := durabilityRequests(srv) - before; n != 0 {
		t.Errorf("%d durability requests reached the gateway for four answered IDs, want 0", n)
	}
	// The endpoint's own reply, asked by a client that awaits nothing.
	other := NewClient(ts.URL, "tok-acme")
	for rank, id := range ids {
		want, err := other.Durability(ctx, "acme", "r", rank, id, "")
		if err != nil {
			t.Fatal(err)
		}
		if got[rank] != want {
			t.Errorf("rank %d: the header answered %+v, the endpoint %+v", rank, got[rank], want)
		}
	}
	before = durabilityRequests(srv)
	if _, err := c.Durability(ctx, "acme", "r", 0, ids[0], "store"); err != nil {
		t.Fatal(err)
	}
	if n := durabilityRequests(srv) - before; n != 1 {
		t.Errorf("a second Durability call sent %d requests, want 1: an answer is taken once", n)
	}
}

// TestClientNeverCachesFailedID: an async save whose drain fails is listed
// failed on the next reply; the client keeps no answer for it, and
// Durability asks the endpoint, so the caller gets the failure's text.
func TestClientNeverCachesFailedID(t *testing.T) {
	in := faultinject.New(5, faultinject.Rule{Site: faultinject.SiteStorePutBlock, Mode: faultinject.ModeErr})
	srv, ts := newTestServer(t, func(c *Config) {
		c.Store = faultinject.WrapStore(iostore.New(nvm.Pacer{}), in)
		c.Codec = nil
	})
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	id, err := c.SaveAsync(ctx, "acme", "r", 0, 1, pattern(16<<10, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := sessionNode(t, srv, "r", 0)
	waitFor(t, "the drain to fail", func() bool { return n.Durability().FailedErr(id) != nil })
	if _, err := c.List(ctx, "acme", "r", 0); err != nil {
		t.Fatal(err)
	}
	if len(c.acks.awaits) != 0 || len(c.acks.answers) != 0 {
		t.Fatalf("after the failure was listed: awaits %v, answers %v; want none", c.acks.awaits, c.acks.answers)
	}
	before := durabilityRequests(srv)
	d, err := c.Durability(ctx, "acme", "r", 0, id, "store")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Failed || d.Failure == "" || d.Durable("store") {
		t.Errorf("Durability of a failed ID = %+v, want failed with the failure's text", d)
	}
	if n := durabilityRequests(srv) - before; n != 1 {
		t.Errorf("Durability of a failed ID sent %d requests, want 1", n)
	}
}

// headRecorder keeps the request heads a client writes.
type headRecorder struct {
	net.Conn
	mu    *sync.Mutex
	heads *[]string
}

func (c headRecorder) Write(p []byte) (int, error) {
	if i := bytes.Index(p, []byte("\r\n\r\n")); i >= 0 {
		c.mu.Lock()
		*c.heads = append(*c.heads, string(p[:i]))
		c.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// TestClientAwaitsStayInTheirRun: an ID awaited in one run is named only on
// requests to that run, and a reply from another run or namespace, whose
// own ID of the same rank and number is store-durable, never answers it.
func TestClientAwaitsStayInTheirRun(t *testing.T) {
	srv, c, gs, _ := newGatedServer(t, func(c *Config) {
		c.Tenants = []Tenant{{Name: "acme", Token: "tok-acme", Namespaces: []string{"acme", "beta"}}}
	})
	var mu sync.Mutex
	var heads []string
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		nc, err := dialTCP(ctx, addr)
		return headRecorder{nc, &mu, &heads}, err
	}
	ctx := context.Background()
	for _, ns := range []string{"acme", "beta"} {
		if _, err := c.Save(ctx, ns, "other", 0, 1, []byte("stored")); err != nil {
			t.Fatal(err)
		}
	}
	gs.block()
	id, err := c.SaveAsync(ctx, "acme", "r", 0, 1, []byte("held"))
	if err != nil || id != 1 {
		t.Fatalf("SaveAsync = %d, %v; want ID 1", id, err)
	}
	mu.Lock()
	heads = heads[:0]
	mu.Unlock()
	for _, ns := range []string{"acme", "beta"} {
		if _, err := c.List(ctx, ns, "other", 0); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	for _, h := range heads {
		if strings.Contains(h, awaitHeader) {
			t.Errorf("a request to another run named an awaited ID:\n%s", h)
		}
	}
	mu.Unlock()
	before := durabilityRequests(srv)
	if d, err := c.Durability(ctx, "acme", "r", 0, id, ""); err != nil || d.Durable("store") {
		t.Errorf("Durability of the held ID = %+v, %v; want not store-durable", d, err)
	}
	if n := durabilityRequests(srv) - before; n != 1 {
		t.Errorf("Durability of the held ID sent %d requests, want 1", n)
	}

	// The gateway's side: an await naming a store-durable ID of acme/other
	// is not answered on a request to acme/r or to beta/r.
	for _, target := range []string{"/v1/ns/acme/runs/r/checkpoints?rank=0", "/v1/ns/beta/runs/r/checkpoints?rank=0"} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		req.Header.Set("Authorization", "Bearer tok-acme")
		req.Header.Set(awaitHeader, "0:1")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if v := w.Header().Get(settledHeader); v != "" {
			t.Errorf("GET %s answered %s: %q, want nothing", target, settledHeader, v)
		}
	}
	gs.release()
	waitStored(t, srv, "r", 0, id)
}

// TestClientDeleteDropsCachedAnswers: a Delete drops what the client knows
// of the ID, an answer a reply brought included: a later Durability call
// asks the gateway.
func TestClientDeleteDropsCachedAnswers(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	id, err := c.SaveAsync(ctx, "acme", "r", 0, 1, pattern(16<<10, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitStored(t, srv, "r", 0, id)
	if _, err := c.List(ctx, "acme", "r", 0); err != nil {
		t.Fatal(err)
	}
	if len(c.acks.answers) != 1 {
		t.Fatalf("answers kept = %v, want the one for %d", c.acks.answers, id)
	}
	if err := c.Delete(ctx, "acme", "r", 0, id); err != nil {
		t.Fatal(err)
	}
	if len(c.acks.awaits) != 0 || len(c.acks.answers) != 0 {
		t.Fatalf("after Delete: awaits %v, answers %v; want none", c.acks.awaits, c.acks.answers)
	}
	before := durabilityRequests(srv)
	if _, err := c.Durability(ctx, "acme", "r", 0, id, ""); err != nil {
		t.Fatal(err)
	}
	if n := durabilityRequests(srv) - before; n != 1 {
		t.Errorf("Durability after Delete sent %d requests, want 1", n)
	}
}

// TestClientAwaitListDropsOldest: the 65th awaited ID drops the oldest from
// the list the requests carry, and the 65th kept answer the oldest answer.
func TestClientAwaitListDropsOldest(t *testing.T) {
	var a acks
	for i := 1; i <= maxAwait+1; i++ {
		a.await(ackKey{ns: "acme", run: "r", rank: i % 4, id: uint64(i)})
	}
	h := string(a.appendHeader(nil, "acme", "r"))
	entries := strings.Split(strings.TrimPrefix(h, "\r\n"+awaitHeader+": "), ",")
	if len(entries) != maxAwait || entries[0] != "2:2" || entries[maxAwait-1] != "1:65" {
		t.Fatalf("after %d awaits the header carries %d entries, %q first and %q last; want %d, 2:2 first, 1:65 last",
			maxAwait+1, len(entries), entries[0], entries[len(entries)-1], maxAwait)
	}
	var settled []byte
	for i := 2; i <= maxAwait+1; i++ {
		settled = appendSettled(settled, i%4, Durability{ID: uint64(i), Levels: Levels{NVM: true, Store: true}})
	}
	a.settle("acme", "r", string(settled))
	a.await(ackKey{ns: "acme", run: "r", rank: 2, id: 66})
	a.settle("acme", "r", "2:66=store")
	if len(a.answers) != maxAwait {
		t.Fatalf("%d answers kept, want %d", len(a.answers), maxAwait)
	}
	if _, ok := a.take(ackKey{ns: "acme", run: "r", rank: 2, id: 2}, ""); ok {
		t.Error("the oldest answer is still kept past the bound")
	}
	if d, ok := a.take(ackKey{ns: "acme", run: "r", rank: 2, id: 66}, "store"); !ok || !d.Levels.Store || d.Levels.NVM {
		t.Errorf("the newest answer = %+v, %v; want store only", d, ok)
	}
	if _, ok := a.take(ackKey{ns: "acme", run: "r", rank: 3, id: 3}, "partner"); ok {
		t.Error("an answer short of the level waited for was taken")
	}
}

// TestClientPollsGatewayThatIgnoresHeader: a gateway that neither reads the
// await header nor answers it leaves the client polling: every Durability
// call is a request, and its answer is the endpoint's.
func TestClientPollsGatewayThatIgnoresHeader(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.Codec = nil })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del(awaitHeader)
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	ids := make([]uint64, 4)
	for rank := range ids {
		id, err := c.SaveAsync(ctx, "acme", "r", rank, 1, pattern(16<<10, byte(rank)))
		if err != nil {
			t.Fatal(err)
		}
		ids[rank] = id
	}
	for rank, id := range ids {
		waitStored(t, srv, "r", rank, id)
	}
	if _, err := c.List(ctx, "acme", "r", 0); err != nil {
		t.Fatal(err)
	}
	before := durabilityRequests(srv)
	for rank, id := range ids {
		if d, err := c.Durability(ctx, "acme", "r", rank, id, "store"); err != nil || !d.Durable("store") {
			t.Fatalf("rank %d: Durability(%d) = %+v, %v; want store-durable", rank, id, d, err)
		}
	}
	if n := durabilityRequests(srv) - before; n != uint64(len(ids)) {
		t.Errorf("%d durability requests for %d IDs, want one each", n, len(ids))
	}
	if len(c.acks.awaits) != 0 {
		t.Errorf("IDs the endpoint answered settled are still awaited: %v", c.acks.awaits)
	}
}

// TestSettledAnswerIsTheEndpoints: on the gateway, the header's entry for a
// store-durable ID carries the levels the durability endpoint reports, a
// pending ID and one no session knows are not listed, and malformed entries
// are skipped, not refused.
func TestSettledAnswerIsTheEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	if _, err := c.Save(ctx, "acme", "r", 0, 1, []byte("stored")); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/ns/acme/runs/r/checkpoints?rank=0", nil)
	req.Header.Set("Authorization", "Bearer tok-acme")
	req.Header.Set(awaitHeader, " 0:1 ,x:1,0:,0:0,:,0:2,7:1,0:99999999999999999999")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("list with a malformed await header = %d, want 200", w.Code)
	}
	want, err := c.Durability(ctx, "acme", "r", 0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Header().Get(settledHeader); got != string(appendSettled(nil, 0, want)) || got != "0:1=nvm+store" {
		t.Errorf("%s = %q, want %q (the endpoint said %+v)", settledHeader, got, "0:1=nvm+store", want)
	}
}

// TestSettledHeaderCostsNoAllocationPerEntry: answering an await header of
// 64 entries allocates what answering one does: the run's job key and the
// header value, whatever the entries are.
func TestSettledHeaderCostsNoAllocationPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	srv, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	var parts []string
	for rank := 0; rank < 4; rank++ {
		for i := 1; i <= maxAwait/4; i++ {
			if _, err := c.Save(context.Background(), "acme", "r", rank, i, []byte("x")); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, strconv.Itoa(rank)+":"+strconv.Itoa(i))
		}
	}
	for _, v := range []string{strings.Join(parts, ","), strings.Repeat("x:1,", maxAwait)} {
		if n := testing.AllocsPerRun(50, func() { srv.settled("acme", "r", v) }); n > 2 {
			t.Errorf("answering %d entries (%.20s...) allocated %.0f times, want at most 2", maxAwait, v, n)
		}
	}
}
