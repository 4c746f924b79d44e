package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ndpcr/internal/compress"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// countingBody is a request body that counts the bytes the handler took
// from it and can fail once failAfter of them have been read.
type countingBody struct {
	r         io.Reader
	read      int
	failAfter int // 0: never
}

var errBodyTorn = errors.New("connection torn")

func (b *countingBody) Read(p []byte) (int, error) {
	if b.failAfter > 0 {
		if b.read >= b.failAfter {
			return 0, errBodyTorn
		}
		if len(p) > b.failAfter-b.read {
			p = p[:b.failAfter-b.read]
		}
	}
	n, err := b.r.Read(p)
	b.read += n
	return n, err
}

func (b *countingBody) Close() error { return nil }

// postSave drives the save handler in-process, so the test sees exactly
// what the handler read of the body. declared < 0 posts without a
// Content-Length, as a chunked upload arrives.
func postSave(srv *Server, run string, body *countingBody, declared int64) (status int, code string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/ns/acme/runs/"+run+"/checkpoints?rank=0&step=1", body)
	req.ContentLength = declared
	req.Header.Set("Authorization", "Bearer tok-acme")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var e struct {
		Error string `json:"error"`
	}
	json.Unmarshal(rec.Body.Bytes(), &e)
	return rec.Code, e.Error
}

// TestOversizeSaveRefusedUnread: a save that declares more bytes than the
// session's NVM could ever hold is a typed 413 decided from Content-Length
// — not a 500 after the gateway buffered all of it.
func TestOversizeSaveRefusedUnread(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.SessionNVM = 64 << 10 })
	body := &countingBody{r: bytes.NewReader(make([]byte, 128<<10))}
	status, code := postSave(srv, "big", body, 128<<10)
	if status != http.StatusRequestEntityTooLarge || code != "too_large" {
		t.Errorf("oversize save = %d %q, want 413 too_large", status, code)
	}
	if body.read != 0 {
		t.Errorf("the gateway read %d bytes of a save it was always going to refuse", body.read)
	}
}

// TestOverQuotaSaveRefusedUnread: quota is claimed from Content-Length, so
// an over-quota tenant is told no before uploading anything.
func TestOverQuotaSaveRefusedUnread(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) {
		c.Tenants = []Tenant{{Name: "acme", Token: "tok-acme", Quota: Quota{MaxBytes: 100}}}
	})
	body := &countingBody{r: bytes.NewReader(make([]byte, 4096))}
	status, code := postSave(srv, "r", body, 4096)
	if status != http.StatusForbidden || code != "quota_bytes" {
		t.Errorf("over-quota save = %d %q, want 403 quota_bytes", status, code)
	}
	if body.read != 0 {
		t.Errorf("the gateway read %d bytes of an over-quota save", body.read)
	}
}

// TestChunkedSaveIsBounded: a body with no declared length is read into
// memory first, so the read is capped at the session's NVM capacity — an
// endless chunked upload costs that much and a 413, not the heap.
func TestChunkedSaveIsBounded(t *testing.T) {
	const nvmCap = 64 << 10
	srv, ts := newTestServer(t, func(c *Config) { c.SessionNVM = nvmCap })
	body := &countingBody{r: io.LimitReader(zeros{}, 64<<20)}
	status, code := postSave(srv, "endless", body, -1)
	if status != http.StatusRequestEntityTooLarge || code != "too_large" {
		t.Errorf("endless chunked save = %d %q, want 413 too_large", status, code)
	}
	if body.read > 2*nvmCap {
		t.Errorf("the gateway read %d bytes of a chunked body against a %d-byte cap", body.read, nvmCap)
	}

	// Within the cap the fallback is an ordinary save, over a real
	// chunked request.
	payload := bytes.Repeat([]byte("chunk"), 4000)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/ns/acme/runs/ok/checkpoints?rank=0&step=3",
		struct{ io.Reader }{bytes.NewReader(payload)}) // not a *bytes.Reader: no Content-Length
	req.Header.Set("Authorization", "Bearer tok-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked save within the cap = %d", resp.StatusCode)
	}
	ck, err := NewClient(ts.URL, "tok-acme").Load(context.Background(), "acme", "ok", 0, 1)
	if err != nil || !bytes.Equal(ck.Data, payload) || ck.Step != 3 {
		t.Errorf("chunked save did not round-trip: step %d, err %v", ck.Step, err)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestTornBodyLeavesNoTrace: a body that dies halfway is a 400 that burned
// no checkpoint ID, holds no NVM and returned its quota — and so does an
// empty one.
func TestTornBodyLeavesNoTrace(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Tenants = []Tenant{{Name: "acme", Token: "tok-acme", Quota: Quota{MaxBytes: 10_000}}}
	})
	c := NewClient(ts.URL, "tok-acme")
	if _, err := c.Save(context.Background(), "acme", "r", 0, 0, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	n := sessionNode(t, srv, "r", 0)
	st := srv.byToken["tok-acme"]
	type trace struct {
		nextID      uint64
		nvmUsed     int64
		quotaBytes  int64
		checkpoints int
	}
	snap := func() trace {
		st.mu.Lock()
		defer st.mu.Unlock()
		return trace{n.NextID(), n.Device().Used(), st.usedBytes, st.checkpoints}
	}
	before := snap()

	body := &countingBody{r: bytes.NewReader(make([]byte, 8000)), failAfter: 4000}
	if status, code := postSave(srv, "r", body, 8000); status != http.StatusBadRequest || code != "bad_request" {
		t.Errorf("torn save = %d %q, want 400 bad_request", status, code)
	}
	if body.read != 4000 {
		t.Errorf("handler read %d bytes of the torn body, want the 4000 that came", body.read)
	}
	if after := snap(); after != before {
		t.Errorf("a torn body left a trace: %+v, before it %+v", after, before)
	}
	if status, _ := postSave(srv, "r", &countingBody{r: strings.NewReader("")}, 0); status != http.StatusBadRequest {
		t.Errorf("empty save = %d, want 400", status)
	}
	if after := snap(); after != before {
		t.Errorf("an empty body left a trace: %+v, before it %+v", after, before)
	}
	if id, err := c.Save(context.Background(), "acme", "r", 0, 1, make([]byte, 8000)); err != nil || id != before.nextID {
		t.Errorf("save after the torn one: id %d err %v, want id %d (and the quota to fit it)", id, err, before.nextID)
	}
}

// TestHTTPSaveStoresWhatCommitStores: the length-declared HTTP save (body
// read into the reserved region) and node.Commit of the same bytes are one
// commit path — the objects they leave in the store are identical.
func TestHTTPSaveStoresWhatCommitStores(t *testing.T) {
	payload := bytes.Repeat([]byte("same bytes either way "), 3000)
	viaHTTP := iostore.New(nvm.Pacer{})
	_, ts := newTestServer(t, func(c *Config) { c.Store, c.BlockSize = viaHTTP, 8192 })
	id, err := NewClient(ts.URL, "tok-acme").Save(context.Background(), "acme", "r", 0, 5, payload)
	if err != nil {
		t.Fatal(err)
	}

	viaCommit := iostore.New(nvm.Pacer{})
	job := JobKey("acme", "r")
	gz, err := compress.Lookup("gzip", 1) // newTestServer's codec
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{Job: job, Rank: 0, Store: viaCommit, BlockSize: 8192, Codec: gz})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	id2, err := n.Commit(context.Background(), payload, node.Metadata{Job: job, Rank: 0, Step: 5})
	if err != nil || id2 != id {
		t.Fatalf("commit: id %d err %v, want id %d", id2, err, id)
	}
	if err := n.WaitDurableCtx(context.Background(), id2, ndp.LevelStore); err != nil {
		t.Fatal(err)
	}

	key := iostore.Key{Job: job, Rank: 0, ID: id}
	a, err := viaHTTP.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaCommit.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("the HTTP save and Commit stored different objects:\n http:   %d blocks, %d bytes, meta %v\n commit: %d blocks, %d bytes, meta %v",
			len(a.Blocks), a.StoredSize(), a.Meta, len(b.Blocks), b.StoredSize(), b.Meta)
	}
}

// failingBlockStore fails GetBlock from one index on. With a tear armed, a
// failing fetch first waits until the client has read a byte of the response:
// a restore may have every block in flight at once, and the failure must land
// in the middle of the body, not before its head.
type failingBlockStore struct {
	iostore.Backend
	failFrom atomic.Int64 // -1: never
	tear     atomic.Pointer[firstByte]
}

func (s *failingBlockStore) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	if from := s.failFrom.Load(); from >= 0 && int64(index) >= from {
		if fb := s.tear.Load(); fb != nil {
			select {
			case <-fb.read:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return nil, errors.New("backend lost the block")
	}
	return s.Backend.GetBlock(ctx, key, index)
}

// firstByte closes read once the client has read a byte of a reply.
type firstByte struct {
	read chan struct{}
	once sync.Once
}

// watchConn points c's dial seam at connections that report the first byte
// the client reads off them, a reply's head and the start of its body, to
// the armed firstByte, if any.
func watchConn(c *Client, tear *atomic.Pointer[firstByte]) {
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		nc, err := dialTCP(ctx, addr)
		return watchedConn{nc, tear}, err
	}
}

type watchedConn struct {
	net.Conn
	tear *atomic.Pointer[firstByte]
}

func (c watchedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if fb := c.tear.Load(); n > 0 && fb != nil {
		fb.once.Do(func() { close(fb.read) })
	}
	return n, err
}

// TestLoadFailsOnTornStream: the load response's headers promise the whole
// snapshot before the blocks are fetched; when a block then cannot be had,
// the client must get an error — from Load and from LoadTo — never a short
// snapshot with a nil error. Block 0 failing, before anything was sent, is
// still an ordinary typed error.
func TestLoadFailsOnTornStream(t *testing.T) {
	store := &failingBlockStore{Backend: iostore.New(nvm.Pacer{})}
	store.failFrom.Store(-1)
	srv, ts := newTestServer(t, func(c *Config) { c.Store, c.Codec, c.BlockSize = store, nil, 4096 })
	c := NewClient(ts.URL, "tok-acme")
	watchConn(c, &store.tear)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64<<10/16*4) // 64 blocks
	id, err := c.Save(context.Background(), "acme", "r", 0, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	sessionNode(t, srv, "r", 0).FailLocal() // restores come from the store

	store.failFrom.Store(40)
	store.tear.Store(&firstByte{read: make(chan struct{})})
	if ck, err := c.Load(context.Background(), "acme", "r", 0, id); err == nil {
		t.Errorf("Load of a stream torn at block 40 returned %d of %d bytes and no error", len(ck.Data), len(payload))
	}
	var got bytes.Buffer
	store.tear.Store(&firstByte{read: make(chan struct{})})
	if _, err := c.LoadTo(context.Background(), "acme", "r", 0, id, &got); err == nil {
		t.Errorf("LoadTo of a torn stream returned no error after %d of %d bytes", got.Len(), len(payload))
	}
	if !bytes.HasPrefix(payload, got.Bytes()) {
		t.Error("what LoadTo wrote before the error is not a prefix of the snapshot")
	}
	if v := srv.Metrics().Counter(`ndpcr_gateway_request_errors_total{code="aborted"}`, "").Value(); v != 2 {
		t.Errorf("aborted streams counted = %d, want 2", v)
	}

	store.failFrom.Store(0)
	store.tear.Store(nil)
	// The restore's fetchers race; whichever fails first, nothing was sent.
	var ae *APIError
	if _, err := c.Load(context.Background(), "acme", "r", 0, id); !errors.As(err, &ae) {
		t.Errorf("Load with every block failing: err = %v, want a typed API error", err)
	}

	store.failFrom.Store(-1)
	got.Reset()
	ck, err := c.LoadTo(context.Background(), "acme", "r", 0, id, &got)
	if err != nil || ck.ID != id || ck.Step != 1 || ck.Level != "io" || ck.Data != nil || !bytes.Equal(got.Bytes(), payload) {
		t.Errorf("LoadTo of a healthy stream: %+v, err %v, match %v", ck, err, bytes.Equal(got.Bytes(), payload))
	}
}

// TestSnapshotHeadersMustParse: a snapshot response whose identity headers
// do not parse is an error, not checkpoint 0 at step 0.
func TestSnapshotHeadersMustParse(t *testing.T) {
	for name, hdr := range map[string][2]string{
		"checkpoint": {"X-Ndpcr-Checkpoint", "seven"},
		"step":       {"X-Ndpcr-Step", ""},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Ndpcr-Checkpoint", "7")
			w.Header().Set("X-Ndpcr-Step", "3")
			w.Header().Set(hdr[0], hdr[1])
			io.WriteString(w, "payload")
		}))
		ck, err := NewClient(ts.URL, "tok").Load(context.Background(), "ns", "r", 0, 7)
		if err == nil {
			t.Errorf("malformed %s header: Load returned checkpoint %d step %d and no error", name, ck.ID, ck.Step)
		}
		ts.Close()
	}
}

// shortWriter is a ResponseWriter whose connection dies after limit bytes.
type shortWriter struct {
	*httptest.ResponseRecorder
	limit int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.Body.Len(); len(p) > room {
		w.ResponseRecorder.Write(p[:room])
		return room, errors.New("broken pipe")
	}
	return w.ResponseRecorder.Write(p)
}

// TestBytesOutCountsWhatWasWritten: the tenant is booked the bytes that
// reached the connection, not the snapshot's size, when the write fails.
func TestBytesOutCountsWhatWasWritten(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	payload := make([]byte, 50_000)
	if _, err := NewClient(ts.URL, "tok-acme").Save(context.Background(), "acme", "r", 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/ns/acme/runs/r/checkpoints/1?rank=0", nil)
	req.Header.Set("Authorization", "Bearer tok-acme")
	w := &shortWriter{ResponseRecorder: httptest.NewRecorder(), limit: 12_345}
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Errorf("handler ended with %v, want the http.ErrAbortHandler panic", p)
			}
		}()
		srv.ServeHTTP(w, req)
	}()
	out := srv.Metrics().Counter(`ndpcr_gateway_tenant_bytes_total{tenant="acme",dir="out"}`, "").Value()
	if out != 12_345 {
		t.Errorf("tenant bytes out = %d after a write that died at 12345 of %d", out, len(payload))
	}
}

// saveLoadAllocs saves and loads payload through an in-process gateway over
// an in-memory store and returns the bytes allocated per payload byte moved.
func saveLoadAllocs(t *testing.T, codec compress.Codec, payload []byte) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	srv, ts := newTestServer(t, func(c *Config) { c.Codec = codec })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	// Once untimed, store leg included: sessions, connections, and a pooled
	// compressor and decoder table for every worker. No collection runs
	// while counting, so the pools stay full and the count repeats.
	id, err := c.Save(ctx, "acme", "warm", 0, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	sessionNode(t, srv, "warm", 0).FailLocal()
	if _, err := c.Load(ctx, "acme", "warm", 0, id); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// The lowest of three rounds: a pool that came up one compressor short in
	// one round is fuller in the next, what every round allocates stays.
	perByte := math.Inf(1)
	for round := 1; round <= 3; round++ {
		run := fmt.Sprintf("r%d", round)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if id, err = c.Save(ctx, "acme", run, 0, 1, payload); err != nil {
			t.Fatal(err)
		}
		sessionNode(t, srv, run, 0).FailLocal() // load from the store, the restart case
		ck, err := c.Load(ctx, "acme", run, 0, id)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !bytes.Equal(ck.Data, payload) || ck.Level != "io" {
			t.Fatalf("round trip: level %s, match %v", ck.Level, bytes.Equal(ck.Data, payload))
		}
		perByte = min(perByte, float64(after.TotalAlloc-before.TotalAlloc)/float64(2*len(payload)))
	}
	t.Logf("%.2f bytes allocated per payload byte moved (save + load of %d MiB)", perByte, len(payload)>>20)
	return perByte
}

// TestSaveLoadAllocBudget bounds the bytes allocated per payload byte moved
// when an 8 MiB payload is saved and loaded uncompressed. It is a count, not
// a clock: one whole-object buffer coming back anywhere between HTTP and the
// store (an io.ReadAll doubling buffer alone is ~5 bytes per byte) fails it
// here instead of in the next benchmark run. What is left is 1.50: the NVM
// region, the store's copy-in and the client's result buffer, over the two
// moves. One block-sized buffer a block allocated again anywhere on the
// restore (the store's copy-out, the fetch) is 2.0. Every round opens a
// fresh session, whose device has no retired region to reuse: the NVM
// region is fresh here, and TestSteadySaveAllocBudget counts the warm case.
func TestSaveLoadAllocBudget(t *testing.T) {
	if perByte := saveLoadAllocs(t, nil, bytes.Repeat([]byte{0xa5}, 8<<20)); perByte > 1.7 {
		t.Errorf("%.2f bytes allocated per payload byte moved, budget 1.7: a block (or whole-object) buffer is back on the path", perByte)
	}
}

// TestSaveLoadAllocBudgetGzip is the same count through gzip(1), over a
// compressible multi-block payload: every block is compressed into a pooled
// buffer and decompressed into one, and the fetched blocks go back to the
// pool, 1.23 bytes per byte when the budget was set (the raw budget's three
// buffers, the stored one at 0.45 of its size). The budget sits below what
// one codec buffer allocated per block again costs (a decode buffer is +0.5,
// a compress buffer of half the input +0.25), far below one grown from nil
// (2.2) or a decoder that buffers internally (4.1).
func TestSaveLoadAllocBudgetGzip(t *testing.T) {
	gz, err := compress.Lookup("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8<<20)
	for i := 0; i+8 <= len(payload); i += 8 { // a smooth field, 28 mantissa bits dropped: 0.45 under gzip(1)
		binary.LittleEndian.PutUint64(payload[i:], math.Float64bits(1000+100*math.Sin(float64(i)/5000))&^(1<<28-1))
	}
	if perByte := saveLoadAllocs(t, gz, payload); perByte > 1.4 {
		t.Errorf("%.2f bytes allocated per payload byte moved through gzip(1), budget 1.4", perByte)
	}
}

// TestSteadySaveAllocBudget bounds what a save allocates on a warm session:
// sync 8 MiB saves to one run. Past retainLocal + 1 saves, retention discards
// one drained checkpoint per save, and the device hands that checkpoint's
// region to the next save instead of a fresh one — what is left is the
// store's copy-in (1.0) and the HTTP path. A fresh region per save is 2.0.
func TestSteadySaveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	_, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	payload := bytes.Repeat([]byte{0xa5}, 8<<20)
	step := 0
	save := func() {
		step++
		if _, err := c.Save(context.Background(), "acme", "steady", 0, step, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= retainLocal; i++ {
		save()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for round := 1; round <= 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		save()
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(payload))
		t.Logf("save %d: %.3f bytes allocated per payload byte", step, perByte)
		if perByte > 1.2 {
			t.Errorf("save %d allocated %.2f bytes per payload byte, budget 1.2: the NVM region is fresh again", step, perByte)
		}
	}
}

// TestSteadySaveDeleteAllocBudget is the warm save of a run that also deletes
// what it no longer needs: after each sync 8 MiB save the client deletes the
// checkpoint retainLocal back, which retention already dropped from NVM. The
// store returns that object's blocks to the pool and the next save's copy-in
// draws them, so what is left is the HTTP path. A store that copies into
// fresh memory is 1.0 again.
func TestSteadySaveDeleteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	_, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xa5}, 8<<20)
	step := 0
	save := func() float64 {
		step++
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id, err := c.Save(ctx, "acme", "steady", 0, step, payload)
		if err != nil {
			t.Fatal(err)
		}
		if id > retainLocal {
			if err := c.Delete(ctx, "acme", "steady", 0, id-retainLocal); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(payload))
	}
	for i := 0; i <= retainLocal+1; i++ {
		save()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for round := 1; round <= 3; round++ {
		perByte := save()
		t.Logf("save and delete %d: %.3f bytes allocated per payload byte", round, perByte)
		if perByte > 0.25 {
			t.Errorf("save %d allocated %.2f bytes per payload byte, budget 0.25: the store's copy-in is fresh memory again", round, perByte)
		}
	}
}

// TestSmallSaveLoadAllocBudget bounds the bytes allocated per payload byte
// moved by a small checkpoint's request path, the bench's service loop: a
// 16 KiB async save, a durability wait and a cold load from a second gateway
// over the same store, on four warm sessions. At that size the HTTP path is
// most of what a request allocates. When the budget was set the loop read
// 1.61 bytes per byte: the store's copy-in and the loaded snapshot, 1.0
// together, and the HTTP requests and replies. It read 1.95 while the
// client went through net/http (a transport's per-request state, its
// redirect header copy and goroutine hand-offs), and 2.48 while that
// transport's 4 KiB write buffer copied each save's last 12 KiB through a
// fresh buffer into a second write and a load grew a bytes.Buffer to its
// Content-Length plus 512 (the 18 KiB size class).
func TestSmallSaveLoadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	store := iostore.New(nvm.Pacer{})
	_, saveTS := newTestServer(t, func(c *Config) { c.Store, c.Codec = store, nil })
	_, loadTS := newTestServer(t, func(c *Config) { c.Store, c.Codec = store, nil })
	saver, loader := NewClient(saveTS.URL, "tok-acme"), NewClient(loadTS.URL, "tok-acme")
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0x5a}, 16<<10)
	const sessions = 4
	step := 0
	cycle := func() {
		rank := step % sessions
		step++
		id, err := saver.SaveAsync(ctx, "acme", "svc", rank, step, payload)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := saver.Durability(ctx, "acme", "svc", rank, id, "store"); err != nil || !d.Durable("store") {
			t.Fatalf("durability of %d: %+v, %v", id, d, err)
		}
		ck, err := loader.Load(ctx, "acme", "svc", rank, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ck.Data, payload) || ck.Level != "io" {
			t.Fatalf("round trip of %d: level %s, match %v", id, ck.Level, bytes.Equal(ck.Data, payload))
		}
	}
	for i := 0; i < 8*sessions; i++ {
		cycle()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const cycles = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(2*cycles*len(payload))
	t.Logf("%.3f bytes allocated per payload byte moved (16 KiB async save, durability wait, cold load)", perByte)
	if perByte > 1.75 {
		t.Errorf("%.2f bytes allocated per payload byte moved, budget 1.75: net/http's per-request state, a per-request copy buffer or an oversized load buffer is back", perByte)
	}
}
