package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

// parkedBody serves data up to parkAt bytes, then parks until the test
// resumes it: with nil it serves the rest, with an error the connection dies.
type parkedBody struct {
	data   []byte
	off    int
	parkAt int
	parked chan struct{} // closed when the reader reaches parkAt
	resume chan error
	waited bool
}

// newParkedBody parks after parkAt bytes of data. A test that ends without
// resuming it cuts it off, so no handler stays parked past the test.
func newParkedBody(t *testing.T, data []byte, parkAt int) *parkedBody {
	b := &parkedBody{data: data, parkAt: parkAt, parked: make(chan struct{}), resume: make(chan error, 1)}
	t.Cleanup(func() {
		select {
		case b.resume <- errBodyTorn:
		default: // resumed already
		}
	})
	return b
}

func (b *parkedBody) Read(p []byte) (int, error) {
	if b.off == b.parkAt && !b.waited {
		b.waited = true
		close(b.parked)
		if err := <-b.resume; err != nil {
			return 0, err
		}
	}
	if b.off == len(b.data) {
		return 0, io.EOF
	}
	end := len(b.data)
	if b.off < b.parkAt {
		end = b.parkAt
	}
	n := copy(p, b.data[b.off:end])
	b.off += n
	return n, nil
}

func (b *parkedBody) Close() error { return nil }

// saveResult is what one in-process save answered.
type saveResult struct {
	status int
	id     uint64
}

// serveSave drives the save handler in-process with a declared length.
func serveSave(srv *Server, run string, step int, body io.Reader, size int) saveResult {
	req := httptest.NewRequest(http.MethodPost,
		fmt.Sprintf("/v1/ns/acme/runs/%s/checkpoints?rank=0&step=%d", run, step), body)
	req.ContentLength = int64(size)
	req.Header.Set("Authorization", "Bearer tok-acme")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var r struct {
		ID uint64 `json:"id"`
	}
	json.Unmarshal(rec.Body.Bytes(), &r)
	return saveResult{rec.Code, r.ID}
}

// startSave runs serveSave on its own goroutine.
func startSave(srv *Server, run string, step int, body io.Reader, size int) <-chan saveResult {
	done := make(chan saveResult, 1)
	go func() { done <- serveSave(srv, run, step, body, size) }()
	return done
}

// blockWatch is a store that reports every block written, by ID and index.
type blockWatch struct {
	iostore.Backend
	puts chan [2]uint64
}

func newBlockWatch(next iostore.Backend) *blockWatch {
	return &blockWatch{Backend: next, puts: make(chan [2]uint64, 256)}
}

func (w *blockWatch) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	err := w.Backend.PutBlock(ctx, key, meta, index, block)
	select {
	case w.puts <- [2]uint64{key.ID, uint64(index)}:
	default: // nobody is watching for more
	}
	return err
}

// awaitPut waits (up to 5 s) until block index of checkpoint id is written.
func (w *blockWatch) awaitPut(t *testing.T, id uint64, index int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case p := <-w.puts:
			if p == [2]uint64{id, uint64(index)} {
				return
			}
		case <-timeout:
			t.Fatalf("block %d of checkpoint %d was not stored while the body was parked", index, id)
		}
	}
}

// pattern is size bytes that differ by tag.
func pattern(size int, tag byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i>>10) ^ tag
	}
	return b
}

// TestCutThroughParkedBodyStoresBlockZero: a save whose body stops after its
// second block already has its first block in the store — the drain started
// on what had arrived — and once the rest arrives the save completes and
// loads byte-identical.
func TestCutThroughParkedBodyStoresBlockZero(t *testing.T) {
	watch := newBlockWatch(iostore.New(nvm.Pacer{}))
	srv, ts := newTestServer(t, func(c *Config) { c.Store, c.Codec = watch, nil })
	const block = 1 << 20 // the default drain block
	payload := pattern(4*block, 1)
	body := newParkedBody(t, payload, 2*block)
	done := startSave(srv, "parked", 1, body, len(payload))
	<-body.parked
	watch.awaitPut(t, 1, 0)
	body.resume <- nil
	if res := <-done; res.status != http.StatusOK || res.id != 1 {
		t.Fatalf("parked save = %d id %d, want 200 id 1", res.status, res.id)
	}
	ck, err := NewClient(ts.URL, "tok-acme").Load(context.Background(), "acme", "parked", 0, 1)
	if err != nil || !bytes.Equal(ck.Data, payload) || ck.Step != 1 {
		t.Errorf("load of the parked save: step %d err %v, match %v", ck.Step, err, err == nil && bytes.Equal(ck.Data, payload))
	}
}

// TestCutThroughCutOffBodyLeavesNoResidue: a save whose body dies at block
// 3, after its drain has stored blocks on the replicas, answers 400 only once
// no replica holds any of it and NVM holds no entry; the next save gets the
// same ID.
func TestCutThroughCutOffBodyLeavesNoResidue(t *testing.T) {
	backends := make([]*iostore.Store, 3)
	var members []shardstore.Member
	for i := range backends {
		backends[i] = iostore.New(nvm.Pacer{})
		members = append(members, shardstore.Member{Name: fmt.Sprintf("backend-%d", i), Store: backends[i]})
	}
	shard, err := shardstore.New(members, shardstore.Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	watch := newBlockWatch(shard)
	srv, ts := newTestServer(t, func(c *Config) { c.Store, c.Codec = watch, nil })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	if id, err := c.Save(ctx, "acme", "cut", 0, 1, pattern(1000, 1)); err != nil || id != 1 {
		t.Fatalf("first save: id %d err %v", id, err)
	}
	n := sessionNode(t, srv, "cut", 0)
	used := n.Device().Used()

	const block = 1 << 20
	body := newParkedBody(t, pattern(6*block, 2), 3*block)
	done := startSave(srv, "cut", 2, body, 6*block)
	<-body.parked
	watch.awaitPut(t, 2, 2)
	body.resume <- errBodyTorn
	if res := <-done; res.status != http.StatusBadRequest {
		t.Fatalf("cut-off save = %d, want 400", res.status)
	}
	job := JobKey("acme", "cut")
	for i, b := range backends {
		if ids, err := b.IDs(ctx, job, 0); err != nil || len(ids) > 1 || (len(ids) == 1 && ids[0] != 1) {
			t.Errorf("backend %d holds %v (err %v) after the cut-off save: want checkpoint 1 at most", i, ids, err)
		}
	}
	if ids := n.Device().IDs(); len(ids) != 1 || ids[0] != 1 || n.Device().Used() != used {
		t.Errorf("NVM holds %v, %d bytes used, after the cut-off save: want [1], %d bytes", ids, n.Device().Used(), used)
	}
	payload := pattern(2*block, 3)
	if id, err := c.Save(ctx, "acme", "cut", 0, 3, payload); err != nil || id != 2 {
		t.Fatalf("save after the cut-off one: id %d err %v, want 2", id, err)
	}
	if ck, err := c.Load(ctx, "acme", "cut", 0, 2); err != nil || !bytes.Equal(ck.Data, payload) || ck.Step != 3 {
		t.Errorf("checkpoint 2 is not the save that took the ID (err %v)", err)
	}
}

// TestCutThroughConcurrentSavesStayDense: save A's body parks mid-stream and
// save B arrives on the same rank. B waits in Reserve for the rank's ID order:
// when A completes, the two are consecutive; when A is cut off, B gets the ID
// A gave back. No ID is skipped or used twice, and each loads its own bytes.
func TestCutThroughConcurrentSavesStayDense(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	const block = 1 << 20
	var want = map[uint64][]byte{}
	round := func(tag byte, cutOff bool) (a, b saveResult) {
		pa, pb := pattern(4*block, tag), pattern(3*block, tag+1)
		body := newParkedBody(t, pa, 2*block)
		doneA := startSave(srv, "dense", int(tag), body, len(pa))
		<-body.parked
		doneB := startSave(srv, "dense", int(tag)+1, bytes.NewReader(pb), len(pb))
		waitFor(t, "save B to arrive beside A", func() bool {
			return gaugeValue(t, srv.reg, "ndpcr_gateway_inflight_requests") == "2"
		})
		if cutOff {
			body.resume <- errBodyTorn
		} else {
			body.resume <- nil
		}
		a, b = <-doneA, <-doneB
		if !cutOff {
			want[a.id] = pa
		}
		want[b.id] = pb
		return a, b
	}

	a, b := round(10, false)
	if a.status != http.StatusOK || b.status != http.StatusOK || a.id != 1 || b.id != 2 {
		t.Fatalf("A = %d id %d, B = %d id %d: want 200s with ids 1 and 2", a.status, a.id, b.status, b.id)
	}
	a, b = round(20, true)
	if a.status != http.StatusBadRequest || b.status != http.StatusOK || b.id != 3 {
		t.Fatalf("cut-off A = %d, B = %d id %d: want 400, and 200 with A's id 3", a.status, b.status, b.id)
	}
	if id, err := c.Save(context.Background(), "acme", "dense", 0, 30, pattern(1000, 30)); err != nil || id != 4 {
		t.Fatalf("next save: id %d err %v, want 4", id, err)
	}
	for id, data := range want {
		if ck, err := c.Load(context.Background(), "acme", "dense", 0, id); err != nil || !bytes.Equal(ck.Data, data) {
			t.Errorf("checkpoint %d does not load its own save's bytes (err %v)", id, err)
		}
	}
}

// TestCutThroughStalledBodyAnswers408: a streaming save whose client stops
// sending holds the rank's ID order only until its body deadline
// (DrainTimeout): it then answers 408, and by then its drain has stopped and
// deleted what it shipped and NVM holds none of it, so the next save on the
// rank takes the ID it gave back.
func TestCutThroughStalledBodyAnswers408(t *testing.T) {
	const stall = 200 * time.Millisecond
	store := iostore.New(nvm.Pacer{})
	watch := newBlockWatch(store)
	srv, ts := newTestServer(t, func(c *Config) { c.Store, c.Codec, c.DrainTimeout = watch, nil, stall })
	const block = 1 << 20
	body := newParkedBody(t, pattern(4*block, 1), 2*block)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ns/acme/runs/stall/checkpoints?rank=0&step=1", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 4 * block
	req.Header.Set("Authorization", "Bearer tok-acme")
	stalled := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err != nil {
			stalled <- 0
			return
		}
		resp.Body.Close()
		stalled <- resp.StatusCode
	}()
	watch.awaitPut(t, 1, 0) // the stalled save streams under ID 1
	if code := <-stalled; code != http.StatusRequestTimeout {
		t.Fatalf("stalled save = %d, want 408", code)
	}
	ctx := context.Background()
	if ids, err := store.IDs(ctx, JobKey("acme", "stall"), 0); err != nil || len(ids) != 0 {
		t.Errorf("the store holds %v (err %v) after the stalled save answered: want nothing", ids, err)
	}
	if n := sessionNode(t, srv, "stall", 0); len(n.Device().IDs()) != 0 || n.Device().Used() != 0 {
		t.Errorf("NVM holds %v, %d bytes used, after the stalled save answered: want nothing", n.Device().IDs(), n.Device().Used())
	}
	c := NewClient(ts.URL, "tok-acme")
	payload := pattern(2*block, 2)
	if id, err := c.Save(ctx, "acme", "stall", 0, 2, payload); err != nil || id != 1 {
		t.Fatalf("save after the stalled one: id %d err %v, want the stalled save's 1", id, err)
	}
	if ck, err := c.Load(ctx, "acme", "stall", 0, 1); err != nil || !bytes.Equal(ck.Data, payload) {
		t.Errorf("checkpoint 1 is not the save that took the ID (err %v)", err)
	}
}

// TestCutThroughSaveBesideParkedStreamAnswersInTime: a save that waits for
// the ID order behind a parked streaming save on its rank gives up within its
// deadline (DrainTimeout) with 429, taking no ID; the parked save, once its
// body arrives, still gets the next ID, and the save after it the one after.
func TestCutThroughSaveBesideParkedStreamAnswersInTime(t *testing.T) {
	const deadline = 300 * time.Millisecond
	watch := newBlockWatch(iostore.New(nvm.Pacer{}))
	srv, ts := newTestServer(t, func(c *Config) { c.Store, c.Codec, c.DrainTimeout = watch, nil, deadline })
	const block = 1 << 20
	payload := pattern(4*block, 1)
	body := newParkedBody(t, payload, 2*block)
	done := startSave(srv, "wait", 1, body, len(payload))
	watch.awaitPut(t, 1, 0)
	start := time.Now()
	if res := serveSave(srv, "wait", 2, bytes.NewReader(pattern(2*block, 2)), 2*block); res.status != http.StatusTooManyRequests {
		t.Fatalf("save beside a parked stream = %d, want 429", res.status)
	}
	if took := time.Since(start); took > 10*deadline {
		t.Errorf("save beside a parked stream answered after %s, deadline %s", took, deadline)
	}
	body.resume <- nil
	if res := <-done; res.status != http.StatusOK || res.id != 1 {
		t.Fatalf("parked save = %d id %d, want 200 id 1", res.status, res.id)
	}
	if id, err := NewClient(ts.URL, "tok-acme").Save(context.Background(), "acme", "wait", 0, 3, pattern(1000, 3)); err != nil || id != 2 {
		t.Fatalf("next save: id %d err %v, want 2", id, err)
	}
}

// TestCutThroughParkedBodyHoldsNoDrainSlot: with one drain slot shared by
// every session, a save whose body is parked holds none of it — it does not
// stream under a drain gate — so another session's save drains and answers
// 200 meanwhile, and the parked save completes once its body arrives.
func TestCutThroughParkedBodyHoldsNoDrainSlot(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.Codec, c.DrainSlots, c.DrainTimeout = nil, 1, 2*time.Second })
	const block = 1 << 20
	payload := pattern(4*block, 1)
	body := newParkedBody(t, payload, 2*block)
	done := startSave(srv, "parked", 1, body, len(payload))
	<-body.parked
	if res := serveSave(srv, "other", 1, bytes.NewReader(pattern(2*block, 2)), 2*block); res.status != http.StatusOK || res.id != 1 {
		t.Fatalf("other session's save beside a parked body = %d id %d, want 200 id 1", res.status, res.id)
	}
	body.resume <- nil
	if res := <-done; res.status != http.StatusOK || res.id != 1 {
		t.Fatalf("parked save = %d id %d, want 200 id 1", res.status, res.id)
	}
}
