package gateway

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/faultinject"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

// gatedStore is a store whose block writes can be held on a channel: while
// blocked, every NDP drain parks inside PutBlock (holding its NVM drain
// lock), so tests decide exactly when a checkpoint becomes store-durable.
type gatedStore struct {
	iostore.Backend
	mu   sync.Mutex
	gate chan struct{} // nil = open
}

func (g *gatedStore) block() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedStore) release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *gatedStore) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return g.Backend.PutBlock(ctx, key, meta, index, block)
}

// newGatedServer builds a test gateway over a gatedStore; the gate is
// released before the server shuts down so no drain outlives the test.
func newGatedServer(t *testing.T, mutate func(*Config)) (*Server, *Client, *gatedStore, *iostore.Store) {
	t.Helper()
	inner := iostore.New(nvm.Pacer{})
	gs := &gatedStore{Backend: inner}
	srv, ts := newTestServer(t, func(c *Config) {
		c.Store = gs
		c.Codec = nil
		if mutate != nil {
			mutate(c)
		}
	})
	t.Cleanup(gs.release)
	return srv, NewClient(ts.URL, "tok-acme"), gs, inner
}

// sessionNode returns the live session node for one rank of acme/run.
func sessionNode(t *testing.T, srv *Server, run string, rank int) *node.Node {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	n := srv.sessions[sessKey{job: JobKey("acme", run), rank: rank}]
	if n == nil {
		t.Fatalf("no session for acme/%s rank %d", run, rank)
	}
	return n
}

// waitFor yields until cond holds, for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// gaugeValue reads one un-labeled series off the registry's exposition.
func gaugeValue(t *testing.T, reg *metrics.Registry, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(buf.Bytes())
	if m == nil {
		t.Fatalf("series %s not exposed", name)
	}
	return string(m[1])
}

// TestSyncSaveCompletesOnlyAfterStoreWrite states the async-ack property
// structurally instead of as a latency comparison: with the store's block
// writes held, a durable=nvm save is acknowledged (202) while a
// durable=store save of the same payload has not returned; releasing the
// store completes the synchronous save with 200. Sync is async plus a wait,
// so the ordering cannot invert.
func TestSyncSaveCompletesOnlyAfterStoreWrite(t *testing.T) {
	_, c, gs, _ := newGatedServer(t, nil)
	gs.block()
	payload := bytes.Repeat([]byte("o"), 8<<10)

	syncDone := make(chan error, 1)
	go func() {
		_, err := c.Save(context.Background(), "acme", "sync", 0, 1, payload)
		syncDone <- err
	}()
	if _, err := c.SaveAsync(context.Background(), "acme", "async", 0, 1, payload); err != nil {
		t.Fatalf("durable=nvm save with the store blocked: %v", err)
	}
	select {
	case err := <-syncDone:
		t.Fatalf("durable=store save returned (%v) while the store was still blocked", err)
	default:
	}
	gs.release()
	select {
	case err := <-syncDone:
		if err != nil {
			t.Fatalf("durable=store save after the store was released: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("durable=store save never returned after the store was released")
	}
}

// TestSyncSaveWaitsForAdmission: a durable=store save against a session
// NVM crowded by a drain-locked resident parks in admission control and
// succeeds once the drain releases the space — before the unification the
// synchronous commit failed nvm.ErrFull (a 500) in this state.
func TestSyncSaveWaitsForAdmission(t *testing.T) {
	srv, c, gs, inner := newGatedServer(t, func(c *Config) { c.SessionNVM = 100 << 10 })
	ctx := context.Background()
	big := bytes.Repeat([]byte("z"), 70<<10)

	gs.block()
	if _, err := c.SaveAsync(ctx, "acme", "run1", 0, 1, big); err != nil {
		t.Fatalf("first save: %v", err)
	}
	n := sessionNode(t, srv, "run1", 0)
	waitFor(t, "the drain to lock the resident", func() bool { return n.Device().LockedBytes() > 0 })

	waits := srv.reg.Counter("ndpcr_nvm_admission_waits_total", "")
	before := waits.Value()
	type saved struct {
		id  uint64
		err error
	}
	done := make(chan saved, 1)
	go func() {
		id, err := c.Save(ctx, "acme", "run1", 0, 2, big)
		done <- saved{id, err}
	}()
	waitFor(t, "the sync save to park in admission", func() bool { return waits.Value() > before })
	select {
	case s := <-done:
		t.Fatalf("sync save returned (id %d, %v) while the drain lock held the device", s.id, s.err)
	default:
	}
	gs.release()
	select {
	case s := <-done:
		if s.err != nil {
			t.Fatalf("sync save after the drain released space: %v", s.err)
		}
		if _, err := inner.Get(ctx, iostore.Key{Job: JobKey("acme", "run1"), Rank: 0, ID: s.id}); err != nil {
			t.Fatalf("acknowledged sync save %d not in the store: %v", s.id, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync save never returned after the drain released space")
	}
}

// TestSaveModesEquivalent: the two acknowledgment modes are one path, so
// the same payload saved with durable=store, and with durable=nvm followed
// by Durability(wait=store), leaves byte-identical store objects, the same
// tracker watermarks and the same quota accounting.
func TestSaveModesEquivalent(t *testing.T) {
	ctx := context.Background()
	payload := bytes.Repeat([]byte("equivalent state "), 4096)
	type outcome struct {
		obj         iostore.Object
		marks       [4]uint64
		usedBytes   int64
		checkpoints int
	}
	run := func(async bool) outcome {
		store := iostore.New(nvm.Pacer{})
		srv, ts := newTestServer(t, func(c *Config) { c.Store = store })
		c := NewClient(ts.URL, "tok-acme")
		var id uint64
		var err error
		if async {
			if id, err = c.SaveAsync(ctx, "acme", "run", 0, 7, payload); err == nil {
				var d Durability
				if d, err = c.Durability(ctx, "acme", "run", 0, id, "store"); err == nil && !d.Durable("store") {
					err = fmt.Errorf("not store-durable after wait: %+v", d)
				}
			}
		} else {
			id, err = c.Save(ctx, "acme", "run", 0, 7, payload)
		}
		if err != nil {
			t.Fatalf("save (async=%v): %v", async, err)
		}
		var out outcome
		if out.obj, err = store.Get(ctx, iostore.Key{Job: JobKey("acme", "run"), Rank: 0, ID: id}); err != nil {
			t.Fatalf("stored object (async=%v): %v", async, err)
		}
		tr := sessionNode(t, srv, "run", 0).Durability()
		for i, lvl := range []ndp.Level{ndp.LevelNVM, ndp.LevelPartner, ndp.LevelErasure, ndp.LevelStore} {
			out.marks[i], _ = tr.Watermark(lvl)
		}
		st := srv.byToken["tok-acme"]
		st.mu.Lock()
		out.usedBytes, out.checkpoints = st.usedBytes, st.checkpoints
		st.mu.Unlock()
		return out
	}
	syncOut, asyncOut := run(false), run(true)
	if !reflect.DeepEqual(syncOut.obj, asyncOut.obj) {
		t.Errorf("store objects differ between modes:\n sync:  %d blocks, meta %v\n async: %d blocks, meta %v",
			len(syncOut.obj.Blocks), syncOut.obj.Meta, len(asyncOut.obj.Blocks), asyncOut.obj.Meta)
	}
	if syncOut.marks != asyncOut.marks {
		t.Errorf("tracker watermarks differ: sync %v, async %v", syncOut.marks, asyncOut.marks)
	}
	if syncOut.usedBytes != asyncOut.usedBytes || syncOut.checkpoints != asyncOut.checkpoints {
		t.Errorf("quota accounting differs: sync %d B/%d ckpts, async %d B/%d ckpts",
			syncOut.usedBytes, syncOut.checkpoints, asyncOut.usedBytes, asyncOut.checkpoints)
	}
}

// TestRetentionTrimsPastARolledBackSave: a save whose drain fails is rolled
// back, and the saves after it still hold the session's NVM to retainLocal
// checkpoints. The failed save trims nothing, so the ID it would have
// trimmed must go with a later trim, not stay resident for good.
func TestRetentionTrimsPastARolledBackSave(t *testing.T) {
	const good = retainLocal + 1 // saves before the failed one, one block each
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteStorePutBlock, Rank: faultinject.AnyRank,
		After: good, Count: 3, Mode: faultinject.ModeErr, // the drain's three attempts
	})
	srv, ts := newTestServer(t, func(c *Config) {
		c.Store = faultinject.WrapStore(iostore.New(nvm.Pacer{}), in)
	})
	c := NewClient(ts.URL, "tok-acme")
	payload := bytes.Repeat([]byte("retained state "), 256)
	for step := 1; step <= good+1+retainLocal; step++ {
		_, err := c.Save(context.Background(), "acme", "trim", 0, step, payload)
		if failed := step == good+1; failed != (err != nil) {
			t.Fatalf("save %d: err = %v, want a failure only at save %d", step, err, good+1)
		}
	}
	if ids := sessionNode(t, srv, "trim", 0).Device().IDs(); len(ids) > retainLocal {
		t.Errorf("session NVM holds checkpoints %v, want at most %d", ids, retainLocal)
	}
}

// TestResumeReportsRestoredID: /resume labels the snapshot with the ID it
// restored. After an async-acked save the session's NVM is one checkpoint
// ahead of the store; the header used to come from the store's newest ID,
// naming checkpoint 1 over checkpoint 2's bytes.
func TestResumeReportsRestoredID(t *testing.T) {
	_, c, gs, _ := newGatedServer(t, nil)
	ctx := context.Background()
	if _, err := c.Save(ctx, "acme", "run1", 0, 1, []byte("first, drained")); err != nil {
		t.Fatal(err)
	}
	gs.block()
	id, err := c.SaveAsync(ctx, "acme", "run1", 0, 2, []byte("second, still in NVM"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := c.Resume(ctx, "acme", "run1", 0, 0)
	if err != nil {
		t.Fatalf("resume before the drain landed: %v", err)
	}
	if string(cp.Data) != "second, still in NVM" || cp.Step != 2 {
		t.Fatalf("resume served %q (step %d), want the newest save", cp.Data, cp.Step)
	}
	if cp.ID != id {
		t.Errorf("resume labeled checkpoint %d's bytes as checkpoint %d", id, cp.ID)
	}
}

// shardTier builds an un-masked three-backend shard store (no repair loop).
func shardTier(t *testing.T) *shardstore.Store {
	t.Helper()
	var members []shardstore.Member
	for i := 0; i < 3; i++ {
		members = append(members, shardstore.Member{
			Name: fmt.Sprintf("backend-%d", i), Store: iostore.New(nvm.Pacer{}),
		})
	}
	shard, err := shardstore.New(members, shardstore.Config{Replicas: 2, Probe: -1})
	if err != nil {
		t.Fatalf("shardstore.New: %v", err)
	}
	t.Cleanup(func() { shard.Close() })
	return shard
}

// TestDurabilityPollKeepsShardTierHealthy: polling the durability of an ID
// the store does not hold (not drained yet, or never saved) makes the
// gateway Stat an absent key; every replica's honest "absent" must leave
// the tier's health alone.
func TestDurabilityPollKeepsShardTierHealthy(t *testing.T) {
	shard := shardTier(t)
	srv, ts := newTestServer(t, func(c *Config) { c.Store = shard })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	if _, err := c.Save(ctx, "acme", "run1", 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{2, 99} { // live session, unknown IDs
		d, err := c.Durability(ctx, "acme", "run1", 0, id, "")
		if err != nil {
			t.Fatalf("Durability(%d): %v", id, err)
		}
		if d.Durable("store") {
			t.Errorf("checkpoint %d reported store-durable", id)
		}
	}
	if d, err := c.Durability(ctx, "acme", "never-saved", 0, 1, ""); err != nil || d.Durable("store") {
		t.Fatalf("Durability of an unknown run = %+v, %v", d, err)
	}
	if got := gaugeValue(t, srv.reg, "ndpcr_shardstore_healthy_backends"); got != "3" {
		t.Errorf("ndpcr_shardstore_healthy_backends = %s after absent polls, want 3", got)
	}
}

// TestNewSessionsWhileSavesInFlight creates sessions while other sessions'
// saves are draining through an un-masked shardstore.Store. Run under
// -race: every new session used to re-instrument the shared store,
// reassigning the counters the in-flight writes were bumping.
func TestNewSessionsWhileSavesInFlight(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Store = shardTier(t)
		c.Codec = nil
	})
	payload := bytes.Repeat([]byte("r"), 16<<10)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(ts.URL, "tok-acme")
			for i := 0; i < 8; i++ {
				// A fresh run per save: each one builds a new session node.
				if _, err := c.Save(context.Background(), "acme", fmt.Sprintf("run-%d-%d", w, i), 0, 1, payload); err != nil {
					t.Errorf("worker %d save %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// arrivalStore parks every PutBlock on a gate, announcing each arrival first.
type arrivalStore struct {
	iostore.Backend
	arrived chan struct{} // buffered to the number of writes the test makes
	gate    chan struct{} // closed to let every write through
}

func (a *arrivalStore) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	a.arrived <- struct{}{}
	select {
	case <-a.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	return a.Backend.PutBlock(ctx, key, meta, index, block)
}

// TestSixtyFourTenantsSaveAtOnce: 64 tenants each save one block through a
// store whose writes park. All 64 writes are parked in the store before any
// is released — no tenant's save holds a lock, a session slot or a drain
// another tenant's save needs — and then every save is acknowledged.
func TestSixtyFourTenantsSaveAtOnce(t *testing.T) {
	const tenants = 64
	var ts []Tenant
	for i := 0; i < tenants; i++ {
		ts = append(ts, Tenant{Name: fmt.Sprintf("t%02d", i), Token: fmt.Sprintf("tok-%02d", i)})
	}
	store := &arrivalStore{Backend: iostore.New(nvm.Pacer{}), arrived: make(chan struct{}, tenants), gate: make(chan struct{})}
	_, hs := newTestServer(t, func(c *Config) {
		c.Store = store
		c.Tenants = ts
		c.Codec = nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		go func(i int) {
			c := NewClient(hs.URL, fmt.Sprintf("tok-%02d", i))
			_, err := c.Save(ctx, fmt.Sprintf("t%02d", i), "run", 0, 1, []byte("one block of state"))
			errs <- err
		}(i)
	}
	for i := 0; i < tenants; i++ {
		select {
		case <-store.arrived:
		case err := <-errs:
			t.Fatalf("a save returned (%v) with %d of %d writes parked and none released", err, i, tenants)
		case <-ctx.Done():
			t.Fatalf("%d of %d tenants' writes reached the store while the others were parked", i, tenants)
		}
	}
	close(store.gate)
	for i := 0; i < tenants; i++ {
		if err := <-errs; err != nil {
			t.Errorf("save: %v", err)
		}
	}
}
