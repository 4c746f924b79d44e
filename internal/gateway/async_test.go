package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"testing"
	"time"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/faultinject"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

func TestAsyncSaveAcksAtNVMThenStoreDurable(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()

	payload := bytes.Repeat([]byte("async-state "), 2048)
	id, err := c.SaveAsync(ctx, "acme", "run1", 0, 3, payload)
	if err != nil {
		t.Fatalf("SaveAsync: %v", err)
	}
	// The ack is NVM-level; the durability endpoint must already show it.
	d, err := c.Durability(ctx, "acme", "run1", 0, id, "")
	if err != nil {
		t.Fatalf("Durability: %v", err)
	}
	if !d.Durable("nvm") {
		t.Error("acked async save not NVM-durable")
	}
	if d.Failed {
		t.Errorf("fresh async save reported failed: %s", d.Failure)
	}
	// Wait for store durability, then the payload must be loadable.
	d, err = c.Durability(ctx, "acme", "run1", 0, id, "store")
	if err != nil {
		t.Fatalf("Durability(wait=store): %v", err)
	}
	if !d.Durable("store") {
		t.Fatalf("async save never store-durable: %+v", d)
	}
	got, err := c.Load(ctx, "acme", "run1", 0, id)
	if err != nil {
		t.Fatalf("Load after async save: %v", err)
	}
	if !bytes.Equal(got.Data, payload) {
		t.Error("async-saved payload corrupted")
	}
}

func TestAsyncSaveReturns202WithDurableField(t *testing.T) {
	_, ts := newTestServer(t, nil) // sync default; override per request
	req, _ := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/ns/acme/runs/r/checkpoints?rank=0&step=1&durable=nvm",
		bytes.NewReader(bytes.Repeat([]byte("x"), 4096)))
	req.Header.Set("Authorization", "Bearer tok-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async save status = %d, want 202", resp.StatusCode)
	}
	var out struct {
		ID      uint64 `json:"id"`
		Durable string `json:"durable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == 0 || out.Durable != "nvm" {
		t.Errorf("async save response = %+v, want id>0 durable=nvm", out)
	}
}

// TestAsyncSaveBackpressure429: when the session NVM is pinned by
// drain-locked residents and admission cannot succeed within the bound, the
// save is rejected with the typed 429 backpressure code — a signal to back
// off, distinct from quota and rate-limit rejections. Both acknowledgment
// modes commit through the same admission control, so a synchronous save
// gets the same 429 (never a 500 from a full device).
func TestAsyncSaveBackpressure429(t *testing.T) {
	for _, mode := range []string{"nvm", "store"} {
		t.Run("durable="+mode, func(t *testing.T) {
			srv, c, gs, _ := newGatedServer(t, func(c *Config) {
				c.SessionNVM = 100 << 10
				c.DrainTimeout = 100 * time.Millisecond // admission bound
				c.AsyncDrainTimeout = 5 * time.Second
			})
			ctx := context.Background()
			big := bytes.Repeat([]byte("z"), 70<<10)

			gs.block()
			if _, err := c.SaveAsync(ctx, "acme", "run1", 0, 1, big); err != nil {
				t.Fatalf("first async save: %v", err)
			}
			// The blocked store holds the drain lock on checkpoint 1 past
			// the admission bound: the second save must be told to back off.
			n := sessionNode(t, srv, "run1", 0)
			waitFor(t, "the drain to lock the resident", func() bool { return n.Device().LockedBytes() > 0 })
			_, err := c.save(ctx, "acme", "run1", 0, 2, big, "&durable="+mode)
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("second save: got %v, want APIError", err)
			}
			if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "backpressure" {
				t.Fatalf("second save = %d %q, want 429 backpressure", apiErr.Status, apiErr.Code)
			}
		})
	}
}

// TestSyncSaveShutdownReportsShuttingDown is the regression test for the
// drain-timeout/engine-stop conflation: a synchronous save interrupted by
// gateway shutdown must fail with the shutting_down code, not masquerade as
// a drain_timeout — and a checkpoint whose drain completed in the same
// instant must not be rolled back (covered at the ndp layer; here the code
// path). The held store keeps the save's drain from landing, and the
// shutdown uses an already-expired context, so session teardown begins
// while the save is still waiting for its durability.
func TestSyncSaveShutdownReportsShuttingDown(t *testing.T) {
	srv, c, gs, _ := newGatedServer(t, func(c *Config) {
		c.DrainTimeout = 30 * time.Second // the save would happily wait
	})
	gs.block()
	saveErr := make(chan error, 1)
	go func() {
		_, err := c.Save(context.Background(), "acme", "run1", 0, 1, bytes.Repeat([]byte("s"), 8<<10))
		saveErr <- err
	}()
	// A drain-locked checkpoint is a committed one: the save has been
	// acknowledged by NVM and waits on the held store from here on.
	waitFor(t, "the drain to lock the checkpoint", func() bool {
		srv.mu.Lock()
		n := srv.sessions[sessKey{job: JobKey("acme", "run1"), rank: 0}]
		srv.mu.Unlock()
		return n != nil && n.Device().LockedBytes() > 0
	})

	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	srv.Shutdown(sctx) // expires waiting for the save, closes sessions

	select {
	case err := <-saveErr:
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("interrupted save: got %v, want APIError", err)
		}
		if apiErr.Code != "shutting_down" {
			t.Fatalf("interrupted save code = %q (%d), want shutting_down", apiErr.Code, apiErr.Status)
		}
		if apiErr.Status != http.StatusServiceUnavailable {
			t.Errorf("interrupted save status = %d, want 503", apiErr.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted save never returned")
	}
}

// TestAsyncShutdownWaitsForPendingDrains: acked async saves must reach the
// store before a graceful shutdown finishes (zero silent losses across
// shutdown).
func TestAsyncShutdownWaitsForPendingDrains(t *testing.T) {
	in := faultinject.New(17,
		faultinject.Rule{Site: faultinject.SiteStorePutBlock, Mode: faultinject.ModeStall, Delay: 150 * time.Millisecond},
	)
	inner := iostore.New(nvm.Pacer{})
	srv, ts := newTestServer(t, func(c *Config) {
		c.Store = faultinject.WrapStore(inner, in)
		c.Codec = nil
	})
	c := NewClient(ts.URL, "tok-acme")
	id, err := c.SaveAsync(context.Background(), "acme", "run1", 0, 1, bytes.Repeat([]byte("p"), 8<<10))
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := inner.Get(context.Background(), iostore.Key{Job: JobKey("acme", "run1"), Rank: 0, ID: id}); err != nil {
		t.Fatalf("acked async save %d lost across graceful shutdown: %v", id, err)
	}
}

// TestDurabilityEndpointStoreFallback: a restarted gateway has no session
// (and an empty tracker) for old checkpoints, but the durability endpoint
// must still report store-level truth by consulting the store directly.
func TestDurabilityEndpointStoreFallback(t *testing.T) {
	store := iostore.New(nvm.Pacer{})
	_, ts1 := newTestServer(t, func(c *Config) { c.Store = store })
	c1 := NewClient(ts1.URL, "tok-acme")
	id, err := c1.Save(context.Background(), "acme", "run1", 0, 1, bytes.Repeat([]byte("d"), 4096))
	if err != nil {
		t.Fatal(err)
	}
	// A second gateway over the same store: no session, no tracker state.
	_, ts2 := newTestServer(t, func(c *Config) { c.Store = store })
	c2 := NewClient(ts2.URL, "tok-acme")
	d, err := c2.Durability(context.Background(), "acme", "run1", 0, id, "")
	if err != nil {
		t.Fatalf("Durability on restarted gateway: %v", err)
	}
	if !d.Durable("store") {
		t.Errorf("store-held checkpoint %d not reported store-durable after restart: %+v", id, d)
	}
	if d.Failed {
		t.Error("store-held checkpoint reported failed")
	}
}

// TestAsyncSaveDeleteKeepsBlockPoolWarm is the service loop at tier 1: 16 KiB
// async saves, each waited to the store and deleted, with collections between
// them. The store's copy-in draws the block its last Delete released, so once
// warm the loop allocates no block buffer — collections or not.
func TestAsyncSaveDeleteKeepsBlockPoolWarm(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	payload := bytes.Repeat([]byte("svc-state "), 16<<10/10)
	cycle := func(step int) {
		id, err := c.SaveAsync(ctx, "acme", "svc", 0, step, payload)
		if err != nil {
			t.Fatalf("SaveAsync: %v", err)
		}
		if d, err := c.Durability(ctx, "acme", "svc", 0, id, "store"); err != nil || !d.Durable("store") {
			t.Fatalf("save %d never store-durable: %+v, %v", id, d, err)
		}
		if err := c.Delete(ctx, "acme", "svc", 0, id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		runtime.GC()
		runtime.GC()
	}
	step := 0
	for ; step < 3; step++ {
		cycle(step)
	}
	_, miss0 := blockpool.Stats()
	for ; step < 11; step++ {
		cycle(step)
	}
	if _, miss1 := blockpool.Stats(); miss1 != miss0 {
		t.Errorf("8 warm save+delete cycles allocated %d block buffers, want 0", miss1-miss0)
	}
}

// TestDurabilityMidDrainIsNotStoreDurable: while an async save's drain has
// stored block 0 and the store holds blocks 1-3, the durability endpoint
// must not report it store-durable: the store holds a torn object, and a
// drain that then fails leaves a client told "store" with nothing to
// restore. The session's tracker answers for an ID it committed.
func TestDurabilityMidDrainIsNotStoreDurable(t *testing.T) {
	store := newParkingStore(1)
	_, ts := newTestServer(t, func(c *Config) { c.Store, c.Codec, c.BlockSize = store, nil, 4096 })
	t.Cleanup(store.release)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	id, err := c.SaveAsync(ctx, "acme", "r", 0, 1, pattern(16<<10, 3))
	if err != nil {
		t.Fatal(err)
	}
	await(t, store.landed, 0, "landed")
	if d, err := c.Durability(ctx, "acme", "r", 0, id, ""); err != nil || d.Durable("store") {
		t.Errorf("durability with 1 of 4 blocks stored: %+v, %v; want not store-durable", d, err)
	}
	store.release()
	if d, err := c.Durability(ctx, "acme", "r", 0, id, "store"); err != nil || !d.Durable("store") {
		t.Errorf("durability once the drain finished: %+v, %v; want store-durable", d, err)
	}
}
