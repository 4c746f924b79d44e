package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ndpcr/internal/cluster/elastic"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// saveFramed checkpoints a framed (partitionable) snapshot for each of n
// ranks and returns the merged application state for later comparison.
func saveFramed(t *testing.T, c *Client, ns, run string, n, step int) []byte {
	t.Helper()
	frames := make([][]byte, n)
	for rank := 0; rank < n; rank++ {
		count := 2 + rank%3
		shards := make([][]byte, count)
		for j := range shards {
			shards[j] = []byte(fmt.Sprintf("r%02d-s%02d-step%02d|%s", rank, j, step,
				bytes.Repeat([]byte{byte(rank*17 + j + step)}, 24)))
		}
		frames[rank] = elastic.Encode(shards)
		if _, err := c.Save(context.Background(), ns, run, rank, step, frames[rank]); err != nil {
			t.Fatalf("save rank %d: %v", rank, err)
		}
	}
	merged, err := elastic.MergedBytes(frames)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

func TestRestorePlanAndMembers(t *testing.T) {
	const n, m = 4, 3
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()

	want := saveFramed(t, c, "acme", "elastic", n, 1)

	plan, err := c.PlanRestore(ctx, "acme", "elastic", n, m, 0)
	if err != nil {
		t.Fatalf("PlanRestore: %v", err)
	}
	if plan.Line == 0 || plan.SourceRanks != n || plan.TargetRanks != m {
		t.Fatalf("plan geometry = %+v", plan)
	}
	if len(plan.Targets) != m {
		t.Fatalf("%d target plans, want %d", len(plan.Targets), m)
	}

	// Execute every member pinned to the planned line; the merged members
	// must reproduce the merged source state byte-identically.
	members := make([][]byte, m)
	for i := 0; i < m; i++ {
		ck, err := c.RestoreMember(ctx, "acme", "elastic", n, m, i, plan.Line)
		if err != nil {
			t.Fatalf("RestoreMember %d: %v", i, err)
		}
		if ck.ID != plan.Line || ck.Step != 1 {
			t.Errorf("member %d id/step = %d/%d, want %d/1", i, ck.ID, ck.Step, plan.Line)
		}
		members[i] = ck.Data
	}
	got, err := elastic.MergedBytes(members)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged member snapshots differ from the checkpointed state")
	}
}

func TestRestoreSameShapeIdentity(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	saveFramed(t, c, "acme", "idrun", 2, 3)
	plan, err := c.PlanRestore(context.Background(), "acme", "idrun", 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Identity {
		t.Error("2→2 plan not marked identity")
	}
}

func TestRestoreOpaqueRejected(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	// Opaque (unframed) snapshots: same-shape restore fine, reshape 409s.
	for rank := 0; rank < 2; rank++ {
		if _, err := c.Save(ctx, "acme", "opq", rank, 1, []byte("opaque state")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.PlanRestore(ctx, "acme", "opq", 2, 2, 0); err != nil {
		t.Fatalf("same-shape plan over opaque snapshots: %v", err)
	}
	_, err := c.PlanRestore(ctx, "acme", "opq", 2, 5, 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "not_partitioned" {
		t.Fatalf("reshape over opaque snapshots: err = %v, want not_partitioned", err)
	}
}

func TestRestoreValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	if _, err := c.PlanRestore(ctx, "acme", "r", 0, 4, 0); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := c.RestoreMember(ctx, "acme", "r", 4, 2, 7, 0); err == nil {
		t.Error("member beyond target_ranks accepted")
	}
}

// TestResumeFallsBackAcrossLines is the regression test for the resume
// bug: with ?ranks= the gateway used to try only the newest restart line
// and fail outright when it was unreadable, instead of walking older
// lines the way Cluster.Recover does.
func TestResumeFallsBackAcrossLines(t *testing.T) {
	store := iostore.New(nvm.Pacer{})
	_, ts := newTestServer(t, func(cfg *Config) { cfg.Store = store })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()

	wantOld := saveFramed(t, c, "acme", "fb", 2, 1)
	saveFramed(t, c, "acme", "fb", 2, 2)

	// Poison the newest line's objects in the store: present in the
	// inventory (so line 2 stays the newest restart line) but with
	// metadata that fails decode, making the restore itself error.
	// Resume is per-rank, so every rank's object must be poisoned for
	// every rank to fall back.
	job := JobKey("acme", "fb")
	for rank := 0; rank < 2; rank++ {
		if err := store.Put(ctx, iostore.Object{
			Key:      iostore.Key{Job: job, Rank: rank, ID: 2},
			OrigSize: 4,
			Blocks:   [][]byte{[]byte("junk")},
			Meta:     map[string]string{"job": job, "rank": "corrupt", "step": "2", "ckpt": "2"},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Resume through a fresh gateway (no session NVM cache vouching for
	// the poisoned line) — it must fall back to line 1.
	srv2, ts2 := newTestServer(t, func(cfg *Config) { cfg.Store = store })
	c2 := NewClient(ts2.URL, "tok-acme")
	members := make([][]byte, 2)
	for rank := 0; rank < 2; rank++ {
		ck, err := c2.Resume(ctx, "acme", "fb", rank, 2)
		if err != nil {
			t.Fatalf("resume rank %d: %v", rank, err)
		}
		if ck.ID != 1 || ck.Step != 1 {
			t.Fatalf("rank %d resumed id/step %d/%d, want 1/1", rank, ck.ID, ck.Step)
		}
		members[rank] = ck.Data
	}
	got, err := elastic.MergedBytes(members)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantOld) {
		t.Fatal("fallback resume did not serve the older line's state")
	}
	if srv2.mRestoreFallbacks.Value() == 0 {
		t.Error("fallback not counted in ndpcr_gateway_restore_fallbacks_total")
	}
}

// TestRestoreRanksBounded: a restore's rank counts are refused above
// maxRanks before anything is sized from them. Unchecked, a pinned-line
// identity plan held one entry per requested rank, and a reshape's planner
// a count per source rank before its first Stat: a tenant's one request
// allocated as much as its body asked for.
func TestRestoreRanksBounded(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodPost, "/v1/ns/acme/runs/r/restore", `{"ranks": 2000000000, "line": 1}`},
		{http.MethodPost, "/v1/ns/acme/runs/r/restore", `{"ranks": 4, "target_ranks": 2000000000, "line": 1}`},
		{http.MethodGet, "/v1/ns/acme/runs/r/resume?rank=0&ranks=2000000000", ""},
	} {
		req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
		req.Header.Set("Authorization", "Bearer tok-acme")
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"bad_request"`) {
			t.Errorf("%s %s %s: %d %s, want 400 bad_request", tc.method, tc.target, tc.body, w.Code, w.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; !raceEnabled && alloc >= 1<<20 {
			t.Errorf("%s %s %s allocated %d bytes before answering, want under 1 MiB", tc.method, tc.target, tc.body, alloc)
		}
	}
}
