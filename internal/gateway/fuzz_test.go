package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// FuzzRestoreRequest: the restore endpoint decodes a body any tenant sends
// and sizes a plan from it. Over an empty store any body either fails with
// a 4xx or 5xx or answers a plan within maxRanks, and never panics.
func FuzzRestoreRequest(f *testing.F) {
	f.Add(`{"ranks": 4, "target_ranks": 3, "line": 2}`)
	f.Add(`{"ranks": 100000, "line": 1}`)
	f.Add(`{"ranks": 2000000000, "line": 1}`)
	f.Add(`{"ranks": 4, "target_ranks": -1}`)
	f.Add(`{"ranks": 1e3}`)
	f.Add(`[`)
	srv, err := New(Config{Store: iostore.New(nvm.Pacer{}), Tenants: testTenants(), DrainTimeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/ns/acme/runs/r/restore", strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer tok-acme")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code >= 400 {
			return
		}
		var plan RestorePlan
		if err := json.Unmarshal(w.Body.Bytes(), &plan); err != nil {
			t.Fatalf("body %q: %d with an undecodable plan: %v", body, w.Code, err)
		}
		if w.Code != http.StatusOK || plan.SourceRanks < 1 || plan.SourceRanks > maxRanks ||
			plan.TargetRanks < 1 || plan.TargetRanks > maxRanks || len(plan.Targets) != plan.TargetRanks {
			t.Fatalf("body %q: %d, a plan of %d sources onto %d targets (%d planned), want 1..%d",
				body, w.Code, plan.SourceRanks, plan.TargetRanks, len(plan.Targets), maxRanks)
		}
	})
}

// FuzzParseTenants: the token file is read at startup and every limit in it
// is enforced as written. Any contents either fail to parse or yield a list
// ValidateTenants accepts, and never panic.
func FuzzParseTenants(f *testing.F) {
	f.Add(`[{"name": "acme", "token": "t1", "quota": {"max_bytes": 1048576}, "rate": {"per_sec": 100}}]`)
	f.Add(`[{"name": "a", "token": "t"}, {"name": "b", "token": "t"}]`)
	f.Add(`[{"name": "a", "token": "t", "namespaces": ["a", "shared"], "drain_weight": -2}]`)
	f.Add(`[{"name": "a", "token": "t", "rate": {"per_sec": -1, "burst": 3}}]`)
	f.Add(`[]`)
	f.Add(`null`)
	f.Fuzz(func(t *testing.T, raw string) {
		tenants, err := parseTenants([]byte(raw))
		if err != nil {
			return
		}
		if err := ValidateTenants(tenants); err != nil {
			t.Fatalf("parseTenants(%q) accepted %+v, which ValidateTenants refuses: %v", raw, tenants, err)
		}
	})
}

// FuzzAwaitHeader: the gateway reads the await header any tenant sends on
// any request to a run. Whatever it holds, the request is served as without
// it, and the settled header lists only IDs the await header names that are
// store-durable or failed in the request's own run: here IDs 1 and 2 of
// acme/r rank 0. Rank 1 of acme/r has no session, and acme/other holds IDs
// 1 to 3 on ranks 0 and 1 in the store.
func FuzzAwaitHeader(f *testing.F) {
	f.Add("0:1,0:2,0:3,1:1")
	f.Add(" 0:2 ,\t0:1,,x:1,0:,:0,0:0")
	f.Add("0:99999999999999999999,2147483648:1,-1:1,0:+1")
	f.Add(strings.Repeat("0:1,", 70) + "0:2")
	srv, err := New(Config{Store: iostore.New(nvm.Pacer{}), Tenants: testTenants(), DrainTimeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	save := func(run string, rank int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/ns/acme/runs/"+run+"/checkpoints?rank="+strconv.Itoa(rank), strings.NewReader("state"))
		req.Header.Set("Authorization", "Bearer tok-acme")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			f.Fatalf("save to %s rank %d: %d %s", run, rank, w.Code, w.Body)
		}
	}
	save("r", 0)
	save("r", 0)
	for i := 0; i < 3; i++ {
		save("other", 0)
		save("other", 1)
	}
	f.Fuzz(func(t *testing.T, await string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/ns/acme/runs/r/checkpoints?rank=0", nil)
		req.Header.Set("Authorization", "Bearer tok-acme")
		req.Header.Set(awaitHeader, await)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("await %q: list answered %d, want 200", await, w.Code)
		}
		named := map[string]bool{}
		for _, e := range strings.Split(await, ",") {
			rank, id, ok := strings.Cut(strings.TrimSpace(e), ":")
			r, rerr := strconv.ParseUint(rank, 10, 64)
			n, ierr := strconv.ParseUint(id, 10, 64)
			if ok && rerr == nil && ierr == nil {
				named[strconv.FormatUint(r, 10)+":"+strconv.FormatUint(n, 10)] = true
			}
		}
		settled := w.Header().Get(settledHeader)
		if settled == "" {
			return
		}
		for _, e := range strings.Split(settled, ",") {
			pair, levels, _ := strings.Cut(e, "=")
			if !named[pair] || (pair != "0:1" && pair != "0:2") || levels != "nvm+store" {
				t.Fatalf("await %q: settled lists %q, want only 0:1 or 0:2, named and nvm+store", await, e)
			}
		}
	})
}

// FuzzSettledHeader: the client reads the settled header off every reply.
// Whatever it holds, it ends only waits for IDs the client awaits in the
// reply's run, keeps only store-durable answers for them, and never
// touches another run's waits.
func FuzzSettledHeader(f *testing.F) {
	f.Add("0:1=nvm+store,0:2=failed,0:3=nvm")
	f.Add("1:1=store, 0:9=store,0:1=bogus,0:1,=store,0:0=store")
	f.Add("0:2=erasure+nvm+partner+store," + strings.Repeat("0:1=store,", 70))
	f.Fuzz(func(t *testing.T, settled string) {
		var a acks
		for id := uint64(1); id <= 3; id++ {
			a.await(ackKey{ns: "acme", run: "r", rank: 0, id: id})
			a.await(ackKey{ns: "acme", run: "other", rank: 0, id: id})
		}
		a.settle("acme", "r", settled)
		others := 0
		for _, w := range a.awaits {
			if w.run == "other" {
				others++
			}
		}
		if others != 3 {
			t.Fatalf("settled %q on acme/r ended waits of acme/other: %v", settled, a.awaits)
		}
		for _, e := range a.answers {
			if e.ns != "acme" || e.run != "r" || e.rank != 0 || e.id < 1 || e.id > 3 || e.id != e.d.ID ||
				!e.d.Levels.Store || e.d.Failed {
				t.Fatalf("settled %q kept an answer for %+v: %+v", settled, e.ackKey, e.d)
			}
			for _, w := range a.awaits {
				if w == e.ackKey {
					t.Fatalf("settled %q: %+v both awaited and answered", settled, w)
				}
			}
		}
	})
}
