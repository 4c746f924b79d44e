package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
