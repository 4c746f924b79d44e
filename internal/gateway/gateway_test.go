package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/faultinject"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

func testTenants() []Tenant {
	return []Tenant{
		{Name: "acme", Token: "tok-acme"},
		{Name: "umbra", Token: "tok-umbra"},
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Store:        iostore.New(nvm.Pacer{}),
		Tenants:      testTenants(),
		DrainTimeout: 10 * time.Second,
	}
	if c, err := compress.Lookup("gzip", 1); err == nil {
		cfg.Codec = c
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return srv, ts
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()

	payload := bytes.Repeat([]byte("state-v1 "), 4096)
	id, err := c.Save(ctx, "acme", "run1", 0, 7, payload)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if id != 1 {
		t.Fatalf("first checkpoint id = %d, want 1", id)
	}

	got, err := c.Load(ctx, "acme", "run1", 0, id)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got.Data, payload) {
		t.Fatalf("loaded %d bytes, want %d matching bytes", len(got.Data), len(payload))
	}
	if got.Step != 7 || got.ID != id {
		t.Fatalf("loaded id/step = %d/%d, want %d/7", got.ID, got.Step, id)
	}

	ids, err := c.List(ctx, "acme", "run1", 0)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("List = %v, want [%d]", ids, id)
	}

	cp, err := c.Resume(ctx, "acme", "run1", 0, 0)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !bytes.Equal(cp.Data, payload) {
		t.Fatal("Resume returned wrong payload")
	}
}

// countDials points c's dial seam at a counter of the connections it opens.
func countDials(c *Client) *atomic.Int32 {
	var dials atomic.Int32
	c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		return dialTCP(ctx, addr)
	}
	return &dials
}

// TestClientKeepsItsConnection: saves and then deletes on one client ride one
// keep-alive connection. A delete that closed its reply unread would drop
// the connection and dial a new one for the next request.
func TestClientKeepsItsConnection(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	dials := countDials(c)
	ctx := context.Background()
	var ids []uint64
	for step := 0; step < 5; step++ {
		id, err := c.Save(ctx, "acme", "r", 0, step, []byte("state"))
		if err != nil {
			t.Fatalf("Save: %v", err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := c.Delete(ctx, "acme", "r", 0, id); err != nil {
			t.Fatalf("Delete %d: %v", id, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("5 saves and 5 deletes dialled %d connections, want 1", n)
	}
}

// TestClientReusesOneConnection: a small checkpoint's whole cycle — async
// save, durability wait, load — rides one keep-alive connection. The client
// keeps a connection only for a reply read to EOF, so a load that stops
// reading short of its body's end dials again for the next request.
func TestClientReusesOneConnection(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Codec = nil })
	c := NewClient(ts.URL, "tok-acme")
	conns := countDials(c)
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0x3c}, 16<<10)
	for step := 1; step <= 100; step++ {
		id, err := c.SaveAsync(ctx, "acme", "conn", 0, step, payload)
		if err != nil {
			t.Fatalf("SaveAsync: %v", err)
		}
		if _, err := c.Durability(ctx, "acme", "conn", 0, id, "store"); err != nil {
			t.Fatalf("Durability: %v", err)
		}
		if _, err := c.Load(ctx, "acme", "conn", 0, id); err != nil {
			t.Fatalf("Load: %v", err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("100 saves, polls and loads opened %d connections, want 1", n)
	}
}

func TestSaveIsDurableBeforeAck(t *testing.T) {
	store := iostore.New(nvm.Pacer{})
	_, ts := newTestServer(t, func(c *Config) { c.Store = store })
	c := NewClient(ts.URL, "tok-acme")

	id, err := c.Save(context.Background(), "acme", "r", 0, 1, []byte("must be drained"))
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	// The ack means the object is already in the global store — no
	// waiting, no retries.
	key := iostore.Key{Job: JobKey("acme", "r"), Rank: 0, ID: id}
	if _, ok, err := store.Stat(context.Background(), key); err != nil || !ok {
		t.Fatalf("checkpoint %d not in store at ack time (ok=%v err=%v)", id, ok, err)
	}
}

func TestAuthRequired(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for _, token := range []string{"", "tok-wrong"} {
		c := NewClient(ts.URL, token)
		_, err := c.Save(context.Background(), "acme", "r", 0, 0, []byte("x"))
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusUnauthorized || ae.Code != "unauthorized" {
			t.Fatalf("token %q: err = %v, want 401 unauthorized", token, err)
		}
	}
	if got := srv.Metrics().Counter("ndpcr_gateway_auth_failures_total", "").Value(); got != 2 {
		t.Fatalf("auth_failures_total = %d, want 2", got)
	}
}

func TestNamespaceForbidden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	_, err := c.Save(context.Background(), "umbra", "r", 0, 0, []byte("x"))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusForbidden || ae.Code != "namespace_forbidden" {
		t.Fatalf("err = %v, want 403 namespace_forbidden", err)
	}
}

func TestQuotaBytesRejected(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Tenants = []Tenant{{Name: "acme", Token: "tok-acme", Quota: Quota{MaxBytes: 100}}}
	})
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	if _, err := c.Save(ctx, "acme", "r", 0, 0, bytes.Repeat([]byte("a"), 80)); err != nil {
		t.Fatalf("first save within quota: %v", err)
	}
	_, err := c.Save(ctx, "acme", "r", 0, 1, bytes.Repeat([]byte("b"), 80))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusForbidden || ae.Code != "quota_bytes" {
		t.Fatalf("err = %v, want 403 quota_bytes", err)
	}
	if got := srv.Metrics().Counter(`ndpcr_gateway_quota_rejections_total{kind="bytes"}`, "").Value(); got != 1 {
		t.Fatalf("quota_rejections_total{bytes} = %d, want 1", got)
	}
	// Deleting returns the quota: the rejected save now fits.
	if err := c.Delete(ctx, "acme", "r", 0, 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Save(ctx, "acme", "r", 0, 1, bytes.Repeat([]byte("b"), 80)); err != nil {
		t.Fatalf("save after delete should fit again: %v", err)
	}
}

func TestQuotaCheckpointsRejected(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Tenants = []Tenant{{Name: "acme", Token: "tok-acme", Quota: Quota{MaxCheckpoints: 2}}}
	})
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	for step := 0; step < 2; step++ {
		if _, err := c.Save(ctx, "acme", "r", 0, step, []byte("x")); err != nil {
			t.Fatalf("save %d: %v", step, err)
		}
	}
	_, err := c.Save(ctx, "acme", "r", 0, 2, []byte("x"))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "quota_checkpoints" {
		t.Fatalf("err = %v, want quota_checkpoints", err)
	}
}

func TestRateLimited(t *testing.T) {
	base := time.Unix(1700000000, 0)
	clock := base
	srv, ts := newTestServer(t, func(c *Config) {
		c.Tenants = []Tenant{{Name: "acme", Token: "tok-acme", Rate: Rate{PerSec: 1, Burst: 2}}}
		c.Now = func() time.Time { return clock }
	})
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.List(ctx, "acme", "r", 0); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	_, err := c.List(ctx, "acme", "r", 0)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != "rate_limited" {
		t.Fatalf("err = %v, want 429 rate_limited", err)
	}
	if got := srv.Metrics().Counter("ndpcr_gateway_rate_limit_rejections_total", "").Value(); got != 1 {
		t.Fatalf("rate_limit_rejections_total = %d, want 1", got)
	}
	// The bucket refills with time.
	clock = base.Add(3 * time.Second)
	if _, err := c.List(ctx, "acme", "r", 0); err != nil {
		t.Fatalf("request after refill: %v", err)
	}
}

// TestDefaultBurstRoundsPerSecUp: an unset Burst is max(1, ceil(PerSec)).
func TestDefaultBurstRoundsPerSecUp(t *testing.T) {
	for _, tc := range []struct {
		perSec float64
		want   int
	}{{0.5, 1}, {2.5, 3}, {5, 5}} {
		st := newTenantState(Tenant{Name: "acme", Token: "tok-acme", Rate: Rate{PerSec: tc.perSec}}, time.Time{})
		if st.Rate.Burst != tc.want {
			t.Errorf("PerSec %g: default burst %d, want %d", tc.perSec, st.Rate.Burst, tc.want)
		}
	}
}

func TestNotFoundAndBadRequest(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()

	_, err := c.Load(ctx, "acme", "r", 0, 42)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("load missing: err = %v, want 404", err)
	}
	_, err = c.Resume(ctx, "acme", "r", 0, 0)
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("resume empty run: err = %v, want 404", err)
	}
	_, err = c.Save(ctx, "acme", "r", 0, 0, nil)
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("empty save: err = %v, want 400", err)
	}
	// A bad checkpoint ID; bad wait= and timeout= values on a rank no
	// session holds, refused as on one a session holds.
	for _, target := range []string{
		"/checkpoints/zero?rank=0",
		"/checkpoints/1/durability?rank=0&wait=bogus",
		"/checkpoints/1/durability?rank=0&wait=store&timeout=-1s",
		"/checkpoints/1/durability?rank=0&timeout=soon",
	} {
		resp, derr := c.do(ctx, http.MethodGet, "acme", "r", target, nil)
		if derr == nil {
			resp.Body.Close()
		}
		if !errors.As(derr, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("GET %s: err = %v, want 400", target, derr)
		}
	}
}

func TestResumeRestartLineAcrossRanks(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()

	// Rank 0 reaches checkpoint 3; rank 1 only 2: the newest line common
	// to both is 2.
	for rank, steps := range map[int]int{0: 3, 1: 2} {
		for step := 1; step <= steps; step++ {
			payload := []byte(fmt.Sprintf("rank%d-step%d", rank, step))
			if _, err := c.Save(ctx, "acme", "mpi", rank, step, payload); err != nil {
				t.Fatalf("save rank %d step %d: %v", rank, step, err)
			}
		}
	}
	for rank := 0; rank < 2; rank++ {
		cp, err := c.Resume(ctx, "acme", "mpi", rank, 2)
		if err != nil {
			t.Fatalf("resume rank %d: %v", rank, err)
		}
		if cp.ID != 2 {
			t.Fatalf("rank %d resumed checkpoint %d, want restart line 2", rank, cp.ID)
		}
		want := fmt.Sprintf("rank%d-step2", rank)
		if string(cp.Data) != want {
			t.Fatalf("rank %d resumed %q, want %q", rank, cp.Data, want)
		}
	}
}

func TestSessionResyncAfterGatewayRestart(t *testing.T) {
	store := iostore.New(nvm.Pacer{})
	_, ts := newTestServer(t, func(c *Config) { c.Store = store })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	for step := 1; step <= 3; step++ {
		if _, err := c.Save(ctx, "acme", "r", 0, step, []byte("x")); err != nil {
			t.Fatalf("save %d: %v", step, err)
		}
	}
	ts.Close()

	// A second gateway over the same store must append, not overwrite.
	_, ts2 := newTestServer(t, func(c *Config) { c.Store = store })
	c2 := NewClient(ts2.URL, "tok-acme")
	id, err := c2.Save(ctx, "acme", "r", 0, 4, []byte("y"))
	if err != nil {
		t.Fatalf("save on restarted gateway: %v", err)
	}
	if id != 4 {
		t.Fatalf("restarted gateway assigned id %d, want 4 (resume after 3)", id)
	}
}

func TestGracefulShutdownDrainsAndRejects(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	if _, err := c.Save(ctx, "acme", "r", 0, 0, []byte("x")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	_, err := c.List(ctx, "acme", "r", 0)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != "shutting_down" {
		t.Fatalf("request after shutdown: err = %v, want 503 shutting_down", err)
	}
}

func TestInjectedFault(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Injector = faultinject.New(1, faultinject.Rule{
			Site: faultinject.SiteGatewayFront, Rank: faultinject.AnyRank, Count: 1,
		})
	})
	c := NewClient(ts.URL, "tok-acme")
	_, err := c.List(context.Background(), "acme", "r", 0)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "injected_fault" {
		t.Fatalf("err = %v, want injected_fault", err)
	}
	if got := srv.Metrics().Counter("ndpcr_gateway_faults_injected_total", "").Value(); got != 1 {
		t.Fatalf("faults_injected_total = %d, want 1", got)
	}
	// The schedule fired once; the next request sails through.
	if _, err := c.List(context.Background(), "acme", "r", 0); err != nil {
		t.Fatalf("request after fault: %v", err)
	}
}

// TestNewRejectsFaultSitesItNeverInjects: the gateway injects only at
// gateway.handler, so a schedule with a rule at any other site is refused
// by name instead of being accepted and never firing.
func TestNewRejectsFaultSitesItNeverInjects(t *testing.T) {
	_, err := New(Config{
		Store:    iostore.New(nvm.Pacer{}),
		Tenants:  testTenants(),
		Injector: faultinject.New(1, faultinject.Rule{Site: faultinject.SiteStoreGet, Rank: faultinject.AnyRank, Prob: 0.1}),
	})
	if err == nil || !strings.Contains(err.Error(), faultinject.SiteStoreGet) {
		t.Fatalf("New with a %s rule: err = %v, want one naming the site", faultinject.SiteStoreGet, err)
	}
}

func TestLoadTenantsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tokens.json")
	good := `[
		{"name": "acme", "token": "t1", "quota": {"max_bytes": 1048576}, "rate": {"per_sec": 100}},
		{"name": "umbra", "token": "t2", "namespaces": ["umbra", "shared"]}
	]`
	if err := os.WriteFile(path, []byte(good), 0o600); err != nil {
		t.Fatal(err)
	}
	tenants, err := LoadTenants(path)
	if err != nil {
		t.Fatalf("LoadTenants: %v", err)
	}
	if len(tenants) != 2 || tenants[0].Quota.MaxBytes != 1048576 || len(tenants[1].Namespaces) != 2 {
		t.Fatalf("tenants = %+v", tenants)
	}

	for name, bad := range map[string]string{
		"dup-token": `[{"name":"a","token":"t"},{"name":"b","token":"t"}]`,
		"dup-name":  `[{"name":"a","token":"t1"},{"name":"a","token":"t2"}]`,
		"no-token":  `[{"name":"a"}]`,
		"empty":     `[]`,
		"not-json":  `{`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTenants(path); err == nil {
			t.Fatalf("%s: accepted invalid token file", name)
		}
	}
}

// TestValidateTenantsRefusesNegativeLimits: every quota and rate check is
// "> 0 limits", so a negative field would silently mean unlimited. Each is
// refused with an error naming the tenant and the field; drain_weight's
// "<= 0 means 1" stays accepted.
func TestValidateTenantsRefusesNegativeLimits(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Tenant)
	}{
		{"max_bytes", func(t *Tenant) { t.Quota.MaxBytes = -1 }},
		{"max_checkpoints", func(t *Tenant) { t.Quota.MaxCheckpoints = -1 }},
		{"max_in_flight", func(t *Tenant) { t.Quota.MaxInFlight = -1 }},
		{"per_sec", func(t *Tenant) { t.Rate.PerSec = -0.5 }},
		{"per_sec", func(t *Tenant) { t.Rate.PerSec = math.NaN() }},
		{"burst", func(t *Tenant) { t.Rate.Burst = -1 }},
	} {
		tenants := []Tenant{{Name: "acme", Token: "t1"}, {Name: "umbra", Token: "t2"}}
		c.set(&tenants[1])
		err := ValidateTenants(tenants)
		if err == nil || !strings.Contains(err.Error(), `"umbra"`) || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want one naming tenant \"umbra\" and the field", c.field, err)
		}
	}
	ok := []Tenant{{Name: "acme", Token: "t1", DrainWeight: -2,
		Quota: Quota{MaxBytes: 0, MaxCheckpoints: 3}, Rate: Rate{PerSec: 0, Burst: 0}}}
	if err := ValidateTenants(ok); err != nil {
		t.Errorf("zero limits and a negative drain weight refused: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	if _, err := c.Save(context.Background(), "acme", "r", 0, 0, []byte("x")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{"ndpcr_gateway_requests_total", "ndpcr_gateway_request_seconds"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("/metrics missing %s; got:\n%s", want, buf.String())
		}
	}
}

// TestMetricsCarryNoPerSessionWatermark: every session's node reports into
// the gateway's one registry, so a per-node durability watermark there could
// only be one session's — the first ever created — and is no series at all.
// The per-checkpoint durability endpoint is where a watermark is read.
func TestMetricsCarryNoPerSessionWatermark(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	if _, err := c.Save(ctx, "acme", "first", 0, 0, []byte("x")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var last uint64
	for step := 0; step < 3; step++ {
		id, err := c.Save(ctx, "acme", "second", 0, step, []byte("y"))
		if err != nil {
			t.Fatalf("Save: %v", err)
		}
		last = id
	}
	if d, err := c.Durability(ctx, "acme", "second", 0, last, ""); err != nil || !d.Durable("store") {
		t.Fatalf("second session's checkpoint %d: durability %+v, err %v; want store", last, d, err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if bytes.Contains(buf.Bytes(), []byte("ndpcr_node_durable_level")) {
		t.Errorf("/metrics carries a per-session durability watermark:\n%s", buf.String())
	}
}
