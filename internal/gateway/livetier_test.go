package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/iod"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

// liveTier boots three in-memory iod servers on loopback TCP, closed when
// the test ends.
func liveTier(t *testing.T) ([]*iod.Server, []string) {
	t.Helper()
	var servers []*iod.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := iod.NewServer(iostore.New(nvm.Pacer{}))
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		addrs = append(addrs, l.Addr().String())
	}
	return servers, addrs
}

// dialTier is a shard client over addrs placing every object on R = 2 of
// them, with no repair loop, closed when the test ends.
func dialTier(t *testing.T, addrs []string) *shardstore.Store {
	t.Helper()
	tier, err := shardstore.Dial(addrs, 1, shardstore.Config{Replicas: 2, Probe: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	return tier
}

// TestAsyncAcksSurviveBackendDeath: a gateway over the live tier acks four
// saves on one session at NVM durability, and one server dies right after
// the third ack, while acked checkpoints are still draining. Every
// acked ID must end store-durable and load back byte-identical, or be
// reported failed; at least one must be durable, none may be neither, and
// none reported durable may be rolled back later. The drains run under QoS
// scheduling (two slots, a weight-2 tenant): the
// scheduler's one run against a live tier.
func TestAsyncAcksSurviveBackendDeath(t *testing.T) {
	const saves, killAfter = 4, 3
	servers, addrs := liveTier(t)
	srv, ts := newTestServer(t, func(c *Config) {
		c.Store = dialTier(t, addrs)
		c.Tenants = []Tenant{{Name: "acme", Token: "tok-acme", DrainWeight: 2}}
		c.BlockSize = 16 << 10
		c.DrainTimeout = 5 * time.Second
		c.AsyncDrainTimeout = 30 * time.Second
		c.DrainSlots = 2
	})
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	payload := func(step int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("async step=%d ", step)), 2048)
	}

	var acked []uint64
	for step := 1; step <= saves; step++ {
		id, err := c.SaveAsync(ctx, "acme", "run", 0, step, payload(step))
		if err != nil {
			t.Fatalf("async save %d: %v", step, err)
		}
		acked = append(acked, id)
		if step == killAfter {
			servers[1].Close()
		}
	}

	// Each wait=store poll blocks up to DrainTimeout; the async drain
	// resolves within AsyncDrainTimeout, so the bound only catches an ID
	// that is never resolved.
	audit, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	durable, failed := 0, 0
	for i, id := range acked {
		var d Durability
		for !d.Durable("store") && !d.Failed {
			var err error
			if d, err = c.Durability(audit, "acme", "run", 0, id, "store"); err != nil {
				t.Fatalf("acked checkpoint %d neither store-durable nor reported failed: %v", id, err)
			}
		}
		if d.Failed {
			failed++
			t.Logf("acked checkpoint %d reported failed: %s", id, d.Failure)
			continue
		}
		durable++
		got, err := c.Load(ctx, "acme", "run", 0, id)
		if err != nil {
			t.Fatalf("store-durable checkpoint %d unreadable: %v", id, err)
		}
		if !bytes.Equal(got.Data, payload(i+1)) {
			t.Fatalf("store-durable checkpoint %d loads back different bytes", id)
		}
	}
	if durable == 0 {
		t.Fatal("no acked checkpoint reached store durability")
	}
	// A durable answer is final: once every background drain has resolved,
	// the gateway has rolled back exactly the checkpoints it reported failed.
	if err := srv.Shutdown(audit); err != nil {
		t.Fatalf("shutdown with background drains pending: %v", err)
	}
	if got := srv.Metrics().Counter("ndpcr_gateway_async_failures_total", "").Value(); got != uint64(failed) {
		t.Errorf("gateway rolled back %d async saves, reported %d failed", got, failed)
	}
}

// TestTenantSwarmOverLiveTier: eight tenants save, probe and load at once
// through one gateway over the live tier. One tenant's checkpoint quota is
// one short of its saves; one is rate-limited to a burst of 1, and each 429
// advances the gateway's clock instead of sleeping. Every probe of a
// neighbour's namespace is a 403, every acked save is listed and loads back
// byte-identical, and the quota and rate-limit rejections the clients saw
// are the ones the metrics count.
func TestTenantSwarmOverLiveTier(t *testing.T) {
	const tenants, saves, quotaTenant, rateTenant = 8, 4, 1, 2
	_, addrs := liveTier(t)
	roster := make([]Tenant, tenants)
	for i := range roster {
		roster[i] = Tenant{Name: fmt.Sprintf("t%d", i), Token: fmt.Sprintf("tok-%d", i)}
	}
	roster[quotaTenant].Quota.MaxCheckpoints = saves - 1
	roster[rateTenant].Rate = Rate{PerSec: 5, Burst: 1}
	var clock atomic.Int64 // the gateway's clock, Unix nanoseconds
	clock.Store(time.Unix(1700000000, 0).UnixNano())
	srv, ts := newTestServer(t, func(c *Config) {
		c.Store = dialTier(t, addrs)
		c.Tenants = roster
		c.BlockSize = 16 << 10
		c.Now = func() time.Time { return time.Unix(0, clock.Load()) }
	})
	ctx := context.Background()
	payload := func(tenant string, step int) []byte {
		return []byte(fmt.Sprintf("owner=%s step=%d secret-state-of-%s", tenant, step, tenant))
	}
	var quotaSeen, rateSeen atomic.Uint64
	// limited retries fn while the tenant's rate limit rejects it, moving the
	// clock one second (a full bucket) per rejection.
	limited := func(fn func() error) error {
		for {
			err := fn()
			var ae *APIError
			if !errors.As(err, &ae) || ae.Code != "rate_limited" {
				return err
			}
			rateSeen.Add(1)
			clock.Add(int64(time.Second))
		}
	}
	forbidden := func(err error) bool {
		var ae *APIError
		return errors.As(err, &ae) && ae.Status == http.StatusForbidden && ae.Code == "namespace_forbidden"
	}

	acked := make([][]uint64, tenants)
	var wg sync.WaitGroup
	for i := range roster {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := roster[i].Name
			c := NewClient(ts.URL, roster[i].Token)
			for step := 1; step <= saves; step++ {
				var id uint64
				err := limited(func() (err error) {
					id, err = c.Save(ctx, name, "run", 0, step, payload(name, step))
					return err
				})
				var ae *APIError
				switch {
				case err == nil:
					acked[i] = append(acked[i], id)
				case errors.As(err, &ae) && ae.Code == "quota_checkpoints":
					quotaSeen.Add(1)
				default:
					t.Errorf("tenant %s save %d: %v", name, step, err)
					return
				}
			}
			neighbour := roster[(i+1)%tenants].Name
			if _, err := c.List(ctx, neighbour, "run", 0); !forbidden(err) {
				t.Errorf("tenant %s listed %s's run: err = %v, want 403", name, neighbour, err)
			}
			if _, err := c.Load(ctx, neighbour, "run", 0, 1); !forbidden(err) {
				t.Errorf("tenant %s loaded %s's checkpoint: err = %v, want 403", name, neighbour, err)
			}
		}(i)
	}
	wg.Wait()

	for i, tn := range roster {
		c := NewClient(ts.URL, tn.Token)
		var listed []uint64
		if err := limited(func() (err error) { listed, err = c.List(ctx, tn.Name, "run", 0); return err }); err != nil {
			t.Fatalf("tenant %s list: %v", tn.Name, err)
		}
		for j, id := range acked[i] {
			if !slices.Contains(listed, id) {
				t.Errorf("tenant %s acked checkpoint %d is not listed (%v)", tn.Name, id, listed)
			}
			var cp Checkpoint
			if err := limited(func() (err error) { cp, err = c.Load(ctx, tn.Name, "run", 0, id); return err }); err != nil {
				t.Errorf("tenant %s acked checkpoint %d unreadable: %v", tn.Name, id, err)
			} else if !bytes.Equal(cp.Data, payload(tn.Name, j+1)) {
				t.Errorf("tenant %s checkpoint %d holds %q", tn.Name, id, cp.Data)
			}
		}
	}

	mQuota := srv.Metrics().Counter(`ndpcr_gateway_quota_rejections_total{kind="checkpoints"}`, "").Value()
	mRate := srv.Metrics().Counter("ndpcr_gateway_rate_limit_rejections_total", "").Value()
	if quotaSeen.Load() == 0 || mQuota != quotaSeen.Load() {
		t.Errorf("quota rejections: clients saw %d, metrics count %d; want the same, non-zero", quotaSeen.Load(), mQuota)
	}
	if rateSeen.Load() == 0 || mRate != rateSeen.Load() {
		t.Errorf("rate-limit rejections: clients saw %d, metrics count %d; want the same, non-zero", rateSeen.Load(), mRate)
	}
}
