package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/gateway"
	"ndpcr/internal/metrics"
	"ndpcr/internal/shardstore"
)

// runSwarm drives the gateway tier the way a shared service is actually
// used: N tenants hammering it concurrently, each saving and reading its
// own namespaces over HTTP while the gateway multiplexes them onto one
// sharded, replicated iod tier. Two tenants run with deliberately tight
// limits — one a checkpoint quota it must exhaust, one a rate limit it
// must trip — and the run asserts the service properties the gateway
// exists to provide:
//
//   - zero lost checkpoints: every acknowledged save is listed and loads
//     back byte-identical after the swarm settles;
//   - zero cross-tenant visibility: every probe of a neighbor's namespace
//     is rejected with the typed 403, and no loaded payload carries
//     another tenant's marker;
//   - limits enforced: at least one quota rejection and one rate-limit
//     rejection observed in the gateway's metrics.
func runSwarm() error {
	const (
		backends    = 3
		savesPer    = 4
		quotaTenant = 1 // MaxCheckpoints = savesPer-1: last save must be rejected
		rateTenant  = 2 // PerSec=5, Burst=1: bursts must trip the limiter
	)
	tenants := *flagSwarmTenants
	if *flagQuick && tenants > 8 {
		tenants = 8
	}
	if tenants < 3 {
		return fmt.Errorf("swarm: need at least 3 tenants, got %d", tenants)
	}

	fmt.Printf("swarm: %d concurrent tenants against a gateway over %d iod backends, R=2\n\n", tenants, backends)

	// Live I/O nodes on loopback TCP, fronted by the shard tier.
	servers, addrs, err := startIODs(backends)
	if err != nil {
		return err
	}
	defer closeIODs(servers)
	store, err := shardstore.Dial(addrs, 2, shardstore.Config{Replicas: 2})
	if err != nil {
		return err
	}
	defer store.Close()

	// The tenant roster: everyone unlimited except the two probe tenants.
	roster := make([]gateway.Tenant, tenants)
	for i := range roster {
		roster[i] = gateway.Tenant{
			Name:  fmt.Sprintf("t%03d", i),
			Token: fmt.Sprintf("tok-%03d", i),
		}
	}
	roster[quotaTenant].Quota.MaxCheckpoints = savesPer - 1
	roster[rateTenant].Rate = gateway.Rate{PerSec: 5, Burst: 1}

	gz, _ := compress.Lookup("gzip", 1)
	reg := metrics.NewRegistry()
	gw, err := gateway.New(gateway.Config{
		Store:        store,
		Tenants:      roster,
		Codec:        gz,
		BlockSize:    1 << 14,
		DrainTimeout: 30 * time.Second,
		Metrics:      reg,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: gw}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("  gateway serving on %s\n\n", base)

	payload := func(tenant string, step int) []byte {
		return []byte(fmt.Sprintf("owner=%s step=%d secret-state-of-%s", tenant, step, tenant))
	}

	type tenantResult struct {
		saved        []uint64 // acknowledged checkpoint IDs
		quotaRejects int
		rateRejects  int
		probeLeaks   int // neighbor namespace reads NOT rejected with 403
		err          error
	}
	results := make([]tenantResult, tenants)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			name := roster[i].Name
			c := gateway.NewClient(base, roster[i].Token)
			for step := 1; step <= savesPer; step++ {
				for {
					id, err := c.Save(ctx, name, "swarmrun", 0, step, payload(name, step))
					var ae *gateway.APIError
					switch {
					case err == nil:
						res.saved = append(res.saved, id)
					case errors.As(err, &ae) && ae.Code == "rate_limited":
						res.rateRejects++
						time.Sleep(250 * time.Millisecond)
						continue // retry: rate-limited work is delayed, not lost
					case errors.As(err, &ae) && ae.Code == "quota_checkpoints":
						res.quotaRejects++
					default:
						res.err = fmt.Errorf("tenant %s save step %d: %w", name, step, err)
						return
					}
					break
				}
			}
			// Probe the neighbor's namespace: every op must 403.
			neighbor := roster[(i+1)%tenants].Name
			if _, err := c.List(ctx, neighbor, "swarmrun", 0); !isForbidden(err) {
				res.probeLeaks++
			}
			if _, err := c.Load(ctx, neighbor, "swarmrun", 0, 1); !isForbidden(err) {
				res.probeLeaks++
			}
		}(i)
	}
	wg.Wait()

	// Settle, then audit: every acknowledged save must list and load back
	// byte-identical, owned payloads only.
	var lost, corrupt, leaks, quotaSeen, rateSeen int
	for i := 0; i < tenants; i++ {
		res := &results[i]
		if res.err != nil {
			return res.err
		}
		quotaSeen += res.quotaRejects
		rateSeen += res.rateRejects
		leaks += res.probeLeaks
		name := roster[i].Name
		c := gateway.NewClient(base, roster[i].Token)
		var listed []uint64
		err := rateRetry(func() error {
			var err error
			listed, err = c.List(ctx, name, "swarmrun", 0)
			return err
		})
		if err != nil {
			return fmt.Errorf("tenant %s final list: %w", name, err)
		}
		have := make(map[uint64]bool, len(listed))
		for _, id := range listed {
			have[id] = true
		}
		for j, id := range res.saved {
			if !have[id] {
				lost++
				fmt.Printf("  LOST: tenant %s acknowledged checkpoint %d missing from list\n", name, id)
				continue
			}
			var cp gateway.Checkpoint
			err := rateRetry(func() error {
				var err error
				cp, err = c.Load(ctx, name, "swarmrun", 0, id)
				return err
			})
			if err != nil {
				lost++
				fmt.Printf("  LOST: tenant %s checkpoint %d unreadable: %v\n", name, id, err)
				continue
			}
			if string(cp.Data) != string(payload(name, j+1)) {
				corrupt++
				fmt.Printf("  CROSS-TENANT/CORRUPT: tenant %s checkpoint %d holds %q\n", name, id, cp.Data)
			}
		}
	}

	fmt.Printf("  tenants: %d   acknowledged saves audited: %d\n", tenants, tenants*savesPer-results[quotaTenant].quotaRejects)
	fmt.Printf("  lost checkpoints: %d\n", lost)
	fmt.Printf("  corrupt/cross-tenant payloads: %d\n", corrupt)
	fmt.Printf("  namespace probe leaks: %d\n", leaks)
	fmt.Printf("  quota rejections observed by clients: %d\n", quotaSeen)
	fmt.Printf("  rate-limit rejections observed by clients: %d\n", rateSeen)

	// The gateway's own counters must agree with the client-side view.
	mQuota := reg.Counter(`ndpcr_gateway_quota_rejections_total{kind="checkpoints"}`, "").Value()
	mRate := reg.Counter("ndpcr_gateway_rate_limit_rejections_total", "").Value()
	fmt.Printf("  gateway metrics: quota rejections %d, rate-limit rejections %d\n", mQuota, mRate)

	// Orderly shutdown: stop the listener, drain, close sessions.
	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	hs.Shutdown(shutCtx)
	if err := gw.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("swarm: gateway shutdown: %w", err)
	}

	switch {
	case lost != 0:
		return fmt.Errorf("swarm: %d acknowledged checkpoints lost", lost)
	case corrupt != 0:
		return fmt.Errorf("swarm: %d payloads corrupt or cross-tenant", corrupt)
	case leaks != 0:
		return fmt.Errorf("swarm: %d namespace probes were not rejected", leaks)
	case quotaSeen == 0 || mQuota == 0:
		return fmt.Errorf("swarm: expected at least one quota rejection (clients saw %d, metrics %d)", quotaSeen, mQuota)
	case rateSeen == 0 || mRate == 0:
		return fmt.Errorf("swarm: expected at least one rate-limit rejection (clients saw %d, metrics %d)", rateSeen, mRate)
	}

	fmt.Println("\n--- gateway metrics ---")
	if err := reg.Dump(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nOK: swarm completed with zero lost and zero cross-tenant-visible checkpoints")
	return nil
}

func isForbidden(err error) bool {
	var ae *gateway.APIError
	return errors.As(err, &ae) && ae.Status == http.StatusForbidden
}

// rateRetry retries fn while it fails with the typed 429: the audit phase
// must not let a tenant's own rate limit masquerade as data loss.
func rateRetry(fn func() error) error {
	for {
		err := fn()
		var ae *gateway.APIError
		if errors.As(err, &ae) && ae.Code == "rate_limited" {
			time.Sleep(250 * time.Millisecond)
			continue
		}
		return err
	}
}
