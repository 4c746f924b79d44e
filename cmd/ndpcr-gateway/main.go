// Command ndpcr-gateway serves the multi-tenant checkpoint-as-a-service
// API over the NDP stack: tenants save, list, load, delete, and resume
// checkpoints through HTTP/JSON while the gateway drives the node → NDP →
// store pipeline underneath — typically against a sharded, replicated
// ndpcr-iod tier.
//
//	ndpcr-gateway -listen :9600 -token-file tokens.json \
//	    -iod-addrs 127.0.0.1:9400,127.0.0.1:9401,127.0.0.1:9402
//
// The token file is a JSON array of tenants:
//
//	[{"name": "acme", "token": "s3cret",
//	  "quota": {"max_bytes": 1073741824, "max_checkpoints": 64, "max_in_flight": 8},
//	  "rate": {"per_sec": 50, "burst": 100}}]
//
// SIGINT/SIGTERM stop the listener, drain in-flight requests (bounded by
// -shutdown-timeout), close the session runtimes, and exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/faultinject"
	"ndpcr/internal/gateway"
	"ndpcr/internal/iod"
	"ndpcr/internal/lifecycle"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9600", "address to serve the API on")
		tokenFile = flag.String("token-file", "", "JSON tenant/token file (required)")
		iodAddrs  = flag.String("iod-addrs", "", "comma-separated ndpcr-iod addresses: store checkpoints in the sharded, replicated tier")
		iodAddr   = flag.String("iod", "", "single ndpcr-iod address (unsharded remote store)")
		replicas  = flag.Int("replicas", 2, "replica count R per checkpoint object across -iod-addrs backends")
		iodLanes  = flag.Int("iod-lanes", 2, "TCP connections to each remote I/O node (each carries up to 16 exchanges at once)")
		codecID   = flag.String("codec", "gzip", "drain compression codec name (empty = none)")
		level     = flag.Int("level", 1, "codec level")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "how long a save may wait for its drain to reach the store")
		asyncTO   = flag.Duration("async-drain-timeout", 0, "background store-drain bound for saves acked at NVM durability, ?durable=nvm (0 = 4x -drain-timeout)")
		drSlots   = flag.Int("drain-slots", 0, "concurrent NDP drain slots shared across sessions, QoS-weighted by tenant drain_weight (0 = ungated)")
		shutTO    = flag.Duration("shutdown-timeout", 20*time.Second, "how long shutdown waits for in-flight requests to drain")
		sessNVM   = flag.Int64("session-nvm", 0, "per-session NVM region bytes (0 = default)")
		faults    = flag.String("faults", "", "fault schedule, e.g. \"gateway.handler,p=0.01,mode=err\"")
		faultSeed = flag.Uint64("fault-seed", 1, "fault schedule seed")
		adminAddr = flag.String("admin-listen", "", "serve shard-tier membership admin endpoints on this address (requires -iod-addrs; keep off the tenant-facing network)")
	)
	flag.Parse()

	if *tokenFile == "" {
		fatal(fmt.Errorf("-token-file is required"))
	}
	tenants, err := gateway.LoadTenants(*tokenFile)
	if err != nil {
		fatal(err)
	}

	var codec compress.Codec
	if *codecID != "" {
		if codec, err = compress.Lookup(*codecID, *level); err != nil {
			fatal(err)
		}
	}

	var injector *faultinject.Injector
	if *faults != "" {
		if injector, err = faultinject.Parse(*faultSeed, *faults); err != nil {
			fatal(err)
		}
	}

	var store iostore.Backend = iostore.New(nvm.Pacer{})
	var shard *shardstore.Store
	switch {
	case *iodAddrs != "":
		addrs := strings.Split(*iodAddrs, ",")
		shard, err = shardstore.Dial(addrs, *iodLanes, shardstore.Config{Replicas: *replicas})
		if err != nil {
			fatal(err)
		}
		defer shard.Close()
		store = shard
		fmt.Printf("ndpcr-gateway: storing through the shard tier: %d backend(s), %d replica(s)\n",
			len(addrs), *replicas)
	case *iodAddr != "":
		client, err := iod.DialPool(*iodAddr, *iodLanes)
		if err != nil {
			fatal(err)
		}
		defer client.Close()
		store = client
		fmt.Printf("ndpcr-gateway: storing to remote I/O node at %s\n", *iodAddr)
	default:
		fmt.Println("ndpcr-gateway: WARNING: no -iod-addrs/-iod given; using a volatile in-process store")
	}

	reg := metrics.NewRegistry()
	gw, err := gateway.New(gateway.Config{
		Store:             store,
		Tenants:           tenants,
		Codec:             codec,
		DrainTimeout:      *drainTO,
		AsyncDrainTimeout: *asyncTO,
		DrainSlots:        *drSlots,
		SessionNVM:        *sessNVM,
		Injector:          injector,
		Metrics:           reg,
	})
	if err != nil {
		fatal(err)
	}

	var admin *http.Server
	if *adminAddr != "" {
		if shard == nil {
			fatal(fmt.Errorf("-admin-listen requires the shard tier (-iod-addrs)"))
		}
		admin = &http.Server{Addr: *adminAddr, Handler: adminMux(shard)}
		go func() {
			if err := admin.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "ndpcr-gateway: admin listener: %v\n", err)
			}
		}()
		fmt.Printf("ndpcr-gateway: shard membership admin on http://%s/admin/shard/\n", *adminAddr)
	}

	hs := &http.Server{Addr: *listen, Handler: gw}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	fmt.Printf("ndpcr-gateway: serving %d tenant(s) on http://%s (API under /v1, metrics at /metrics)\n",
		len(tenants), *listen)

	ctx, stop := lifecycle.SignalContext(context.Background())
	defer stop()
	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Println("\nndpcr-gateway: draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), *shutTO)
	defer cancel()
	// Stop the listener first (no new requests), then drain the gateway's
	// accepted work and close the session runtimes.
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "ndpcr-gateway: http shutdown: %v\n", err)
	}
	if admin != nil {
		if err := admin.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "ndpcr-gateway: admin shutdown: %v\n", err)
		}
	}
	if err := gw.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "ndpcr-gateway: drain incomplete: %v\n", err)
	}
	fmt.Println("ndpcr-gateway: final metrics:")
	reg.Dump(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ndpcr-gateway: %v\n", err)
	os.Exit(1)
}
