package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/gateway"
	"ndpcr/internal/iod"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

const (
	numBackends = 3
	replicas    = 2
	iodLanes    = 4
	tenantToken = "bench-token"
	namespace   = "bench"
)

// stack is the system under test, the same for every workload: a save
// gateway and a restore gateway (the restart case: the saving node and its
// NVM are gone) behind real loopback HTTP listeners, both over one
// shardstore of three iod servers on loopback TCP, each with its own
// in-memory backing store. rec is nil in an untraced run, and then no
// timing wrapper is interposed anywhere.
type stack struct {
	backings []*iostore.Store
	servers  []*iod.Server
	shard    *shardstore.Store
	reg      *metrics.Registry // both gateways, the shard tier and the iod clients report here
	rec      *recorder
	slept    atomic.Int64 // paced sleep asked for, ns

	saveGW, restoreGW     *gateway.Server
	saveHTTP, restoreHTTP *http.Server
	saveURL, restoreURL   string
}

func newStack(w workload, traced bool, sleep func(time.Duration)) (_ *stack, err error) {
	st := &stack{reg: metrics.NewRegistry()}
	if traced {
		st.rec = newRecorder()
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()

	members := make([]shardstore.Member, 0, numBackends)
	for i := 0; i < numBackends; i++ {
		backing := iostore.New(nvm.Pacer{})
		st.backings = append(st.backings, backing)
		var served iostore.Backend = backing
		if w.pace > 0 {
			served = &pacedBackend{Backend: served, perBlock: w.pace, sleep: sleep, slept: &st.slept}
		}
		if traced {
			served = &tracedBackend{next: served, rec: st.rec, layer: layerIostore, backend: i}
		}
		srv, err := iod.NewServer(served)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.servers = append(st.servers, srv)
		go srv.Serve(ln) // returns nil once Close closes the listener

		client, err := iod.DialPool(ln.Addr().String(), iodLanes)
		if err != nil {
			return nil, err
		}
		client.Instrument(st.reg)
		var member iostore.Backend = client
		if traced {
			member = &tracedBackend{next: member, rec: st.rec, layer: layerIod, backend: i}
		}
		// A fixed name, not the ephemeral address: the name seeds placement,
		// and placement must not change from run to run.
		members = append(members, shardstore.Member{
			Name: fmt.Sprintf("iod-%d", i), Store: member, Close: client.Close,
		})
	}
	// Probe < 0: no time-triggered background work during a measurement.
	st.shard, err = shardstore.New(members, shardstore.Config{Replicas: replicas, Probe: -1})
	if err != nil {
		for _, m := range members {
			m.Close()
		}
		return nil, err
	}
	st.shard.Instrument(st.reg)

	cfg := gateway.Config{
		// Only the Backend methods: every new session's node.New re-runs
		// Instrument on a store that has it, and shardstore's Instrument
		// rewrites counter fields that in-flight writes of other sessions
		// read (go test -race shows it on svc_async_small without this
		// mask). The tier is instrumented once, above, before any traffic.
		Store:     struct{ iostore.Backend }{st.shard},
		Tenants:   []gateway.Tenant{{Name: namespace, Token: tenantToken}},
		BlockSize: w.block,
		Metrics:   st.reg,
	}
	if traced {
		cfg.Store = &tracedBackend{next: st.shard, rec: st.rec, layer: layerShard, backend: -1}
	}
	if w.gzip {
		if traced {
			cfg.Codec, err = tracedGzip(st.rec)
		} else {
			cfg.Codec, err = compress.Lookup("gzip", 1)
		}
		if err != nil {
			return nil, err
		}
	}
	if st.saveGW, st.saveHTTP, st.saveURL, err = st.serveGateway(cfg); err != nil {
		return nil, err
	}
	if st.restoreGW, st.restoreHTTP, st.restoreURL, err = st.serveGateway(cfg); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *stack) serveGateway(cfg gateway.Config) (*gateway.Server, *http.Server, string, error) {
	gw, err := gateway.New(cfg)
	if err != nil {
		return nil, nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	var handler http.Handler = gw
	if st.rec != nil {
		handler = &tracedHandler{next: gw, rec: st.rec}
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	return gw, srv, "http://" + ln.Addr().String(), nil
}

// close tears the stack down front to back and waits for every goroutine
// the servers own. It is safe on a partly built stack.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, srv := range []*http.Server{st.saveHTTP, st.restoreHTTP} {
		if srv != nil {
			srv.Shutdown(ctx)
		}
	}
	for _, gw := range []*gateway.Server{st.saveGW, st.restoreGW} {
		if gw != nil {
			gw.Shutdown(ctx)
		}
	}
	if st.shard != nil {
		st.shard.Close()
	}
	for _, srv := range st.servers {
		srv.Close()
	}
	// gateway.Client rides http.DefaultTransport, which would keep idle
	// connections to the closed listeners.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// storedBytes sums what the backing stores hold for the given keys, over
// all replicas.
func (st *stack) storedBytes(keys []iostore.Key) (int64, error) {
	var total int64
	for _, b := range st.backings {
		for _, key := range keys {
			// Get on the raw in-memory store returns the blocks without
			// copying them.
			o, err := b.Get(context.Background(), key)
			if errors.Is(err, iostore.ErrNotFound) {
				continue // not one of this key's replicas
			}
			if err != nil {
				return 0, err
			}
			total += o.StoredSize()
		}
	}
	return total, nil
}

// counter reads one series of the stack's registry (registration is
// idempotent, so this is a lookup).
func (st *stack) counter(name string) float64 {
	return float64(st.reg.Counter(name, "").Value())
}
