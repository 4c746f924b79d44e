// Package gateway is the multi-tenant checkpoint-as-a-service front door
// over the NDP stack: an HTTP/JSON API that maps authenticated tenants'
// namespaces and run IDs onto the shardstore keyspace and drives the
// existing node → NDP → store pipeline for every save, load, and resume.
// Tenants get bearer-token identity, byte/checkpoint/in-flight quotas, and
// token-bucket rate limits; the gateway gets request contexts threaded end
// to end (a disconnected client cancels its in-flight drain wait) and a
// graceful shutdown that drains accepted requests before exiting.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"ndpcr/internal/cluster"
	"ndpcr/internal/cluster/elastic"
	"ndpcr/internal/compress"
	"ndpcr/internal/faultinject"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// Config assembles a gateway server.
type Config struct {
	// Store is the backing checkpoint store (required): typically a
	// sharded replicated tier (shardstore.Store), but any
	// iostore.Backend works.
	Store iostore.Backend
	// Tenants is the static principal set (see LoadTenants).
	Tenants []Tenant

	// Codec compresses drained checkpoints; nil drains raw.
	Codec compress.Codec
	// BlockSize is the drain streaming unit (node default when zero).
	BlockSize int
	// SessionNVM sizes each session's local NVM region (node default
	// when zero). It is also the largest snapshot a save accepts.
	SessionNVM int64
	// DrainTimeout bounds how long a save waits for its NDP drain to
	// reach the global store before rolling the checkpoint back
	// (default 30s).
	DrainTimeout time.Duration

	// AsyncDrainTimeout bounds the background store-durability wait for a
	// save acked at NVM durability (?durable=nvm) before it is rolled back
	// and reported failed (default 4×DrainTimeout).
	AsyncDrainTimeout time.Duration
	// DrainSlots bounds how many NDP drains run concurrently across all
	// sessions; tenants share the pool in proportion to their DrainWeight
	// (stride-scheduled, starvation-free). Zero leaves drains ungated.
	DrainSlots int

	// Injector enables fault injection at the gateway.handler site, the
	// only site the gateway injects; New rejects a rule at any other.
	Injector *faultinject.Injector
	// Metrics receives the ndpcr_gateway_* series (and every session
	// node's series); nil creates a private registry.
	Metrics *metrics.Registry
	// Now substitutes the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// Server is the gateway. It implements http.Handler.
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	mux     *http.ServeMux
	now     func() time.Time
	byToken map[string]*tenantState

	sched   *drainScheduler // nil unless DrainSlots > 0
	asyncWG sync.WaitGroup  // background async-save completion waits

	mu       sync.Mutex
	sessions map[sessKey]*node.Node
	// resynced is each session's first checkpoint ID: the store's newest
	// plus one when the session was built. An older ID is one the session's
	// tracker never saw.
	resynced  map[sessKey]uint64
	draining  bool
	active    int
	drainDone chan struct{}

	mAuthFailures     *metrics.Counter
	mRateRejects      *metrics.Counter
	mCanceled         *metrics.Counter
	mFaults           *metrics.Counter
	mInflight         *metrics.Gauge
	mAsyncPending     *metrics.Gauge
	mAsyncFails       *metrics.Counter
	mBackpressure     *metrics.Counter
	mRestoreFallbacks *metrics.Counter
}

type sessKey struct {
	job  string
	rank int
}

// New builds a gateway server over cfg.Store.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("gateway: Config.Store is required")
	}
	if err := ValidateTenants(cfg.Tenants); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	// A rule at any other site would parse and never fire.
	for site := range cfg.Injector.Fired() {
		if site != faultinject.SiteGatewayFront {
			return nil, fmt.Errorf("gateway: fault site %q is never injected here (only %s is)", site, faultinject.SiteGatewayFront)
		}
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.AsyncDrainTimeout <= 0 {
		cfg.AsyncDrainTimeout = 4 * cfg.DrainTimeout
	}
	if cfg.SessionNVM == 0 {
		cfg.SessionNVM = node.DefaultNVMCapacity
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Metrics,
		now:      cfg.Now,
		byToken:  make(map[string]*tenantState, len(cfg.Tenants)),
		sessions: make(map[sessKey]*node.Node),
		resynced: make(map[sessKey]uint64),
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	if s.now == nil {
		s.now = time.Now
	}
	for _, t := range cfg.Tenants {
		st := newTenantState(t, s.now())
		st.mRequests = s.reg.Counter(fmt.Sprintf("ndpcr_gateway_tenant_requests_total{tenant=%q}", t.Name),
			"API requests served, by tenant")
		bytesHelp := "checkpoint payload bytes moved, by tenant and direction"
		st.mBytesIn = s.reg.Counter(fmt.Sprintf("ndpcr_gateway_tenant_bytes_total{tenant=%q,dir=\"in\"}", t.Name), bytesHelp)
		st.mBytesOut = s.reg.Counter(fmt.Sprintf("ndpcr_gateway_tenant_bytes_total{tenant=%q,dir=\"out\"}", t.Name), bytesHelp)
		s.byToken[t.Token] = st
	}
	// Every session node shares the store, so its metrics are registered
	// here, once, before any session writes through it.
	iostore.Instrument(cfg.Store, s.reg)
	s.mAuthFailures = s.reg.Counter("ndpcr_gateway_auth_failures_total",
		"requests rejected for a missing or unknown bearer token")
	s.mRateRejects = s.reg.Counter("ndpcr_gateway_rate_limit_rejections_total",
		"requests rejected by a tenant's token-bucket rate limit")
	s.mCanceled = s.reg.Counter("ndpcr_gateway_canceled_requests_total",
		"requests abandoned because the client disconnected mid-flight")
	s.mFaults = s.reg.Counter("ndpcr_gateway_faults_injected_total",
		"requests failed or delayed by the gateway.handler fault site")
	s.mInflight = s.reg.Gauge("ndpcr_gateway_inflight_requests",
		"requests currently being served")
	s.mAsyncPending = s.reg.Gauge("ndpcr_gateway_async_pending",
		"async-acked saves whose background store drain has not resolved")
	s.mAsyncFails = s.reg.Counter("ndpcr_gateway_async_failures_total",
		"async-acked saves rolled back because the store drain failed or timed out")
	s.mBackpressure = s.reg.Counter("ndpcr_gateway_backpressure_rejections_total",
		"saves rejected because NVM admission control timed out")
	s.mRestoreFallbacks = s.reg.Counter("ndpcr_gateway_restore_fallbacks_total",
		"restart lines abandoned for an older line while serving restore/resume requests")
	if cfg.DrainSlots > 0 {
		s.sched = newDrainScheduler(cfg.DrainSlots)
		s.reg.GaugeFunc("ndpcr_gateway_drain_slots_in_use",
			"NDP drain slots currently held, of the DrainSlots pool",
			func() float64 { return float64(s.sched.InUse()) })
		s.reg.GaugeFunc("ndpcr_gateway_drain_queue_depth",
			"drains parked waiting for a slot under QoS scheduling",
			func() float64 { return float64(s.sched.Queued()) })
	}
	s.reg.GaugeFunc("ndpcr_gateway_sessions",
		"live per-(namespace,run,rank) node sessions", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.sessions))
		})

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ns/{ns}/runs/{run}/checkpoints", s.wrap("save", s.handleSave))
	s.mux.HandleFunc("GET /v1/ns/{ns}/runs/{run}/checkpoints", s.wrap("list", s.handleList))
	s.mux.HandleFunc("GET /v1/ns/{ns}/runs/{run}/checkpoints/{id}", s.wrap("load", s.handleLoad))
	s.mux.HandleFunc("GET /v1/ns/{ns}/runs/{run}/checkpoints/{id}/durability", s.wrap("durability", s.handleDurability))
	s.mux.HandleFunc("DELETE /v1/ns/{ns}/runs/{run}/checkpoints/{id}", s.wrap("delete", s.handleDelete))
	s.mux.HandleFunc("GET /v1/ns/{ns}/runs/{run}/resume", s.wrap("resume", s.handleResume))
	s.mux.HandleFunc("POST /v1/ns/{ns}/runs/{run}/restore", s.wrap("restore", s.handleRestore))
	s.mux.Handle("GET /metrics", metrics.Handler(s.reg))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return s, nil
}

// Metrics returns the registry the gateway (and its sessions) report into.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError is a typed request failure: an HTTP status plus a stable
// machine-readable code and a human message.
type apiError struct {
	status int
	code   string
	msg    string
}

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// wrap is the common front half of every API handler: shutdown gating,
// bearer-token auth, namespace authorization, rate limiting, in-flight
// caps, fault injection, metrics, and the settled header answering a
// request's awaitHeader. Handlers behind it only do the operation.
func (s *Server) wrap(op string, fn func(w http.ResponseWriter, r *http.Request, st *tenantState) *apiError) http.HandlerFunc {
	mReqs := s.reg.Counter(fmt.Sprintf("ndpcr_gateway_requests_total{op=%q}", op),
		"API requests served, by operation")
	mSecs := s.reg.Histogram(fmt.Sprintf("ndpcr_gateway_request_seconds{op=%q}", op),
		"API request latency, by operation", metrics.UnitSeconds)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		mReqs.Inc()
		s.mInflight.Inc()
		defer s.mInflight.Dec()
		defer mSecs.ObserveSince(start)

		if !s.enterRequest() {
			s.fail(w, errf(http.StatusServiceUnavailable, "shutting_down", "gateway is draining for shutdown"))
			return
		}
		defer s.leaveRequest()

		st, aerr := s.authenticate(r)
		if aerr != nil {
			s.mAuthFailures.Inc()
			s.fail(w, aerr)
			return
		}
		st.mRequests.Inc()

		if ns := r.PathValue("ns"); !st.allowed[ns] {
			s.fail(w, errf(http.StatusForbidden, "namespace_forbidden",
				"tenant %q may not access namespace %q", st.Name, ns))
			return
		}
		if !st.takeToken(s.now()) {
			s.mRateRejects.Inc()
			s.fail(w, errf(http.StatusTooManyRequests, "rate_limited",
				"tenant %q exceeded %g requests/s", st.Name, st.Rate.PerSec))
			return
		}
		if !st.beginRequest() {
			s.quotaReject("inflight")
			s.fail(w, errf(http.StatusTooManyRequests, "inflight_limit",
				"tenant %q has %d requests in flight (limit)", st.Name, st.Quota.MaxInFlight))
			return
		}
		defer st.endRequest()

		if d, ok := s.cfg.Injector.Decide(faultinject.SiteGatewayFront, faultinject.AnyRank); ok {
			s.mFaults.Inc()
			if d.Mode == faultinject.ModeStall {
				s.cfg.Injector.StallCtx(r.Context(), d)
			} else {
				s.fail(w, errf(http.StatusInternalServerError, "injected_fault",
					"injected %s fault at gateway.handler", d.Mode))
				return
			}
		}

		if v := r.Header[awaitHeader]; len(v) > 0 {
			if settled := s.settled(r.PathValue("ns"), r.PathValue("run"), v[0]); settled != "" {
				w.Header()[settledHeader] = []string{settled}
			}
		}
		if err := fn(w, r, st); err != nil {
			if r.Context().Err() != nil {
				s.mCanceled.Inc()
			}
			s.fail(w, err)
		}
	}
}

// fail writes an apiError response and counts it by code.
func (s *Server) fail(w http.ResponseWriter, e *apiError) {
	s.countError(e.code)
	writeJSON(w, e.status, map[string]string{"error": e.code, "message": e.msg})
}

func (s *Server) countError(code string) {
	s.reg.Counter(fmt.Sprintf("ndpcr_gateway_request_errors_total{code=%q}", code),
		"API requests rejected or failed, by error code").Inc()
}

// quotaReject counts one quota rejection of the given kind.
func (s *Server) quotaReject(kind string) {
	s.reg.Counter(fmt.Sprintf("ndpcr_gateway_quota_rejections_total{kind=%q}", kind),
		"requests rejected by a tenant quota, by exhausted dimension").Inc()
}

func (s *Server) authenticate(r *http.Request) (*tenantState, *apiError) {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || auth[:len(prefix)] != prefix {
		return nil, errf(http.StatusUnauthorized, "unauthorized", "missing bearer token")
	}
	st, ok := s.byToken[auth[len(prefix):]]
	if !ok {
		return nil, errf(http.StatusUnauthorized, "unauthorized", "unknown bearer token")
	}
	return st, nil
}

// enterRequest admits a request unless the gateway is draining.
func (s *Server) enterRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

func (s *Server) leaveRequest() {
	s.mu.Lock()
	s.active--
	if s.draining && s.active == 0 && s.drainDone != nil {
		close(s.drainDone)
		s.drainDone = nil
	}
	s.mu.Unlock()
}

// Shutdown stops admitting requests, waits (bounded by ctx) for the
// in-flight ones to finish and for async-acked saves to resolve, then
// closes every session node. It returns ctx's error when the drain did not
// finish in time; sessions are closed either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var done chan struct{}
	if s.active > 0 {
		if s.drainDone == nil {
			s.drainDone = make(chan struct{})
		}
		done = s.drainDone
	}
	s.mu.Unlock()

	var err error
	if done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	// Async-acked saves still propagating: give their background waits the
	// remaining budget before tearing sessions down. Closing a node stops
	// its engine, which resolves any stragglers through ndp.ErrStopped.
	asyncDone := make(chan struct{})
	go func() {
		s.asyncWG.Wait()
		close(asyncDone)
	}()
	select {
	case <-asyncDone:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	sessions := s.sessions
	s.sessions = make(map[sessKey]*node.Node)
	s.resynced = make(map[sessKey]uint64)
	s.mu.Unlock()
	for _, n := range sessions {
		n.Close()
	}
	return err
}

// session returns (creating if needed) the node runtime serving one
// (namespace, run, rank). A fresh session resynchronizes its checkpoint
// counter from the store's newest ID, so a restarted gateway appends to a
// run instead of overwriting it. Under QoS scheduling the session's drains
// are gated on the creating tenant's weight (a namespace shared across
// tenants drains at its first user's weight — a deliberate simplification).
func (s *Server) session(ctx context.Context, job string, rank int, st *tenantState) (*node.Node, error) {
	key := sessKey{job: job, rank: rank}
	s.mu.Lock()
	if n, ok := s.sessions[key]; ok {
		s.mu.Unlock()
		return n, nil
	}
	s.mu.Unlock()

	var gate func(ctx context.Context) (func(), error)
	if s.sched != nil {
		tenant, weight := st.Name, st.DrainWeight
		gate = func(ctx context.Context) (func(), error) {
			return s.sched.Acquire(ctx, tenant, weight)
		}
	}
	// Build outside the lock: node.New allocates NVM and spins up the NDP
	// engine. A racing builder for the same key loses and closes its copy.
	n, err := node.New(node.Config{
		Job:         job,
		Rank:        rank,
		Store:       s.cfg.Store,
		Codec:       s.cfg.Codec,
		BlockSize:   s.cfg.BlockSize,
		NVMCapacity: s.cfg.SessionNVM,
		Metrics:     s.reg,
		DrainGate:   gate,
	})
	if err != nil {
		return nil, err
	}
	if latest, ok, err := s.cfg.Store.Latest(ctx, job, rank); err != nil {
		n.Close()
		return nil, fmt.Errorf("resync from store: %w", err)
	} else if ok {
		n.ResyncNextID(latest + 1)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.sessions[key]; ok {
		go n.Close()
		return existing, nil
	}
	if s.draining {
		go n.Close()
		return nil, errors.New("gateway: shutting down")
	}
	s.sessions[key] = n
	s.resynced[key] = n.NextID()
	return n, nil
}

// reqScope extracts the common request scope: namespace, run, rank, and
// the derived store job key, plus the query string parsed once for the
// handler's own parameters (each r.URL.Query() call parses it again).
func reqScope(r *http.Request) (job string, rank int, q url.Values, aerr *apiError) {
	ns, run := r.PathValue("ns"), r.PathValue("run")
	if ns == "" || run == "" {
		return "", 0, nil, errf(http.StatusBadRequest, "bad_request", "namespace and run are required")
	}
	q = r.URL.Query()
	if v := q.Get("rank"); v != "" {
		var err error
		if rank, err = strconv.Atoi(v); err != nil || rank < 0 {
			return "", 0, nil, errf(http.StatusBadRequest, "bad_request", "invalid rank %q", v)
		}
	}
	return JobKey(ns, run), rank, q, nil
}

// mapStoreErr translates pipeline errors into API errors.
func mapStoreErr(err error, what string) *apiError {
	switch {
	case errors.Is(err, iostore.ErrNotFound), errors.Is(err, node.ErrNoCheckpoint),
		errors.Is(err, cluster.ErrNoRestartLine):
		return errf(http.StatusNotFound, "not_found", "%s: %v", what, err)
	case errors.Is(err, cluster.ErrNotPartitioned):
		return errf(http.StatusConflict, "not_partitioned", "%s: %v", what, err)
	case errors.Is(err, elastic.ErrBadGeometry):
		return errf(http.StatusBadRequest, "bad_request", "%s: %v", what, err)
	case errors.Is(err, cluster.ErrLevelUnavailable):
		return errf(http.StatusServiceUnavailable, "level_unavailable", "%s: %v", what, err)
	case errors.Is(err, context.Canceled):
		return errf(http.StatusServiceUnavailable, "canceled", "%s: request canceled", what)
	default:
		return errf(http.StatusInternalServerError, "internal", "%s: %v", what, err)
	}
}

// handleSave commits one checkpoint snapshot (the request body) — one NVM
// commit under admission control, so a device crowded by drain-locked
// residents blocks (bounded by DrainTimeout, then 429 backpressure) instead
// of failing, the body read once, straight into the reserved region, its
// drain started on the first blocks while the rest arrive (node.Stream) — and
// then resolves it, the two modes differing only in who waits. In the
// default synchronous mode the request does: a 200 means
// durable at the I/O level, not merely accepted, and a failed or timed-out
// drain rolls the commit back so the run's checkpoint sequence holds only
// durable IDs. In async mode (?durable=nvm) the save returns 202 as soon as
// the snapshot is NVM-durable and the same resolve runs in the background:
// the acked ID either reaches store durability or is rolled back and
// reported failed through the durability endpoint, never silently lost.
func (s *Server) handleSave(w http.ResponseWriter, r *http.Request, st *tenantState) *apiError {
	job, rank, q, aerr := reqScope(r)
	if aerr != nil {
		return aerr
	}
	step := 0
	if v := q.Get("step"); v != "" {
		var err error
		if step, err = strconv.Atoi(v); err != nil {
			return errf(http.StatusBadRequest, "bad_request", "invalid step %q", v)
		}
	}
	async := false
	switch v := q.Get("durable"); v {
	case "", "store":
	case "nvm":
		async = true
	default:
		return errf(http.StatusBadRequest, "bad_request",
			"invalid durable mode %q (want nvm or store)", v)
	}
	// Everything is decided from the declared length, before a byte is read.
	// A chunked upload declares none: its body is read first, NVM-bounded.
	size := r.ContentLength
	var chunked []byte
	if size < 0 {
		var err error
		chunked, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.SessionNVM))
		if size = int64(len(chunked)); errors.As(err, new(*http.MaxBytesError)) {
			size++ // the cap was hit: too_large, below
		} else if err != nil {
			return errf(http.StatusBadRequest, "bad_request", "reading snapshot: %v", err)
		}
	}
	switch {
	case size == 0:
		return errf(http.StatusBadRequest, "bad_request", "empty snapshot")
	case size > s.cfg.SessionNVM:
		return errf(http.StatusRequestEntityTooLarge, "too_large",
			"snapshot exceeds the session's %d-byte NVM", s.cfg.SessionNVM)
	}

	release, kind, ok := st.reserve(size)
	if !ok {
		s.quotaReject(kind)
		return errf(http.StatusForbidden, "quota_"+kind,
			"tenant %q would exceed its %s quota", st.Name, kind)
	}
	committed := false
	defer func() {
		if !committed {
			release()
		}
	}()

	n, err := s.session(r.Context(), job, rank, st)
	if err != nil {
		return mapStoreErr(err, "session")
	}
	// One bound for the save's two waits on its node: the rank's ID order,
	// held by another save until it publishes, then NVM admission.
	actx, cancel := context.WithTimeout(r.Context(), s.cfg.DrainTimeout)
	defer cancel()
	res, err := n.Reserve(actx, size)
	if err != nil {
		switch {
		case errors.Is(err, nvm.ErrBackpressure):
			s.mBackpressure.Inc()
			return errf(http.StatusTooManyRequests, "backpressure",
				"NVM admission wait expired (drain-locked residents hold the device): %v", err)
		case errors.Is(err, context.DeadlineExceeded):
			return errf(http.StatusTooManyRequests, "commit_busy",
				"another save on this rank held the checkpoint ID order past %s: %v", s.cfg.DrainTimeout, err)
		}
		return mapStoreErr(err, "commit")
	}
	defer res.Release()
	body := res.Data
	meta := node.Metadata{Job: job, Rank: rank, Step: step}
	if chunked != nil {
		copy(body, chunked)
		meta.Shards = shardCount(body)
	} else {
		// A fill unit at a time, each marked Filled as it lands. The first
		// fixes the metadata, and with it known a body with more to come
		// streams: its drain starts on the blocks already here (node.Stream).
		// The save holds the rank's ID order until it publishes, so its body
		// must arrive within DrainTimeout. Not every writer can bound its
		// body (a test recorder): there the client's own timeout is the bound.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Now().Add(s.cfg.DrainTimeout))
		unit := max(n.BlockSize(), fillUnit)
		for off := 0; off < len(body); {
			end := min(off+unit, len(body))
			if _, err := io.ReadFull(r.Body, body[off:end]); err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					return errf(http.StatusRequestTimeout, "body_timeout",
						"snapshot did not arrive within %s", s.cfg.DrainTimeout)
				}
				return errf(http.StatusBadRequest, "bad_request", "reading snapshot: %v", err)
			}
			res.Filled(end)
			if off == 0 {
				meta.Shards = shardCount(body[:end])
				if end < len(body) {
					n.Stream(res, meta)
				}
			}
			off = end
		}
		// The body is in: the connection's next read (the next request on
		// it) is not bound by this one's deadline.
		_ = rc.SetReadDeadline(time.Time{})
	}
	id, err := n.Publish(res, meta)
	if err != nil {
		return mapStoreErr(err, "commit")
	}
	committed = true
	if async {
		s.asyncWG.Add(1)
		s.mAsyncPending.Inc()
		go func() {
			defer s.asyncWG.Done()
			defer s.mAsyncPending.Dec()
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.AsyncDrainTimeout)
			defer cancel()
			if s.resolve(ctx, n, id, release) != nil {
				s.mAsyncFails.Inc()
			}
		}()
		st.mBytesIn.Add(uint64(size))
		writeJSON(w, http.StatusAccepted, saveReply{Bytes: size, Durable: "nvm", ID: id, Step: step})
		return nil
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DrainTimeout)
	defer cancel()
	if werr := s.resolve(ctx, n, id, release); werr != nil {
		switch {
		case r.Context().Err() != nil:
			return errf(http.StatusServiceUnavailable, "canceled",
				"client went away before checkpoint %d drained; rolled back", id)
		case errors.Is(werr, ndp.ErrStopped):
			return errf(http.StatusServiceUnavailable, "shutting_down",
				"drain engine stopped before checkpoint %d reached the store; rolled back", id)
		case errors.Is(werr, ndp.ErrCheckpointFailed):
			return errf(http.StatusInternalServerError, "drain_failed",
				"checkpoint %d permanently failed to drain: %v; rolled back", id, werr)
		default:
			return errf(http.StatusGatewayTimeout, "drain_timeout",
				"checkpoint %d not drained within %s; rolled back", id, s.cfg.DrainTimeout)
		}
	}
	st.mBytesIn.Add(uint64(size))
	writeJSON(w, http.StatusOK, saveReply{Bytes: size, Durable: "store", ID: id, Step: step})
	return nil
}

// saveReply is a save's 200 or 202 answer, its fields in sorted key order,
// the order the reply has always had.
type saveReply struct {
	Bytes   int64  `json:"bytes"`
	Durable string `json:"durable"`
	ID      uint64 `json:"id"`
	Step    int    `json:"step"`
}

// fillUnit is the least a save reads of its body before it marks the bytes
// Filled for the drain. Each mark wakes the drain, and with 64 KiB blocks a
// mark a block is 128 hand-offs an 8 MiB save: those cost more on two cores
// than the earlier start of each block gains (EXPERIMENTS.md, "Cut-through
// drain").
const fillUnit = 1 << 20

// shardCount is the shard count a snapshot framed by the client
// (elastic.Encode) declares in its header, 0 for an opaque one. Stamping it
// into the checkpoint metadata is what makes the run restorable onto a
// different rank count later.
func shardCount(head []byte) int {
	n, _ := elastic.ShardCount(head) // 0 unless head starts a frame
	return n
}

// resolve settles one committed save: wait (bounded by ctx) for store
// durability, then either trim the local restore cache, or — on permanent
// drain failure, shutdown, or timeout without durability — roll the
// checkpoint back rather than keep state the store may not hold, return its
// quota, and report why. The rolled-back ID stays failed on the node's
// durability tracker, so pollers see an explicit failure, not silence. The
// DurableAt re-check keeps a drain that completed in the same instant the
// wait aborted (engine stop, ctx expiry) acknowledged instead of rolled back.
func (s *Server) resolve(ctx context.Context, n *node.Node, id uint64, release func()) error {
	err := n.WaitDurableCtx(ctx, id, ndp.LevelStore)
	if err == nil || n.DurableAt(id, ndp.LevelStore) {
		s.evictLocal(n, id)
		return nil
	}
	// Best effort: a failed global delete leaves an object the store's own
	// error counters show; this request can do nothing more about it.
	_ = n.DiscardCommit(id)
	release()
	return err
}

// settled answers a request's awaitHeader: the settledHeader value listing
// which of the IDs it names in ns/run are store-durable or failed, "" for
// none. The sessions are looked up under one hold of s.mu; each answer is
// the one the durability endpoint gives now.
func (s *Server) settled(ns, run, await string) string {
	var spare [maxAwait]awaited
	ents := parseAwait(await, spare[:0])
	if len(ents) == 0 {
		return ""
	}
	job := JobKey(ns, run)
	s.mu.Lock()
	for i := range ents {
		key := sessKey{job: job, rank: ents[i].rank}
		ents[i].n, ents[i].first = s.sessions[key], s.resynced[key]
	}
	s.mu.Unlock()
	var buf [1024]byte // 64 entries of "r:nn=nvm+store" fit
	b := buf[:0]
	for _, e := range ents {
		if d, ok := sessionDurability(e.n, e.first, e.id); ok && (d.Failed || d.Levels.Store) {
			b = appendSettled(b, e.rank, d)
		}
	}
	return string(b)
}

// sessionDurability is the one answer for a checkpoint ID a session can
// know, the durability endpoint's and settledHeader's: the levels the
// session's tracker holds and the failure it recorded. A drain in flight has
// stored some blocks, not the checkpoint. ok is false for an ID no session
// can know, its rank's session gone (e.g. after a gateway restart) or the ID
// older than first, the one the session resynced to: only the store can
// answer for it.
func sessionDurability(n *node.Node, first, id uint64) (d Durability, ok bool) {
	if n == nil || id < first {
		return Durability{ID: id}, false
	}
	d = Durability{ID: id, Levels: Levels{
		NVM:     n.DurableAt(id, ndp.LevelNVM),
		Partner: n.DurableAt(id, ndp.LevelPartner),
		Erasure: n.DurableAt(id, ndp.LevelErasure),
		Store:   n.DurableAt(id, ndp.LevelStore),
	}}
	if err := n.Durability().FailedErr(id); err != nil {
		d.Failed, d.Failure = true, err.Error()
	}
	return d, true
}

// handleDurability reports one checkpoint's per-level durability:
// GET .../checkpoints/{id}/durability?rank=N[&wait=LEVEL][&timeout=DUR].
// With wait= it blocks (bounded by timeout, default DrainTimeout) until the
// checkpoint reaches that level or fails. sessionDurability answers for an
// ID a session can know, and the store for any other, so store-level truth
// survives the tracker's loss of state.
func (s *Server) handleDurability(w http.ResponseWriter, r *http.Request, st *tenantState) *apiError {
	job, rank, q, aerr := reqScope(r)
	if aerr != nil {
		return aerr
	}
	id, aerr := parseID(r)
	if aerr != nil {
		return aerr
	}
	wait, timeout := q.Get("wait"), s.cfg.DrainTimeout
	var lvl ndp.Level
	var err error
	if wait != "" {
		if lvl, err = ndp.ParseLevel(wait); err != nil {
			return errf(http.StatusBadRequest, "bad_request", "invalid wait level %q", wait)
		}
	}
	if tv := q.Get("timeout"); tv != "" {
		if timeout, err = time.ParseDuration(tv); err != nil || timeout <= 0 {
			return errf(http.StatusBadRequest, "bad_request", "invalid timeout %q", tv)
		}
	}
	key := sessKey{job: job, rank: rank}
	s.mu.Lock()
	n, first := s.sessions[key], s.resynced[key]
	s.mu.Unlock()

	if wait != "" && n != nil && id >= first {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		// The wait is advisory — the response below reports whatever state
		// the checkpoint reached, including a failure.
		n.WaitDurableCtx(ctx, id, lvl)
		cancel()
	}
	resp, ok := sessionDurability(n, first, id)
	if !ok {
		if _, held, err := s.cfg.Store.Stat(r.Context(), iostore.Key{Job: job, Rank: rank, ID: id}); err == nil && held {
			resp.Levels.Store = true
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// retainLocal is how many drained checkpoints each session keeps in local
// NVM as a restore cache.
const retainLocal = 4

// evictLocal bounds the session's local-NVM restore cache once id has
// drained: every resident checkpoint retainLocal or more IDs older goes,
// including one a rolled-back save skipped over.
func (s *Server) evictLocal(n *node.Node, id uint64) {
	if id > retainLocal {
		n.Device().DiscardThrough(id - retainLocal)
	}
}

// handleList reports the checkpoint IDs the store holds for one rank of a
// run, newest last, plus the newest ID for convenience.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request, st *tenantState) *apiError {
	job, rank, _, aerr := reqScope(r)
	if aerr != nil {
		return aerr
	}
	ids, err := s.cfg.Store.IDs(r.Context(), job, rank)
	if err != nil {
		return mapStoreErr(err, "list")
	}
	resp := map[string]any{"ids": ids}
	if len(ids) > 0 {
		resp["latest"] = ids[len(ids)-1]
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// snapshotResponse is how every snapshot-serving endpoint (load, resume,
// member restore) answers: the restore streams into sink — identity headers
// and Content-Length from what the node knows before the first payload
// byte, then the payload as it arrives — and finish settles its outcome.
type snapshotResponse struct {
	s  *Server
	w  http.ResponseWriter
	st *tenantState
	id uint64 // labels the snapshot; zero takes the restored checkpoint's own
	// head writes the response head — with the first payload piece, so a
	// restore failing before it still gets a typed error or an older line.
	head    func()
	started bool
	sent    int64
}

func (o *snapshotResponse) sink(meta node.Metadata, size int64, level node.Level) (func([]byte) error, error) {
	id := o.id
	if id == 0 {
		id = meta.ID
	}
	o.head = func() {
		h := o.w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("X-Ndpcr-Checkpoint", strconv.FormatUint(id, 10))
		h.Set("X-Ndpcr-Step", strconv.Itoa(meta.Step))
		h.Set("X-Ndpcr-Level", level.String())
		h.Set("Content-Length", strconv.FormatInt(size, 10))
		o.w.WriteHeader(http.StatusOK)
		o.started = true
	}
	return func(piece []byte) error {
		if !o.started {
			o.head()
		}
		n, err := o.w.Write(piece)
		o.sent += int64(n)
		return err
	}, nil
}

// finish books the bytes actually written and turns the restore's error, if
// any, into the response. Once the head has promised bytes that will not
// all come, the only honest answer is to kill the connection: the client
// sees a short body, never a complete-looking wrong snapshot.
func (o *snapshotResponse) finish(err error, what string) *apiError {
	if err != nil && !o.started {
		return mapStoreErr(err, what)
	}
	if !o.started {
		o.head() // an empty snapshot: no piece came
	}
	o.st.mBytesOut.Add(uint64(o.sent))
	if err != nil {
		o.s.countError("aborted")
		panic(http.ErrAbortHandler)
	}
	return nil
}

func parseID(r *http.Request) (uint64, *apiError) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		return 0, errf(http.StatusBadRequest, "bad_request", "invalid checkpoint id %q", r.PathValue("id"))
	}
	return id, nil
}

// handleLoad restores one specific checkpoint ID.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request, st *tenantState) *apiError {
	job, rank, _, aerr := reqScope(r)
	if aerr != nil {
		return aerr
	}
	id, aerr := parseID(r)
	if aerr != nil {
		return aerr
	}
	n, err := s.session(r.Context(), job, rank, st)
	if err != nil {
		return mapStoreErr(err, "session")
	}
	out := snapshotResponse{s: s, w: w, st: st, id: id}
	if err := n.RestoreIDTo(r.Context(), id, out.sink); err != nil {
		return out.finish(err, fmt.Sprintf("restore %d", id))
	}
	return out.finish(nil, "")
}

// handleDelete removes one checkpoint and returns its quota to the tenant.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, st *tenantState) *apiError {
	job, rank, _, aerr := reqScope(r)
	if aerr != nil {
		return aerr
	}
	id, aerr := parseID(r)
	if aerr != nil {
		return aerr
	}
	key := iostore.Key{Job: job, Rank: rank, ID: id}
	obj, ok, err := s.cfg.Store.Stat(r.Context(), key)
	if err != nil {
		return mapStoreErr(err, "stat")
	}
	if !ok {
		return errf(http.StatusNotFound, "not_found", "checkpoint %d not found", id)
	}

	// Through the session when one is live (cleans NVM and the NDP's
	// drain state too), straight at the store otherwise.
	s.mu.Lock()
	n := s.sessions[sessKey{job: job, rank: rank}]
	s.mu.Unlock()
	if n != nil {
		err = n.DiscardCommit(id)
	} else {
		err = s.cfg.Store.Delete(r.Context(), key)
	}
	if err != nil {
		return mapStoreErr(err, "delete")
	}
	st.unreserve(obj.OrigSize)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
	return nil
}

// handleResume restores the newest usable checkpoint. With ?ranks=N it is
// handleRestore's member mode for the identity (N→N) plan: this rank's
// member is served from the newest restart line common to ranks [0,N),
// through the same fallback ladder, with the session's local levels in play
// (a resuming rank may still hold the line in NVM). Without ?ranks= it
// serves this rank's newest checkpoint, labeled with the ID it restored.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request, st *tenantState) *apiError {
	job, rank, q, aerr := reqScope(r)
	if aerr != nil {
		return aerr
	}
	if v := q.Get("ranks"); v != "" {
		ranks, err := strconv.Atoi(v)
		if err != nil || ranks <= 0 || ranks > maxRanks || rank >= ranks {
			return errf(http.StatusBadRequest, "bad_request", "invalid ranks %q for rank %d", v, rank)
		}
		return s.restore(w, r, st, job, restoreRequest{Ranks: ranks, TargetRanks: ranks}, rank, false)
	}
	n, err := s.session(r.Context(), job, rank, st)
	if err != nil {
		return mapStoreErr(err, "session")
	}
	out := snapshotResponse{s: s, w: w, st: st}
	return out.finish(n.RestoreTo(r.Context(), out.sink), "resume")
}
