package iod

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/iod/wire"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// Server serves the iostore API over TCP. Each connection gets a reader
// goroutine that hands every request to a handler goroutine of its own, up
// to laneDepth at a time, and replies go out as their handlers finish, in
// any order: concurrency comes from the requests a client keeps in flight,
// on however few connections it opens.
type Server struct {
	backing iostore.Backend

	// ctx is the server-lifetime context passed to backing-store calls;
	// cancel fires on Close so in-flight backing operations abort.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// connFault, when set, is consulted once per request; drop severs the
	// connection without responding, failing every exchange in flight on it
	// (fault injection: exercises the client's reconnect+retry path),
	// corrupt flips a byte of that request's response frame after its
	// checksum is computed (exercises the client's CRC verification).
	connFault func() (drop, corrupt bool)

	// maxConns, when > 0, caps concurrently served connections: a lane
	// budget for the I/O node. Excess connections are closed at accept, so
	// a pooled client dialing more lanes than the server will fund sees
	// its surplus lanes break and retries on the funded ones.
	maxConns int

	// calls pools the per-request state (*srvCall), so the steady drain
	// state allocates nothing per block on either path.
	calls sync.Pool

	reg           *metrics.Registry
	mRequests     [opMax + 1]*metrics.Counter
	mInFlight     *metrics.Gauge
	mReqSecs      *metrics.Histogram
	mReqErrors    *metrics.Counter
	mRejected     *metrics.Counter
	mChecksumErrs *metrics.Counter
}

// NewServer wraps a backing store (usually *iostore.Store, possibly paced
// to the per-node I/O share).
func NewServer(backing iostore.Backend) (*Server, error) {
	if backing == nil {
		return nil, errors.New("iod: backing store is required")
	}
	s := &Server{backing: backing, conns: make(map[net.Conn]struct{})}
	s.calls.New = func() any { return new(srvCall) }
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.reg = metrics.NewRegistry()
	for op := opPutBlock; op <= opMax; op++ {
		s.mRequests[op] = s.reg.Counter(
			fmt.Sprintf("ndpcr_iod_requests_total{op=%q}", opName(op)),
			"requests served, by operation")
	}
	s.mInFlight = s.reg.Gauge("ndpcr_iod_inflight_requests", "requests being handled right now (active drain streams)")
	s.mReqSecs = s.reg.Histogram("ndpcr_iod_request_seconds", "handling time per request", metrics.UnitSeconds)
	s.mReqErrors = s.reg.Counter("ndpcr_iod_request_errors_total", "requests answered with an error")
	s.mRejected = s.reg.Counter("ndpcr_iod_conns_rejected_total", "connections refused by the -max-conns lane budget")
	s.mChecksumErrs = s.reg.Counter("ndpcr_iod_checksum_errors_total",
		"received wire frames whose CRC32C verification failed (corruption caught before it reached the store)")
	instrumentPool(s.reg)
	s.reg.GaugeFunc("ndpcr_iod_connections", "compute-node connections currently open", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.conns))
	})
	if b, ok := backing.(interface{ Instrument(*metrics.Registry) }); ok {
		b.Instrument(s.reg)
	}
	return s, nil
}

// Metrics exposes the server's registry; cmd/ndpcr-iod mounts it as a
// Prometheus scrape endpoint via metrics.Handler.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// SetConnFaultHook installs (or, with nil, removes) a fault-injection hook
// consulted before each request: drop severs the connection mid-exchange
// without answering, as a crashing or restarting I/O node would; corrupt
// flips a byte of that request's response frame after its checksum is
// computed, so the client's CRC verification — not a codec decode error —
// must catch it.
func (s *Server) SetConnFaultHook(h func() (drop, corrupt bool)) {
	s.mu.Lock()
	s.connFault = h
	s.mu.Unlock()
}

// SetMaxConns caps the number of concurrently served connections (0 = no
// cap). Call before Serve.
func (s *Server) SetMaxConns(n int) {
	s.mu.Lock()
	s.maxConns = n
	s.mu.Unlock()
}

// Serve accepts connections on l until Close. It returns after the
// listener fails (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("iod: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return fmt.Errorf("iod: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			conn.Close()
			s.mRejected.Inc()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// ListenAndServe listens on addr ("host:port"; ":0" picks a free port) and
// serves until Close. Addr() reports the bound address once listening.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("iod: listen %s: %w", addr, err)
	}
	return s.Serve(l)
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// fault consults the fault-injection hook, if any.
func (s *Server) fault() (drop, corrupt bool) {
	s.mu.Lock()
	h := s.connFault
	s.mu.Unlock()
	if h == nil {
		return false, false
	}
	return h()
}

// srvConn is one served connection: serveConn is the only reader of wc,
// wmu admits one reply writer at a time, and slots holds a token per request
// being handled.
type srvConn struct {
	conn  net.Conn
	wc    *wire.Conn
	wmu   sync.Mutex
	slots chan struct{} // capacity laneDepth
}

// srvCall is the state of one request from dispatch to reply. Pooled.
type srvCall struct {
	req     request
	resp    response
	op      uint8
	id      uint64 // echoed in the reply's aux
	corrupt bool   // fault injection: corrupt this reply
	payload []byte // the request's receive buffer, the server's to release
	scratch []byte // reused response-meta encode buffer
}

// serveConn reads one connection's frames until the peer departs, a fault
// drops it, or it sends bytes that are not a frame (bad magic, version or
// section length: the socket is closed without a reply), handing each
// request to its own handler goroutine. Before every read it takes one of
// laneDepth slots, returned when that request's reply has been written, so
// a peer that keeps sending past the bound is simply not read: TCP
// backpressure is the refusal. The reader decodes (or memo-hits) before it
// reads on, because a frame's meta section is only valid until the next
// ReadFrame. The server owns two buffers per request and releases both in
// reply: the request's payload once its handler has returned (every
// iostore.Backend copies block bytes it keeps), and the block a GetBlock
// handed it (the caller's, by that method's contract) once the reply frame
// that carries it has been written. A frame that fails CRC verification
// is answered with a checksumErrPrefix error under request ID 0 — the
// stream stays aligned, and the client fails and redials the lane.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	sc := &srvConn{conn: conn, wc: wire.NewConn(conn), slots: make(chan struct{}, laneDepth)}
	// A drain (or streamed restore) repeats a byte-identical meta section
	// on every block — same key, same checkpoint metadata, only the header
	// index and the payload change. Memoize the last decoded request per
	// connection so the steady state skips the meta decode and its map and
	// string allocations entirely. Handing the same decoded Meta map to many
	// requests is safe: every backend treats it as read-only.
	var (
		lastMeta  []byte
		lastOp    uint8
		cached    request
		haveCache bool
	)
	for {
		sc.slots <- struct{}{}
		h, meta, payload, err := sc.wc.ReadFrame()
		if err != nil && !errors.Is(err, wire.ErrChecksum) {
			// EOF and reset are normal client departures; framing errors
			// mean the stream is unrecoverable either way.
			return
		}
		call := s.calls.Get().(*srvCall)
		call.op, call.id, call.payload = h.Op, h.Aux, payload
		if err != nil {
			s.mChecksumErrs.Inc()
			call.id = 0 // no field of a corrupt header can be trusted
			call.resp = response{Err: fmt.Sprintf("%s: op %d", checksumErrPrefix, h.Op)}
			s.reply(sc, call)
			continue
		}
		if haveCache && h.Op == lastOp && bytes.Equal(meta, lastMeta) {
			call.req = cached
			call.req.Index = int(int32(h.Index))
			if h.PayloadLen > 0 {
				call.req.Block = payload
			}
		} else if req, err := decodeRequestWire(h, meta, payload); err != nil {
			// CRC passed but the meta section is structurally invalid: a
			// codec bug or a hostile peer. The stream is still aligned, so
			// answer with the error rather than dying.
			call.resp = response{Err: err.Error()}
			s.reply(sc, call)
			continue
		} else {
			call.req = *req
			lastMeta = append(lastMeta[:0], meta...)
			lastOp, cached, haveCache = h.Op, *req, true
			cached.Index, cached.Block = 0, nil
		}
		drop, corrupt := s.fault()
		if drop {
			blockpool.Put(payload)
			return // sever without responding: the client must reconnect
		}
		call.corrupt = corrupt
		s.wg.Add(1)
		// The reader goes on to block in the poller, so the handler usually
		// runs next on this P: a hop, not a migration.
		go func() {
			defer s.wg.Done()
			s.handleInto(&call.req, &call.resp)
			s.reply(sc, call)
		}()
	}
}

// reply recycles the request's payload, writes call's response under the
// connection's write lock, recycles the GetBlock block it carried, and returns
// the call to the pool and its slot to the connection. A failed write closes
// the connection, which ends its reader.
func (s *Server) reply(sc *srvConn, call *srvCall) {
	blockpool.Put(call.payload)
	sc.wmu.Lock()
	call.scratch = appendResponseMeta(call.scratch[:0], &call.resp)
	sc.wc.CorruptNext = call.corrupt
	h := wire.Header{Op: call.op, Flags: respFlags(&call.resp), Aux: call.id}
	err := sc.wc.WriteFrame(h, call.scratch, responsePayload(&call.resp)...)
	sc.wmu.Unlock()
	blockpool.Put(call.resp.Block)
	if err != nil {
		sc.conn.Close()
	}
	*call = srvCall{scratch: call.scratch}
	s.calls.Put(call)
	<-sc.slots
}

// handleInto dispatches req to the backing store, filling resp in place.
func (s *Server) handleInto(req *request, resp *response) {
	start := time.Now()
	s.mInFlight.Inc()
	defer func() {
		s.mInFlight.Dec()
		s.mReqSecs.ObserveSince(start)
	}()
	if req.Op >= opPutBlock && req.Op <= opMax {
		s.mRequests[req.Op].Inc()
	}
	*resp = response{}
	ctx := s.ctx
	switch req.Op {
	case opPutBlock:
		if err := s.backing.PutBlock(ctx, req.Key, req.Meta, req.Index, req.Block); err != nil {
			resp.Err = err.Error()
		}
	case opDelete:
		if err := s.backing.Delete(ctx, req.Key); err != nil {
			resp.Err = err.Error()
		}
	case opIDs:
		ids, err := s.backing.IDs(ctx, req.Job, req.Rank)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.IDs = ids
		}
	case opGetBlock:
		block, err := s.backing.GetBlock(ctx, req.Key, req.Index)
		switch {
		case errors.Is(err, iostore.ErrNotFound):
			resp.NotFound = true
			resp.Err = err.Error()
		case err != nil:
			resp.Err = err.Error()
		default:
			resp.Block = block
		}
	case opStatBlocks:
		obj, n, ok, err := s.backing.StatBlocks(ctx, req.Key)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Object, resp.NumBlocks, resp.OK = obj, n, ok
		}
	case opKeys:
		keys, err := s.backing.Keys(ctx)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Keys = keys
		}
	default:
		resp.Err = fmt.Sprintf("%s %d", unknownOpPrefix, req.Op)
	}
	if resp.Err != "" {
		s.mReqErrors.Inc()
	}
}

// Close stops accepting, closes every connection, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cancel()
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
