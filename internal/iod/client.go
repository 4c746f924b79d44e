package iod

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/iod/wire"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// lane is one slot of a client's pool: a TCP connection shared by up to
// laneDepth exchanges at once. All of it is guarded by Client.mu.
type lane struct {
	// link is the current connection; nil marks the lane as needing a
	// (re)dial before its next exchange. Lazily-dialed pool lanes start nil.
	link *link
	// inflight counts the calls that hold the lane, one of which may be
	// dialing it.
	inflight int
	// pending maps the ID of every request written (or about to be) on
	// link to the call waiting for its reply. Whoever deletes an entry
	// owns completing that call: the reader with the reply, failLane with
	// a transport error, or the call itself when it is abandoned. IDs
	// start at 1 and are never reused on a lane.
	pending map[uint64]*call
	nextID  uint64
}

// link is one connection of a lane. Its reader goroutine owns wc's read
// half; wmu admits one writer at a time to the write half and to the encode
// state below it.
type link struct {
	conn net.Conn
	wc   *wire.Conn

	wmu sync.Mutex
	// scratch is the reused request-meta encode buffer; pbuf is the reused
	// single-entry scatter/gather list for PutBlock payloads (a drain sends
	// millions of them, so the one-element slice must not be reallocated
	// per block).
	scratch []byte
	pbuf    [1][]byte
	// deadlined records that conn carries a write deadline some earlier
	// call set, which a call without one must clear.
	deadlined bool
}

// call is one exchange waiting for its reply. Pooled: whoever takes the call
// out of lane.pending sets resp or err and sends on done exactly once, and
// the waiter puts the call back only after receiving that (or after taking
// it out of pending itself), so done is always empty in the pool.
type call struct {
	id   uint64        // its key in lane.pending, the request's aux
	done chan struct{} // capacity 1: completing never blocks
	resp *response
	err  error
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// wait blocks until the call is completed, then takes its result.
func (cl *call) wait() (*response, error) {
	<-cl.done
	return cl.take()
}

// take returns what a completed call brought and recycles it. The caller
// has received from done.
func (cl *call) take() (*response, error) {
	resp, err := cl.resp, cl.err
	cl.resp, cl.err = nil, nil
	callPool.Put(cl)
	return resp, err
}

// send writes one request frame under the link's write lock, so the caller's
// block slice is not read after send returns. The request's meta section is
// encoded into the reused scratch buffer and the block payload rides the
// scatter/gather list untouched. A context deadline bounds the write.
func (lk *link) send(ctx context.Context, id uint64, req *request) error {
	lk.wmu.Lock()
	defer lk.wmu.Unlock()
	if dl, ok := ctx.Deadline(); ok || lk.deadlined {
		lk.conn.SetWriteDeadline(dl) // the zero time clears it; a dead conn fails the write below
		lk.deadlined = ok
	}
	lk.scratch = appendRequestMeta(lk.scratch[:0], req)
	h := wire.Header{Op: uint8(req.Op), Index: uint32(int32(req.Index)), Aux: id}
	var payload [][]byte
	if req.Block != nil {
		lk.pbuf[0] = req.Block
		payload = lk.pbuf[:]
	}
	err := lk.wc.WriteFrame(h, lk.scratch, payload...)
	lk.pbuf[0] = nil
	return err
}

// Client talks to an iod server and satisfies iostore.Backend, so a node
// runtime can be pointed at a remote I/O node transparently. A client owns
// a pool of lanes (TCP connections), each a full-duplex stream: a caller
// writes its own request frame, one reader goroutine per lane matches every
// reply to the call its request ID names, and a lane carries up to
// laneDepth exchanges at once — so the PutBlocks of a windowed drain and the
// block fetches of a streamed restore are on the wire together, up to
// laneDepth per connection the pool has. Dial builds a single-lane client;
// DialPool sizes the pool explicitly.
//
// Clients created with Dial/DialPool reconnect automatically. A transport
// failure on a lane fails every exchange pending on it, and each of those
// calls runs capped-backoff redial+retry cycles — rotating to other lanes,
// so a retried exchange resumes on a healthy lane while the broken one
// repairs — until the exchange succeeds, the retry budget is exhausted, the
// call's context is canceled, or Close is called. Every operation is
// idempotent (PutBlock writes by index), so retrying a failed exchange
// resumes an in-flight drain stream instead of abandoning it — an I/O node
// restart mid-drain costs only the retry window, not the checkpoint. All
// backoff sleeps hold no lane and select on the context, so a deadline cuts
// the whole retry schedule short — which is what lets a sharded store fail
// over to a replica in milliseconds instead of serving out the schedule.
//
// A call's deadline bounds its frame write and its wait for the reply, and
// its expiry severs the lane (the peer is stalled; the next caller redials).
// A canceled read returns at once and abandons its request ID: the late
// reply is dropped and the lane keeps serving. A canceled write (PutBlock,
// Delete) still waits for its reply or its deadline — a write
// running on the server after its call returned could re-create an object
// the caller has since deleted.
//
// Put, Get, Stat and Latest are iostore's functions over the other six
// methods, so a whole object crosses the wire a block to a frame.
type Client struct {
	addr string // "" disables reconnection (NewClient-wrapped conns)
	// dial opens one connection to addr; tests substitute it.
	dial func(ctx context.Context) (net.Conn, error)

	// slots holds one token per exchange in flight, laneDepth per lane: a
	// call that holds a token is sure to find a lane with room.
	slots chan struct{}

	mu      sync.Mutex // guards every lane's fields and next
	lanes   []*lane
	next    uint64         // round-robin lane cursor
	readers sync.WaitGroup // one per link; Close joins them

	// closing is set before Close takes any lock, so retry loops sleeping
	// between redial cycles notice the shutdown and abort instead of
	// serving out their whole backoff schedule, and a redial that completes
	// afterwards (it checks under mu) installs nothing Close would miss.
	closing atomic.Bool

	// Metrics (nil until Instrument is called).
	mDialRetries  *metrics.Counter
	mReconnects   *metrics.Counter
	mRetries      *metrics.Counter
	mCallErrs     *metrics.Counter
	mDeleteErrs   *metrics.Counter
	mLaneWaits    *metrics.Counter
	mChecksumErrs *metrics.Counter
	mMaskedInv    *metrics.Counter
	mInFlight     *metrics.Gauge
	mCallSecs     *metrics.Histogram
	// mLanes are the ndpcr_iod_lanes gauges of the registries this pool's
	// size was added to, each once; Close takes it back out. Guarded by mu.
	mLanes []*metrics.Gauge
}

// Instrument registers the client's metrics (dial retries, reconnect+retry
// cycles, lane contention, in-flight drain calls, call latency) with r.
func (c *Client) Instrument(r *metrics.Registry) {
	c.mDialRetries = r.Counter("ndpcr_iod_dial_retries_total", "TCP connect attempts beyond the first")
	c.mReconnects = r.Counter("ndpcr_iod_reconnects_total", "lane connections (re)established after a break or lazy first use")
	c.mRetries = r.Counter("ndpcr_iod_call_retries_total", "exchanges retried after a broken lane")
	c.mCallErrs = r.Counter("ndpcr_iod_call_errors_total", "calls that failed after exhausting retries")
	c.mDeleteErrs = r.Counter("ndpcr_iod_delete_errors_total",
		"deletes that failed (global objects possibly leaked by an abort cleanup)")
	c.mLaneWaits = r.Counter("ndpcr_iod_lane_waits_total",
		"calls that found every lane full and had to queue")
	c.mChecksumErrs = r.Counter("ndpcr_iod_checksum_errors_total",
		"wire frames whose CRC32C verification failed (corruption caught before it reached a checkpoint)")
	c.mMaskedInv = r.Counter("ndpcr_iod_masked_inventory_errors_total",
		"remote StatBlocks/IDs/Keys errors surfaced to the caller (read as absence, they would hide a checkpoint from a restore)")
	c.mInFlight = r.Gauge("ndpcr_iod_inflight_calls", "calls currently on the wire (drain streams in flight)")
	c.mCallSecs = r.Histogram("ndpcr_iod_call_seconds", "round-trip time per call", metrics.UnitSeconds)
	lanes := r.Gauge("ndpcr_iod_lanes", "TCP lanes in the pools of the open iod clients instrumented here")
	c.mu.Lock()
	if !c.closing.Load() && !slices.Contains(c.mLanes, lanes) {
		c.mLanes = append(c.mLanes, lanes)
		lanes.Add(int64(len(c.lanes)))
	}
	c.mu.Unlock()
	instrumentPool(r)
}

var _ iostore.Backend = (*Client)(nil)

// Dial retry schedule: during a coordinated startup the I/O node may come
// up seconds after the compute nodes, so a single failed connect must not
// abort a drain. Attempts back off exponentially from dialBackoffBase,
// capped at dialBackoffMax.
const (
	dialAttempts    = 6
	dialBackoffBase = 25 * time.Millisecond
	dialBackoffMax  = 800 * time.Millisecond
)

// Call retry schedule: a broken exchange triggers redial+retry cycles
// (each cycle itself runs the dial schedule above), backing off between
// cycles. The combined window (~4.5 s of inter-cycle backoff plus up to
// ~0.8 s of dial backoff per cycle) rides out an I/O node restart, which
// the single-reconnect policy it replaces could not. A caller that cannot
// afford the window bounds it with a context deadline.
const (
	callAttempts    = 5
	callBackoffBase = 50 * time.Millisecond
	callBackoffMax  = 2 * time.Second
)

// Dial connects to an iod server with a single lane, retrying transient
// connect failures with capped exponential backoff. Equivalent to
// DialPool(addr, 1): one connection, still carrying up to laneDepth
// exchanges at once.
func Dial(addr string) (*Client, error) {
	return DialPool(addr, 1)
}

// DialPool connects to an iod server with a pool of n lanes. Lane 0 is
// dialed eagerly (so a dead server fails fast, as Dial always has); the
// rest dial lazily on first use, so idle lanes cost the server nothing.
// The first bytes on every connection are a wire frame; there is no
// handshake, and a peer answering with anything else fails the lane with
// wire.ErrBadMagic or wire.ErrBadVersion.
func DialPool(addr string, n int) (*Client, error) {
	return newClient(addr, max(n, 1)).connect()
}

// connect dials lane 0 through dialRetry and installs it.
func (c *Client) connect() (*Client, error) {
	conn, err := c.dialRetry(context.Background())
	if err != nil {
		return nil, fmt.Errorf("iod: dial %s: %w", c.addr, err)
	}
	c.install(c.lanes[0], conn)
	return c, nil
}

// NewClient wraps an established connection (tests use net.Pipe). Clients
// built this way have one lane and do not reconnect.
func NewClient(conn net.Conn) *Client {
	c := newClient("", 1)
	c.install(c.lanes[0], conn)
	return c
}

func newClient(addr string, n int) *Client {
	c := &Client{addr: addr, lanes: make([]*lane, n), slots: make(chan struct{}, n*laneDepth)}
	c.dial = func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	for i := range c.lanes {
		c.lanes[i] = &lane{pending: make(map[uint64]*call)}
	}
	return c
}

// install makes conn the lane's link and starts its reader. Caller holds
// c.mu (or, in a constructor, the only reference to c).
func (c *Client) install(ln *lane, conn net.Conn) {
	ln.link = &link{conn: conn, wc: wire.NewConn(conn)}
	c.readers.Add(1)
	go c.readLoop(ln, ln.link)
}

// Lanes reports the pool size.
func (c *Client) Lanes() int { return len(c.lanes) }

// Addr reports the server address the client dials ("" for
// NewClient-wrapped connections).
func (c *Client) Addr() string { return c.addr }

// sleepCtx sleeps for d or until ctx is done / the client starts closing,
// reporting false when interrupted.
func (c *Client) sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return !c.closing.Load()
	case <-ctx.Done():
		return false
	}
}

// dialRetry attempts the TCP connect up to dialAttempts times, sleeping
// the backoff schedule between failures; it returns the last error if all
// attempts fail, the context ends, or the client is closing. Callers must
// not hold c.mu: the sleeps here are exactly the stalls that used to freeze
// every caller when they ran under the client mutex.
func (c *Client) dialRetry(ctx context.Context) (net.Conn, error) {
	backoff := dialBackoffBase
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			if c.mDialRetries != nil {
				c.mDialRetries.Inc()
			}
			if !c.sleepCtx(ctx, backoff) {
				break
			}
			backoff *= 2
			if backoff > dialBackoffMax {
				backoff = dialBackoffMax
			}
		}
		if c.closing.Load() {
			return nil, errors.New("client closed")
		}
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		conn, err := c.dial(ctx)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w (after retries)", lastErr)
}

// claimLane picks the lane for one exchange and counts the call onto it.
// Depth comes after width: an idle healthy lane first (round-robin from a
// shared cursor), then an idle broken or never-dialed one (which the caller
// will dial — also how lazy lanes come up), then the healthy lane with the
// fewest exchanges in flight, and a broken lane someone is already dialing
// only when no healthy lane has room. So large transfers spread over every
// socket before any lane carries two, and a lane stuck in redial backoff
// captures no call a healthy lane can carry. The call queues only when
// every lane is full.
func (c *Client) claimLane(ctx context.Context) (*lane, error) {
	select {
	case c.slots <- struct{}{}:
	default:
		if c.mLaneWaits != nil {
			c.mLaneWaits.Inc()
		}
		select {
		case c.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := uint64(len(c.lanes))
	var idleBroken, best *lane
scan:
	for i := uint64(0); i < n; i++ {
		ln := c.lanes[(c.next+i)%n]
		switch {
		case ln.inflight == 0 && ln.link != nil:
			best = ln
			break scan
		case ln.inflight == 0:
			if idleBroken == nil {
				idleBroken = ln
			}
		case ln.inflight < laneDepth && (best == nil || ln.lighterThan(best)):
			best = ln
		}
	}
	if idleBroken != nil && (best == nil || best.inflight > 0) {
		best = idleBroken
	}
	c.next++
	best.inflight++
	return best, nil
}

// lighterThan orders two busy lanes: a healthy one before a broken one,
// then the one with fewer exchanges in flight.
func (ln *lane) lighterThan(o *lane) bool {
	if (ln.link != nil) != (o.link != nil) {
		return ln.link != nil
	}
	return ln.inflight < o.inflight
}

// releaseLane undoes claimLane once the call is done with the lane.
func (c *Client) releaseLane(ln *lane) {
	c.mu.Lock()
	ln.inflight--
	c.mu.Unlock()
	<-c.slots
}

// enroll readies ln for one exchange — dialing it first if it is broken or
// was never dialed — and registers the pending call under a fresh request
// ID. The dial and its backoff sleeps run with c.mu released, so other
// callers can claim and even dial this lane meanwhile (the re-check after
// relocking discards the surplus connection in that case).
func (c *Client) enroll(ctx context.Context, ln *lane) (*link, *call, error) {
	c.mu.Lock()
	if ln.link == nil {
		c.mu.Unlock()
		if c.addr == "" {
			return nil, nil, errors.New("iod: connection broken (no address to redial)")
		}
		conn, err := c.dialRetry(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("iod: redial %s: %w", c.addr, err)
		}
		c.mu.Lock()
		switch {
		case c.closing.Load():
			c.mu.Unlock()
			conn.Close()
			return nil, nil, errors.New("iod: client closed")
		case ln.link != nil:
			conn.Close() // a racing dialer beat us to it
		default:
			c.install(ln, conn)
			if c.mReconnects != nil {
				c.mReconnects.Inc()
			}
		}
	}
	cl := callPool.Get().(*call)
	ln.nextID++
	cl.id = ln.nextID
	ln.pending[cl.id] = cl
	lk := ln.link
	c.mu.Unlock()
	return lk, cl, nil
}

// failLane severs lk and fails every exchange pending on it with err; the
// lane's next caller redials. It does nothing if lk is no longer the lane's
// link: whoever replaced it has already failed what was pending.
func (c *Client) failLane(ln *lane, lk *link, err error) {
	c.mu.Lock()
	if ln.link != lk {
		c.mu.Unlock()
		return
	}
	ln.link = nil
	failed := ln.pending
	ln.pending = make(map[uint64]*call)
	c.mu.Unlock()
	lk.conn.Close()
	for _, cl := range failed {
		cl.err = err
		cl.done <- struct{}{}
	}
}

// readLoop is lk's one reader: it decodes each reply — before reading on,
// since a frame's meta section lives in the wire.Conn's scratch — and
// completes the pending call its request ID names. A reply that names none
// (abandoned by a canceled read, a duplicate, ID 0, or anything else a
// broken peer invents) is dropped and its payload recycled. Any read error,
// a checksum mismatch in either direction (the ID in a corrupt header
// cannot be trusted, so a bad frame costs the lane, not one call) or an
// undecodable reply fails the whole lane and ends the loop.
func (c *Client) readLoop(ln *lane, lk *link) {
	defer c.readers.Done()
	for {
		h, meta, payload, err := lk.wc.ReadFrame()
		var resp *response
		if err == nil {
			if resp, err = decodeResponseWire(h, meta, payload); err != nil {
				blockpool.Put(payload)
			} else if strings.HasPrefix(resp.Err, checksumErrPrefix) {
				// The server read a corrupted frame from us.
				err = fmt.Errorf("%w: peer reports %s", wire.ErrChecksum, resp.Err)
			}
		}
		if err != nil {
			if errors.Is(err, wire.ErrChecksum) && c.mChecksumErrs != nil {
				c.mChecksumErrs.Inc()
			}
			c.failLane(ln, lk, fmt.Errorf("iod: receive: %w", err))
			return
		}
		c.mu.Lock()
		var cl *call
		if ln.link == lk {
			cl = ln.pending[h.Aux]
			delete(ln.pending, h.Aux)
		}
		c.mu.Unlock()
		if cl == nil {
			blockpool.Put(payload)
			continue
		}
		cl.resp = resp
		cl.done <- struct{}{}
	}
}

// attempt runs one exchange on one lane: claim, enroll, write the request,
// wait for the reply. The wait ends early only as the Client comment says:
// on the deadline (severing the lane), or at once for a canceled read.
func (c *Client) attempt(ctx context.Context, req *request) (*response, error) {
	ln, err := c.claimLane(ctx)
	if err != nil {
		return nil, err
	}
	defer c.releaseLane(ln)
	lk, cl, err := c.enroll(ctx, ln)
	if err != nil {
		return nil, err
	}
	if err := lk.send(ctx, cl.id, req); err != nil {
		c.failLane(ln, lk, fmt.Errorf("iod: send: %w", err))
		return cl.wait()
	}
	select {
	case <-cl.done:
		return cl.take()
	case <-ctx.Done():
	}
	if ctx.Err() == context.Canceled {
		if req.Op != opPutBlock && req.Op != opDelete {
			c.mu.Lock()
			abandoned := ln.pending[cl.id] == cl
			if abandoned {
				delete(ln.pending, cl.id)
			}
			c.mu.Unlock()
			if abandoned {
				callPool.Put(cl)
				return nil, ctx.Err()
			}
			return cl.wait() // the reply won the race
		}
		dl, ok := ctx.Deadline()
		if !ok {
			return cl.wait()
		}
		timer := time.NewTimer(time.Until(dl))
		defer timer.Stop()
		select {
		case <-cl.done:
			return cl.take()
		case <-timer.C:
		}
	}
	c.failLane(ln, lk, errors.New("iod: lane severed: a call's deadline passed with no reply"))
	return cl.wait()
}

// Close shuts every lane down and joins their readers; in-flight calls
// fail. closing is flagged first so retry loops abort at their next check.
func (c *Client) Close() error {
	if !c.closing.Swap(true) {
		c.mu.Lock()
		for _, g := range c.mLanes {
			g.Add(-int64(len(c.lanes)))
		}
		c.mLanes = nil
		c.mu.Unlock()
	}
	for _, ln := range c.lanes {
		c.mu.Lock()
		lk := ln.link
		c.mu.Unlock()
		if lk != nil {
			c.failLane(ln, lk, errors.New("iod: client closed"))
		}
	}
	c.readers.Wait()
	return nil
}

// call performs one exchange. A failed exchange triggers redial+retry
// cycles with capped backoff: every operation is idempotent, so a retried
// exchange after an I/O node restart resumes exactly where the drain stream
// broke. Each retry claims a lane afresh, so a stream broken on one lane
// resumes on whichever lane is healthy first. Backoff sleeps hold no lane
// and select on ctx, so cancelation or a deadline aborts the schedule
// immediately.
func (c *Client) call(ctx context.Context, req *request) (*response, error) {
	if c.mInFlight != nil {
		c.mInFlight.Inc()
		defer c.mInFlight.Dec()
		start := time.Now()
		defer func() { c.mCallSecs.ObserveSince(start) }()
	}
	if c.closing.Load() {
		return nil, errors.New("iod: client closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.attempt(ctx, req)
	if err == nil {
		return resp, nil
	}
	if c.addr == "" {
		// NewClient-wrapped connections cannot redial.
		return nil, err
	}
	backoff := callBackoffBase
	for attempt := 0; attempt < callAttempts; attempt++ {
		if attempt > 0 {
			if !c.sleepCtx(ctx, backoff) {
				break
			}
			backoff *= 2
			if backoff > callBackoffMax {
				backoff = callBackoffMax
			}
		}
		if c.closing.Load() || ctx.Err() != nil {
			break
		}
		if c.mRetries != nil {
			c.mRetries.Inc()
		}
		resp, rerr := c.attempt(ctx, req)
		if rerr == nil {
			return resp, nil
		}
		err = rerr
	}
	if cerr := ctx.Err(); cerr != nil && !errors.Is(err, cerr) {
		err = fmt.Errorf("%w (last transport error: %v)", cerr, err)
	}
	if c.mCallErrs != nil {
		c.mCallErrs.Inc()
	}
	return nil, err
}

// Put implements iostore.Backend with iostore.Put.
func (c *Client) Put(ctx context.Context, o iostore.Object) error { return iostore.Put(ctx, c, o) }

// PutBlock implements iostore.Backend.
func (c *Client) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	resp, err := c.call(ctx, &request{Op: opPutBlock, Key: key, Meta: meta, Index: index, Block: block})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Delete implements iostore.Backend. A failed delete leaks a global
// object, so it is both returned to the caller (abort/rollback paths can
// now tell a leaked object from a cleaned one) and counted in
// ndpcr_iod_delete_errors_total.
func (c *Client) Delete(ctx context.Context, key iostore.Key) error {
	resp, err := c.call(ctx, &request{Op: opDelete, Key: key})
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	if err != nil && c.mDeleteErrs != nil {
		c.mDeleteErrs.Inc()
	}
	return err
}

// Get implements iostore.Backend with iostore.Get.
func (c *Client) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	return iostore.Get(ctx, c, key)
}

// GetBlock implements iostore.Backend: fetch one block of a stored
// object, so a streamed restore can overlap fetching block i+1 with
// decompressing block i. The block is the reply frame's receive buffer,
// now the caller's.
func (c *Client) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	resp, err := c.call(ctx, &request{Op: opGetBlock, Key: key, Index: index})
	if err != nil {
		return nil, err
	}
	if resp.NotFound {
		return nil, fmt.Errorf("%w: %s", iostore.ErrNotFound, key)
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Block, nil
}

// inventoryErr surfaces a remote inventory error the old client silently
// swallowed: Stat/IDs/Latest used to ignore resp.Err entirely, so a
// failing server read as "no checkpoints stored" and a restore coordinator
// would conclude there was nothing to restore. Each surfaced error is
// counted so operators can see how often the old behavior would have lied.
func (c *Client) inventoryErr(resp *response) error {
	if resp.Err == "" {
		return nil
	}
	if c.mMaskedInv != nil {
		c.mMaskedInv.Inc()
	}
	return errors.New(resp.Err)
}

// StatBlocks implements iostore.Backend. ok == false with a nil error means
// the object is absent; any remote error is a real failure and surfaces as
// one.
func (c *Client) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	resp, err := c.call(ctx, &request{Op: opStatBlocks, Key: key})
	if err != nil {
		return iostore.Object{}, 0, false, err
	}
	if err := c.inventoryErr(resp); err != nil {
		return iostore.Object{}, 0, false, err
	}
	if !resp.OK {
		return iostore.Object{}, 0, false, nil
	}
	return resp.Object, resp.NumBlocks, true, nil
}

// Stat implements iostore.Backend with iostore.Stat.
func (c *Client) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	return iostore.Stat(ctx, c, key)
}

// IDs implements iostore.Backend: transport errors and remote failures
// kept distinct from "no checkpoints stored".
func (c *Client) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	resp, err := c.call(ctx, &request{Op: opIDs, Job: job, Rank: rank})
	if err != nil {
		return nil, err
	}
	if err := c.inventoryErr(resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Keys implements iostore.Backend: the remote store's full key inventory,
// the surface shardstore's restart-blind rebalance planner enumerates.
func (c *Client) Keys(ctx context.Context) ([]iostore.Key, error) {
	resp, err := c.call(ctx, &request{Op: opKeys})
	if err != nil {
		return nil, err
	}
	if err := c.inventoryErr(resp); err != nil {
		return nil, err
	}
	return resp.Keys, nil
}

// Latest implements iostore.Backend with iostore.Latest.
func (c *Client) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	return iostore.Latest(ctx, c, job, rank)
}

func respErr(resp *response) error {
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}
