package iod

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndpcr/internal/iod/wire"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// lane is one TCP connection in a client's pool, with its own codec state.
// mu serializes exchanges on the lane (the frame stream is stateful, so a
// lane carries one request/response at a time); connMu guards only the conn
// pointer so Close can sever an in-flight exchange without waiting behind
// it.
type lane struct {
	mu sync.Mutex // held for the duration of an exchange or repair

	connMu sync.Mutex
	conn   net.Conn

	// wc frames the current connection. Guarded by mu.
	wc *wire.Conn
	// scratch is the reused request-meta encode buffer; pbuf is the
	// reused single-entry scatter/gather list for PutBlock payloads (a
	// drain sends millions of them, so the one-element slice must not be
	// reallocated per block). Guarded by mu.
	scratch []byte
	pbuf    [1][]byte

	// broken marks the lane as needing a (re)dial before its next
	// exchange. Lazily-dialed pool lanes start broken with no conn.
	// Guarded by mu; healthy mirrors !broken lock-free so acquireLane's
	// all-busy fallback can avoid queueing behind a lane stuck in redial
	// backoff.
	broken  bool
	healthy atomic.Bool
}

// setConn installs a fresh connection, closing any previous one. Caller
// holds ln.mu; connMu bounds the race with Close.
func (ln *lane) setConn(conn net.Conn, arena *wire.Arena) {
	ln.connMu.Lock()
	if ln.conn != nil {
		ln.conn.Close()
	}
	ln.conn = conn
	ln.connMu.Unlock()
	ln.wc = wire.NewConn(conn, arena)
}

// markBroken flags the lane for repair before its next exchange. Caller
// holds ln.mu.
func (ln *lane) markBroken() {
	ln.broken = true
	ln.healthy.Store(false)
}

// markHealthy clears the repair flag. Caller holds ln.mu.
func (ln *lane) markHealthy() {
	ln.broken = false
	ln.healthy.Store(true)
}

// setDeadline applies (or clears) an I/O deadline on the lane's current
// connection. Caller holds ln.mu; connMu bounds the race with Close.
func (ln *lane) setDeadline(t time.Time) {
	ln.connMu.Lock()
	if ln.conn != nil {
		ln.conn.SetDeadline(t)
	}
	ln.connMu.Unlock()
}

// exchange runs one request/response on the lane. Caller holds ln.mu. The
// request's meta section is encoded into the lane's reused scratch buffer,
// block payloads ride the scatter/gather list untouched, and the response's
// checksum is verified before decode. A checksum mismatch is a transport
// error — the caller marks the lane broken and the retry path redials. A
// context deadline is projected onto the connection so a blocked read
// cannot outlive the caller's budget (the failed read marks the lane
// broken; the next claimant redials it).
func (ln *lane) exchange(ctx context.Context, req *request) (*response, error) {
	if dl, ok := ctx.Deadline(); ok {
		ln.setDeadline(dl)
		defer ln.setDeadline(time.Time{})
	}
	ln.scratch = appendRequestMeta(ln.scratch[:0], req)
	h := wire.Header{Op: uint8(req.Op), Index: uint32(int32(req.Index))}
	payloads := req.Meta.Blocks
	if len(payloads) == 0 && req.Block != nil {
		ln.pbuf[0] = req.Block
		payloads = ln.pbuf[:]
	}
	err := ln.wc.WriteFrame(h, ln.scratch, payloads...)
	ln.pbuf[0] = nil
	if err != nil {
		return nil, fmt.Errorf("iod: send: %w", err)
	}
	rh, rmeta, rpayload, err := ln.wc.ReadFrame()
	if err != nil {
		return nil, fmt.Errorf("iod: receive: %w", err)
	}
	resp, err := decodeResponseWire(rh, rmeta, rpayload)
	if err != nil {
		return nil, fmt.Errorf("iod: receive: %w", err)
	}
	return resp, nil
}

// Client talks to an iod server and satisfies iostore.Backend, so a node
// runtime can be pointed at a remote I/O node transparently. A client owns
// a pool of lanes (TCP connections): each call claims a free lane, so
// concurrent PutBlocks from a windowed drain — or block fetches from a
// streamed restore — proceed in parallel instead of serializing behind one
// in-flight exchange. Dial builds a single-lane client (the original wire
// behavior); DialPool sizes the pool explicitly.
//
// Clients created with Dial/DialPool reconnect automatically: if a call
// fails on a broken lane, the client runs capped-backoff redial+retry
// cycles — rotating to other lanes, so a retried exchange can resume on a
// healthy lane while the broken one repairs — until the exchange succeeds,
// the retry budget is exhausted, the call's context is canceled, or Close
// is called. Every operation is an idempotent request/response (PutBlock
// writes by index), so retrying a failed exchange resumes an in-flight
// drain stream instead of abandoning it — an I/O node restart mid-drain
// costs only the retry window, not the checkpoint. All backoff sleeps
// happen with no lane held and select on the context, so a deadline cuts
// the whole retry schedule short — which is what lets a sharded store fail
// over to a replica in milliseconds instead of serving out the schedule.
type Client struct {
	addr  string // "" disables reconnection (NewClient-wrapped conns)
	lanes []*lane
	next  atomic.Uint64 // round-robin lane cursor

	// arena pools receive buffers across every lane's frames.
	arena *wire.Arena

	mu     sync.Mutex
	closed bool

	// closing is set before Close takes any lock, so retry loops sleeping
	// between redial cycles notice the shutdown and abort instead of
	// serving out their whole backoff schedule.
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
		"calls that found every lane busy and had to queue")
	c.mChecksumErrs = r.Counter("ndpcr_iod_checksum_errors_total",
		"wire frames whose CRC32C verification failed (corruption caught before it reached a checkpoint)")
	c.mMaskedInv = r.Counter("ndpcr_iod_masked_inventory_errors_total",
		"remote Stat/IDs/Latest/StatBlocks errors surfaced to the caller (read as absence, they would hide a checkpoint from a restore)")
	c.mInFlight = r.Gauge("ndpcr_iod_inflight_calls", "calls currently on the wire (drain streams in flight)")
	c.mCallSecs = r.Histogram("ndpcr_iod_call_seconds", "round-trip time per call", metrics.UnitSeconds)
	r.GaugeFunc("ndpcr_iod_lanes", "TCP lanes in this client's pool", func() float64 {
		return float64(len(c.lanes))
	})
	c.arena.Hit = r.Counter("ndpcr_iod_arena_hits_total", "wire receive buffers served from the pooled arena")
	c.arena.Miss = r.Counter("ndpcr_iod_arena_misses_total", "wire receive buffers freshly allocated (pool empty or oversized)")
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
// DialPool(addr, 1): one ordered stream, the original wire behavior.
func Dial(addr string) (*Client, error) {
	return DialPool(addr, 1)
}

// DialPool connects to an iod server with a pool of n lanes. Lane 0 is
// dialed eagerly (so a dead server fails fast, as Dial always has); the
// rest dial lazily on first use, so idle lanes cost the server nothing.
// The first bytes on every connection are a wire frame; there is no
// handshake, and a peer answering with anything else fails the exchange
// with wire.ErrBadMagic or wire.ErrBadVersion.
func DialPool(addr string, n int) (*Client, error) {
	if n < 1 {
		n = 1
	}
	c := &Client{addr: addr, lanes: make([]*lane, n), arena: wire.NewArena()}
	for i := range c.lanes {
		c.lanes[i] = &lane{broken: true}
	}
	conn, err := c.dialRetry(context.Background())
	if err != nil {
		return nil, fmt.Errorf("iod: dial %s: %w", addr, err)
	}
	c.lanes[0].setConn(conn, c.arena)
	c.lanes[0].markHealthy()
	return c, nil
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
// not hold any lane lock: the sleeps here are exactly the stalls that used
// to freeze every caller when they ran under the client mutex.
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
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", c.addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w (after retries)", lastErr)
}

// NewClient wraps an established connection (tests use net.Pipe). Clients
// built this way have one lane and do not reconnect.
func NewClient(conn net.Conn) *Client {
	c := &Client{lanes: []*lane{{}}, arena: wire.NewArena()}
	c.lanes[0].setConn(conn, c.arena)
	c.lanes[0].markHealthy()
	return c
}

// acquireLane claims a lane for one exchange, returning it locked. It
// prefers a free healthy lane (scanning round-robin from a shared cursor),
// then a free broken one (which the caller will repair — also how lazy
// lanes get their first dial), and only queues behind an in-flight
// exchange when every lane is busy. Preferring healthy lanes means a lane
// stuck in a redial backoff does not capture new calls while an idle
// healthy lane sits next to it.
func (c *Client) acquireLane() *lane {
	start := c.next.Add(1) - 1
	n := uint64(len(c.lanes))
	var brokenFree *lane
	for i := uint64(0); i < n; i++ {
		ln := c.lanes[(start+i)%n]
		if !ln.mu.TryLock() {
			continue
		}
		if !ln.broken {
			if brokenFree != nil {
				brokenFree.mu.Unlock()
			}
			return ln
		}
		if brokenFree == nil {
			brokenFree = ln // hold it locked in case no healthy lane is free
		} else {
			ln.mu.Unlock()
		}
	}
	if brokenFree != nil {
		return brokenFree
	}
	if c.mLaneWaits != nil {
		c.mLaneWaits.Inc()
	}
	// Every lane is busy: queue behind an in-flight exchange. Prefer a
	// healthy lane (round-robin from the cursor) — blindly queueing on
	// lanes[start%n] could park the call behind a lane stuck in redial
	// backoff while a healthy lane would have freed up in microseconds.
	// healthy is a lock-free snapshot, so this is a heuristic: a lane that
	// breaks after the check still fails over through the retry path.
	for i := uint64(0); i < n; i++ {
		ln := c.lanes[(start+i)%n]
		if ln.healthy.Load() {
			ln.mu.Lock()
			return ln
		}
	}
	ln := c.lanes[start%n]
	ln.mu.Lock()
	return ln
}

// repairLane (re)dials a broken lane. Called with ln.mu held; the dial —
// and its backoff sleeps — run with the lane unlocked, so other callers
// can claim and even repair this lane meanwhile (the post-relock broken
// re-check discards the surplus connection in that case).
func (c *Client) repairLane(ctx context.Context, ln *lane) error {
	if c.addr == "" {
		return errors.New("iod: connection broken (no address to redial)")
	}
	ln.mu.Unlock()
	conn, err := c.dialRetry(ctx)
	ln.mu.Lock()
	if err != nil {
		return fmt.Errorf("iod: redial %s: %w", c.addr, err)
	}
	if c.closing.Load() {
		conn.Close()
		return errors.New("iod: client closed")
	}
	if !ln.broken {
		conn.Close() // a racing repairer beat us to it
		return nil
	}
	ln.setConn(conn, c.arena)
	ln.markHealthy()
	if c.mReconnects != nil {
		c.mReconnects.Inc()
	}
	return nil
}

// attempt runs one exchange on one lane, repairing the lane first if it is
// broken (or was never dialed). A failed exchange — including a checksum
// mismatch in either direction — marks the lane broken so the next claimant
// redials it.
func (c *Client) attempt(ctx context.Context, req *request) (*response, error) {
	ln := c.acquireLane()
	defer ln.mu.Unlock()
	if ln.broken {
		if err := c.repairLane(ctx, ln); err != nil {
			return nil, err
		}
	}
	resp, err := ln.exchange(ctx, req)
	if err != nil {
		if errors.Is(err, wire.ErrChecksum) && c.mChecksumErrs != nil {
			c.mChecksumErrs.Inc()
		}
		ln.markBroken()
		return nil, err
	}
	if strings.HasPrefix(resp.Err, checksumErrPrefix) {
		// The server read a corrupted frame from us: integrity of the lane
		// is suspect, so treat it like a transport failure and let the
		// retry cycle redial and resend.
		if c.mChecksumErrs != nil {
			c.mChecksumErrs.Inc()
		}
		ln.markBroken()
		return nil, errors.New(resp.Err)
	}
	return resp, nil
}

// Close shuts every lane down; in-flight calls fail. Lane locks are not
// taken (an exchange or repair may hold them for a while): closing is
// flagged first so retry loops abort at their next check, then each lane's
// connection is severed under connMu, failing any blocked read.
func (c *Client) Close() error {
	c.closing.Store(true)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var first error
	for _, ln := range c.lanes {
		ln.connMu.Lock()
		if ln.conn != nil {
			if err := ln.conn.Close(); err != nil && first == nil {
				first = err
			}
		}
		ln.connMu.Unlock()
	}
	return first
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// call performs one request/response exchange. A failed exchange triggers
// redial+retry cycles with capped backoff: the protocol is strictly
// request/response and every operation idempotent, so a retried exchange
// after an I/O node restart resumes exactly where the drain stream broke.
// Each retry claims a lane afresh, so a stream broken on one lane resumes
// on whichever lane is healthy first. Backoff sleeps hold no locks and
// select on ctx, so cancelation or a deadline aborts the schedule
// immediately.
func (c *Client) call(ctx context.Context, req *request) (*response, error) {
	if c.mInFlight != nil {
		c.mInFlight.Inc()
		defer c.mInFlight.Dec()
		start := time.Now()
		defer func() { c.mCallSecs.ObserveSince(start) }()
	}
	if c.isClosed() {
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
	if cerr := ctx.Err(); cerr != nil {
		err = fmt.Errorf("%w (last transport error: %v)", cerr, err)
	}
	if c.mCallErrs != nil {
		c.mCallErrs.Inc()
	}
	return nil, err
}

// Put implements iostore.Backend.
func (c *Client) Put(ctx context.Context, o iostore.Object) error {
	resp, err := c.call(ctx, &request{Op: opPut, Meta: o})
	if err != nil {
		return err
	}
	return respErr(resp)
}

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

// Get implements iostore.Backend.
func (c *Client) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	resp, err := c.call(ctx, &request{Op: opGet, Key: key})
	if err != nil {
		return iostore.Object{}, err
	}
	if resp.NotFound {
		return iostore.Object{}, fmt.Errorf("%w: %s", iostore.ErrNotFound, key)
	}
	if resp.Err != "" {
		return iostore.Object{}, errors.New(resp.Err)
	}
	return resp.Object, nil
}

// GetBlock implements iostore.Backend: fetch one block of a stored
// object, so a streamed restore can overlap fetching block i+1 with
// decompressing block i.
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

// Stat implements iostore.Backend: transport errors and remote failures
// kept distinct from "no such checkpoint".
func (c *Client) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	resp, err := c.call(ctx, &request{Op: opStat, Key: key})
	if err != nil {
		return iostore.Object{}, false, err
	}
	if err := c.inventoryErr(resp); err != nil {
		return iostore.Object{}, false, err
	}
	return resp.Object, resp.OK, nil
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

// Latest implements iostore.Backend: transport errors and remote failures
// kept distinct from "no checkpoints stored".
func (c *Client) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	resp, err := c.call(ctx, &request{Op: opLatest, Job: job, Rank: rank})
	if err != nil {
		return 0, false, err
	}
	if err := c.inventoryErr(resp); err != nil {
		return 0, false, err
	}
	return resp.Latest, resp.OK, nil
}

func respErr(resp *response) error {
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}
