package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// APIError is a gateway rejection decoded back into its typed form: the
// HTTP status plus the stable machine-readable code the server attached.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gateway: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Client is a Go client for the gateway API, scoped to one tenant token. It
// speaks HTTP/1.1 itself, one synchronous exchange per request on the
// caller's goroutine: the request head and body leave in one write, the body
// never copied, and the reply is read off the same connection. Connections
// are kept alive, at most maxIdle of them idle. It does not read the proxy
// environment, and speaks neither https nor HTTP/2. A Client is safe for
// concurrent use.
type Client struct {
	addr   string // host:port dialed
	host   string // the Host header
	prefix string // the base URL's path, without a trailing slash
	token  string
	err    error // a base or token NewClient refused: every request returns it
	dial   func(ctx context.Context, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle []*conn

	acks acks // async saves' store durability, off the replies (settle.go)
}

// maxIdle is how many idle connections a Client keeps, net/http's default
// per host. A connection handed back past it is closed.
const maxIdle = 2

// dialer is net/http's default dialer: a dial gives up after 30 s, and an
// idle connection sends TCP keep-alive probes.
var dialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	return dialer.DialContext(ctx, "tcp", addr)
}

// NewClient builds a client for the gateway at base (e.g.
// "http://127.0.0.1:9600", or "http://host:port/prefix" behind a path
// prefix) presenting the given bearer token. A base that is not
// http://host[:port][/prefix], or a token holding a byte not allowed in a
// header value, fails every request, before anything is dialed.
func NewClient(base, token string) *Client {
	c := &Client{token: token, dial: dialTCP}
	c.addr, c.host, c.prefix, c.err = parseBase(base)
	for i := 0; c.err == nil && i < len(token); i++ {
		if b := token[i]; b < ' ' && b != '\t' || b == 0x7f {
			c.err = fmt.Errorf("gateway: the token holds byte %#02x, not allowed in a header value", b)
		}
	}
	return c
}

// parseBase splits a base URL into the address to dial, the Host header and
// the path prefix of every request.
func parseBase(base string) (addr, host, prefix string, err error) {
	u, err := url.Parse(base)
	if err != nil {
		return "", "", "", fmt.Errorf("gateway: base: %w", err)
	}
	if u.Scheme != "http" || u.Host == "" || u.Opaque != "" || u.User != nil ||
		u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return "", "", "", fmt.Errorf("gateway: base %q is not http://host[:port][/prefix]", base)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return net.JoinHostPort(u.Hostname(), port), u.Host, strings.TrimSuffix(u.EscapedPath(), "/"), nil
}

// Checkpoint is one restored checkpoint: its payload plus identity.
type Checkpoint struct {
	ID    uint64
	Step  int
	Level string
	Data  []byte
}

// conn is one keep-alive connection to the gateway and the exchange it
// carries, one at a time.
type conn struct {
	client   *Client
	nc       net.Conn
	br       *bufio.Reader
	raw      syscall.RawConn // nil: no peek before reuse
	peekFn   func(fd uintptr) bool
	peekBuf  [1]byte
	live     bool // the last peek's verdict
	head     []byte
	deadline bool // nc carries a deadline from an earlier exchange
	ex       exchange
}

func newConn(c *Client, nc net.Conn) *conn {
	pc := &conn{client: c, nc: nc, br: bufio.NewReader(nc)}
	pc.ex.conn = pc
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			pc.raw = raw
			pc.peekFn = pc.peek
		}
	}
	return pc
}

// peek reads the socket without blocking and without consuming: an idle
// connection is live only while there is nothing to read — no byte the
// gateway sent unasked, and no close.
func (pc *conn) peek(fd uintptr) bool {
	_, _, err := syscall.Recvfrom(int(fd), pc.peekBuf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	pc.live = err == syscall.EAGAIN
	return true // done: never wait for readability
}

// reusable checks an idle connection before it carries a request.
func (pc *conn) reusable() bool {
	if pc.br.Buffered() > 0 {
		return false
	}
	if pc.raw == nil {
		return true
	}
	pc.live = false
	return pc.raw.Read(pc.peekFn) == nil && pc.live
}

// getConn takes the newest idle connection that passes its check, or dials
// a new one.
func (c *Client) getConn(ctx context.Context) (*conn, error) {
	for {
		c.mu.Lock()
		n := len(c.idle)
		if n == 0 {
			c.mu.Unlock()
			break
		}
		pc := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		if pc.reusable() {
			return pc, nil
		}
		pc.nc.Close()
	}
	nc, err := c.dial(ctx, c.addr)
	if err != nil {
		return nil, err
	}
	return newConn(c, nc), nil
}

// putIdle hands a connection back for the next request.
func (c *Client) putIdle(pc *conn) {
	c.mu.Lock()
	if len(c.idle) < maxIdle {
		c.idle = append(c.idle, pc)
		pc = nil
	}
	c.mu.Unlock()
	if pc != nil {
		pc.nc.Close()
	}
}

// exchange is the reply body of a connection's current request. Read to EOF
// and closed, it hands the connection back to the idle list, unless the
// reply closes it; closed short of EOF, or after its ctx ended the exchange,
// it closes the connection.
type exchange struct {
	conn *conn
	ctx  context.Context
	stop func() bool // unregisters the ctx's cancel hook; nil without one
	body io.ReadCloser
	eof  bool
	keep bool
}

func (x *exchange) Read(p []byte) (int, error) {
	n, err := x.body.Read(p)
	if err == io.EOF {
		x.eof = true
	} else if err != nil {
		// A body cut short says EOF on the next read: it is the error that
		// keeps the connection from the idle list.
		x.keep = false
		err = ctxErr(x.ctx, err)
	}
	return n, err
}

func (x *exchange) Close() error {
	if x.body != nil { // not closed already
		x.finish(x.eof && x.keep)
	}
	return nil
}

// finish ends the exchange: its connection goes back to the idle list if
// keep holds and the ctx did not end the exchange, and is closed otherwise.
func (x *exchange) finish(keep bool) {
	if x.stop != nil && !x.stop() {
		keep = false // the cancel hook ran: the connection's deadline is past
	}
	pc := x.conn
	*x = exchange{conn: pc}
	if keep {
		pc.client.putIdle(pc)
	} else {
		pc.nc.Close()
	}
}

// aLongTimeAgo is a deadline in the past: set on a connection, it fails the
// I/O under way at once.
var aLongTimeAgo = time.Unix(1, 0)

// ctxErr names the ctx that ended an exchange, if one did, in place of the
// I/O error its deadline caused: a ctx deadline is the connection's, and a
// cancel sets one in the past.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("gateway: %w (%v)", cerr, err)
	}
	if _, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("gateway: %w (%v)", context.DeadlineExceeded, err)
	}
	return err
}

// do runs one exchange: method on an endpoint of ns/run, tail the rest of
// its path and the query, with body, nil for none. A 2xx reply is returned
// with its body unread, and the connection goes back to the idle list when
// that body is read to EOF and closed; any other status is decoded into an
// *APIError. The request is never sent twice: a save the gateway may have
// read is not resent. The request names the async IDs of ns/run the client
// awaits, and the reply's answer for them is taken whatever its status.
func (c *Client) do(ctx context.Context, method, ns, run, tail string, body []byte) (*http.Response, error) {
	if c.err != nil {
		return nil, c.err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	pc, err := c.getConn(ctx)
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	x := &pc.ex
	x.ctx = ctx
	if d, ok := ctx.Deadline(); ok {
		pc.nc.SetDeadline(d)
		pc.deadline = true
	} else if pc.deadline {
		pc.nc.SetDeadline(time.Time{})
		pc.deadline = false
	}
	if ctx.Done() != nil {
		x.stop = context.AfterFunc(ctx, func() { pc.nc.SetDeadline(aLongTimeAgo) })
	}

	h := append(pc.head[:0], method...)
	h = append(h, ' ')
	h = append(h, c.prefix...)
	h = append(h, "/v1/ns/"...)
	h = append(h, url.PathEscape(ns)...)
	h = append(h, "/runs/"...)
	h = append(h, url.PathEscape(run)...)
	h = append(h, tail...)
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, c.host...)
	h = append(h, "\r\nAuthorization: Bearer "...)
	h = append(h, c.token...)
	h = c.acks.appendHeader(h, ns, run)
	if body != nil {
		h = append(h, "\r\nContent-Length: "...)
		h = strconv.AppendInt(h, int64(len(body)), 10)
	}
	h = append(h, "\r\n\r\n"...)
	pc.head = h
	w := io.Writer(pc.nc)
	if raceEnabled {
		w = struct{ io.Writer }{w} // no writev: see raceEnabled
	}
	_, werr := (&net.Buffers{h, body}).WriteTo(w)

	// A gateway that refuses a save before reading its body (413, 403, 429)
	// answers and closes: a failed write still reads that answer.
	resp, err := http.ReadResponse(pc.br, nil)
	if err != nil {
		x.finish(false)
		if werr != nil {
			err = werr
		}
		return nil, ctxErr(ctx, err)
	}
	if v := resp.Header[settledHeader]; len(v) > 0 {
		c.acks.settle(ns, run, v[0])
	}
	x.body, x.keep = resp.Body, werr == nil && !resp.Close
	resp.Body = x
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		var e struct {
			Error   string `json:"error"`
			Message string `json:"message"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if json.Unmarshal(raw, &e) != nil || e.Error == "" {
			e.Error, e.Message = "internal", string(raw)
		}
		return nil, &APIError{Status: resp.StatusCode, Code: e.Error, Message: e.Message}
	}
	if werr != nil {
		resp.Body.Close()
		return nil, ctxErr(ctx, werr)
	}
	return resp, nil
}

func decodeJSON(resp *http.Response, v any) error {
	defer drain(resp)
	return json.NewDecoder(resp.Body).Decode(v)
}

// drain reads the rest of a reply's body and closes it: the connection goes
// back to the idle list only for a body read to EOF, and a new one is dialed
// for the next request otherwise. A read that fails costs no more than that.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Save writes one snapshot as rank's next checkpoint of ns/run and returns
// the durable checkpoint ID.
func (c *Client) Save(ctx context.Context, ns, run string, rank, step int, snapshot []byte) (uint64, error) {
	return c.save(ctx, ns, run, rank, step, snapshot, "")
}

// SaveAsync writes one snapshot with asynchronous acknowledgment
// (?durable=nvm): it returns as soon as the gateway holds the snapshot
// NVM-durably, while propagation to the global store continues in the
// background. Poll Durability (or call it with wait="store") to learn when
// — or whether — the checkpoint became store-durable. Until it learns, the
// client names the ID on its requests to the run, and a reply that says it
// is store-durable answers that Durability call without a request.
func (c *Client) SaveAsync(ctx context.Context, ns, run string, rank, step int, snapshot []byte) (uint64, error) {
	return c.save(ctx, ns, run, rank, step, snapshot, "&durable=nvm")
}

// save is the one save request; mode is the durable= query suffix that
// picks who waits for the drain.
func (c *Client) save(ctx context.Context, ns, run string, rank, step int, snapshot []byte, mode string) (uint64, error) {
	tail := "/checkpoints?rank=" + strconv.Itoa(rank) + "&step=" + strconv.Itoa(step) + mode
	resp, err := c.do(ctx, http.MethodPost, ns, run, tail, snapshot)
	if err != nil {
		return 0, err
	}
	var out struct {
		ID uint64 `json:"id"`
	}
	if err := decodeJSON(resp, &out); err != nil {
		return 0, fmt.Errorf("gateway: decoding save response: %w", err)
	}
	if resp.StatusCode == http.StatusAccepted {
		c.acks.await(ackKey{ns: ns, run: run, rank: rank, id: out.ID})
	}
	return out.ID, nil
}

// Durability is one checkpoint's per-level durability state, and the
// durability endpoint's reply as the gateway encodes it. Its fields, and
// those of Levels, are in sorted key order, the order the reply has always
// had.
type Durability struct {
	Failed  bool   `json:"failed"`
	Failure string `json:"failure,omitempty"`
	ID      uint64 `json:"id"`
	Levels  Levels `json:"levels"`
}

// Levels is which durability levels a checkpoint has reached.
type Levels struct {
	Erasure bool `json:"erasure"`
	NVM     bool `json:"nvm"`
	Partner bool `json:"partner"`
	Store   bool `json:"store"`
}

// Durable reports whether the checkpoint reached the named level
// ("nvm", "partner", "erasure", "store").
func (d Durability) Durable(level string) bool {
	switch level {
	case "nvm":
		return d.Levels.NVM
	case "partner":
		return d.Levels.Partner
	case "erasure":
		return d.Levels.Erasure
	case "store":
		return d.Levels.Store
	}
	return false
}

// Durability fetches one checkpoint's durability state. A non-empty wait
// names a level ("store", "nvm", ...) to block for (bounded by the
// gateway's drain timeout) before reporting. For an ID this client saved
// with SaveAsync, a reply that already said it was store-durable answers
// once, with no request, when it reached wait.
func (c *Client) Durability(ctx context.Context, ns, run string, rank int, id uint64, wait string) (Durability, error) {
	k := ackKey{ns: ns, run: run, rank: rank, id: id}
	if d, ok := c.acks.take(k, wait); ok {
		return d, nil
	}
	tail := "/checkpoints/" + strconv.FormatUint(id, 10) + "/durability?rank=" + strconv.Itoa(rank)
	if wait != "" {
		tail += "&wait=" + url.QueryEscape(wait)
	}
	resp, err := c.do(ctx, http.MethodGet, ns, run, tail, nil)
	if err != nil {
		return Durability{}, err
	}
	var out Durability
	if err := decodeJSON(resp, &out); err != nil {
		return Durability{}, fmt.Errorf("gateway: decoding durability response: %w", err)
	}
	if out.Failed || out.Levels.Store {
		c.acks.forget(k) // settled: this answer is the one the caller gets
	}
	return out, nil
}

// List reports the checkpoint IDs stored for rank of ns/run.
func (c *Client) List(ctx context.Context, ns, run string, rank int) ([]uint64, error) {
	resp, err := c.do(ctx, http.MethodGet, ns, run, "/checkpoints?rank="+strconv.Itoa(rank), nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		IDs []uint64 `json:"ids"`
	}
	if err := decodeJSON(resp, &out); err != nil {
		return nil, fmt.Errorf("gateway: decoding list response: %w", err)
	}
	return out.IDs, nil
}

// snapshotHead decodes a snapshot-bearing response's identity headers.
func snapshotHead(resp *http.Response) (Checkpoint, error) {
	id, err := strconv.ParseUint(resp.Header.Get("X-Ndpcr-Checkpoint"), 10, 64)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("gateway: snapshot response: X-Ndpcr-Checkpoint: %w", err)
	}
	step, err := strconv.Atoi(resp.Header.Get("X-Ndpcr-Step"))
	if err != nil {
		return Checkpoint{}, fmt.Errorf("gateway: snapshot response: X-Ndpcr-Step: %w", err)
	}
	return Checkpoint{ID: id, Step: step, Level: resp.Header.Get("X-Ndpcr-Level")}, nil
}

// streamSnapshot decodes a snapshot-bearing response, streaming the payload
// into w; the returned Checkpoint has the identity and no Data. A body short
// of its Content-Length (a restore that failed mid-stream) is an error.
func streamSnapshot(resp *http.Response, w io.Writer) (Checkpoint, error) {
	defer resp.Body.Close()
	ck, err := snapshotHead(resp)
	if err != nil {
		return Checkpoint{}, err
	}
	// A bytes.Buffer takes the body in one allocation (MinRead to spare, or
	// ReadFrom regrows it all to see EOF); no lying header sizes it.
	if g, ok := w.(interface{ Grow(int) }); ok && resp.ContentLength > 0 && resp.ContentLength < 1<<32 {
		g.Grow(int(resp.ContentLength) + bytes.MinRead)
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return Checkpoint{}, fmt.Errorf("gateway: reading snapshot: %w", err)
	}
	return ck, nil
}

// snapshotFrom reads a snapshot-bearing response into memory. A body of
// known length (every snapshot the gateway serves) lands in a buffer of
// exactly that length, read on to EOF so the client keeps the connection; no
// lying header past 4 GiB sizes it. One without a length grows a
// bytes.Buffer.
func snapshotFrom(resp *http.Response, err error) (Checkpoint, error) {
	if err != nil {
		return Checkpoint{}, err
	}
	if n := resp.ContentLength; n < 0 || n >= 1<<32 {
		var buf bytes.Buffer
		ck, err := streamSnapshot(resp, &buf)
		if err != nil {
			return Checkpoint{}, err
		}
		ck.Data = buf.Bytes()
		return ck, nil
	}
	defer drain(resp)
	ck, err := snapshotHead(resp)
	if err != nil {
		return Checkpoint{}, err
	}
	ck.Data = make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(resp.Body, ck.Data); err != nil {
		return Checkpoint{}, fmt.Errorf("gateway: reading snapshot: %w", err)
	}
	return ck, nil
}

// ckptTail is the path tail and query of one checkpoint's endpoint.
func ckptTail(rank int, id uint64) string {
	return "/checkpoints/" + strconv.FormatUint(id, 10) + "?rank=" + strconv.Itoa(rank)
}

// Load restores one specific checkpoint ID.
func (c *Client) Load(ctx context.Context, ns, run string, rank int, id uint64) (Checkpoint, error) {
	return snapshotFrom(c.do(ctx, http.MethodGet, ns, run, ckptTail(rank, id), nil))
}

// LoadTo is Load streaming the payload into w as the gateway streams it out
// of the store. On error w may hold a prefix of the snapshot.
func (c *Client) LoadTo(ctx context.Context, ns, run string, rank int, id uint64, w io.Writer) (Checkpoint, error) {
	resp, err := c.do(ctx, http.MethodGet, ns, run, ckptTail(rank, id), nil)
	if err != nil {
		return Checkpoint{}, err
	}
	return streamSnapshot(resp, w)
}

// Delete removes one checkpoint, and what this client knows of its
// durability.
func (c *Client) Delete(ctx context.Context, ns, run string, rank int, id uint64) error {
	c.acks.forget(ackKey{ns: ns, run: run, rank: rank, id: id})
	resp, err := c.do(ctx, http.MethodDelete, ns, run, ckptTail(rank, id), nil)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// Resume restores rank's newest checkpoint; with ranks > 0 it restores
// this rank's member of the newest restart line common to ranks [0,ranks).
func (c *Client) Resume(ctx context.Context, ns, run string, rank, ranks int) (Checkpoint, error) {
	tail := "/resume?rank=" + strconv.Itoa(rank)
	if ranks > 0 {
		tail += "&ranks=" + strconv.Itoa(ranks)
	}
	return snapshotFrom(c.do(ctx, http.MethodGet, ns, run, tail, nil))
}

// RestorePlan mirrors the restore endpoint's plan-mode response.
type RestorePlan struct {
	Line        uint64   `json:"line"`
	SourceRanks int      `json:"source_ranks"`
	TargetRanks int      `json:"target_ranks"`
	TotalShards int      `json:"total_shards"`
	Identity    bool     `json:"identity"`
	FailedLines []uint64 `json:"failed_lines"`
	Targets     []struct {
		Target  int `json:"target"`
		Fetches []struct {
			SourceRank int    `json:"source_rank"`
			Line       uint64 `json:"line"`
			Lo         int    `json:"lo"`
			Hi         int    `json:"hi"`
			Whole      bool   `json:"whole"`
		} `json:"fetches"`
	} `json:"targets"`
}

func restoreBody(ranks, targetRanks int, line uint64) []byte {
	b, _ := json.Marshal(restoreRequest{Ranks: ranks, TargetRanks: targetRanks, Line: line})
	return b
}

// PlanRestore asks the gateway to plan an elastic restart of a job
// checkpointed at ranks ranks onto targetRanks ranks. line pins a restart
// line; zero picks the newest, falling back across older lines. No
// payload bytes move: the returned plan says which source shard ranges
// each restart target will fetch.
func (c *Client) PlanRestore(ctx context.Context, ns, run string, ranks, targetRanks int, line uint64) (RestorePlan, error) {
	resp, err := c.do(ctx, http.MethodPost, ns, run, "/restore", restoreBody(ranks, targetRanks, line))
	if err != nil {
		return RestorePlan{}, err
	}
	var out RestorePlan
	if err := decodeJSON(resp, &out); err != nil {
		return RestorePlan{}, fmt.Errorf("gateway: decoding restore plan: %w", err)
	}
	return out, nil
}

// RestoreMember executes member's slice of an elastic restart plan and
// returns the re-sharded snapshot that target boots from. Pin line (from a
// prior PlanRestore) when restoring several members so they all restore
// the same cut.
func (c *Client) RestoreMember(ctx context.Context, ns, run string, ranks, targetRanks, member int, line uint64) (Checkpoint, error) {
	tail := "/restore?member=" + strconv.Itoa(member)
	return snapshotFrom(c.do(ctx, http.MethodPost, ns, run, tail, restoreBody(ranks, targetRanks, line)))
}
