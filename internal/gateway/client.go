package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
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

// Client is a Go client for the gateway API, scoped to one tenant token.
type Client struct {
	base  string
	token string
	http  *http.Client
}

// writeBufferSize is the client connections' write buffer. A request whose
// headers and body fit in it leaves in one write. Past net/http's default
// 4 KiB, a body is copied through a fresh buffer per request and sent in a
// second write; a body larger than this buffer still is, after filling it.
const writeBufferSize = 64 << 10

// transport is the one transport every Client shares: http.DefaultTransport's
// settings with the larger write buffer. Its idle connections are its own;
// http.DefaultTransport.CloseIdleConnections does not reach them.
var transport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.WriteBufferSize = writeBufferSize
	return t
}()

// NewClient builds a client for the gateway at base (e.g.
// "http://127.0.0.1:9600") presenting the given bearer token.
func NewClient(base, token string) *Client {
	return &Client{base: base, token: token, http: &http.Client{Transport: transport}}
}

// Checkpoint is one restored checkpoint: its payload plus identity.
type Checkpoint struct {
	ID    uint64
	Step  int
	Level string
	Data  []byte
}

func (c *Client) runURL(ns, run, tail string) string {
	u := c.base + "/v1/ns/" + url.PathEscape(ns) + "/runs/" + url.PathEscape(run) + tail
	return u
}

func (c *Client) do(ctx context.Context, method, u string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
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
	return resp, nil
}

func decodeJSON(resp *http.Response, v any) error {
	defer drain(resp)
	return json.NewDecoder(resp.Body).Decode(v)
}

// drain reads the rest of a reply's body and closes it: net/http reuses the
// connection only for a body read to EOF, and dials a new one for the next
// request otherwise. A read that fails costs no more than that.
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
// — or whether — the checkpoint became store-durable.
func (c *Client) SaveAsync(ctx context.Context, ns, run string, rank, step int, snapshot []byte) (uint64, error) {
	return c.save(ctx, ns, run, rank, step, snapshot, "&durable=nvm")
}

// save is the one save request; mode is the durable= query suffix that
// picks who waits for the drain.
func (c *Client) save(ctx context.Context, ns, run string, rank, step int, snapshot []byte, mode string) (uint64, error) {
	u := c.runURL(ns, run, "/checkpoints") + "?rank=" + strconv.Itoa(rank) + "&step=" + strconv.Itoa(step) + mode
	resp, err := c.do(ctx, http.MethodPost, u, snapshot)
	if err != nil {
		return 0, err
	}
	var out struct {
		ID uint64 `json:"id"`
	}
	if err := decodeJSON(resp, &out); err != nil {
		return 0, fmt.Errorf("gateway: decoding save response: %w", err)
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
// gateway's drain timeout) before reporting.
func (c *Client) Durability(ctx context.Context, ns, run string, rank int, id uint64, wait string) (Durability, error) {
	u := c.runURL(ns, run, "/checkpoints/"+strconv.FormatUint(id, 10)+"/durability") +
		"?rank=" + strconv.Itoa(rank)
	if wait != "" {
		u += "&wait=" + url.QueryEscape(wait)
	}
	resp, err := c.do(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Durability{}, err
	}
	var out Durability
	if err := decodeJSON(resp, &out); err != nil {
		return Durability{}, fmt.Errorf("gateway: decoding durability response: %w", err)
	}
	return out, nil
}

// List reports the checkpoint IDs stored for rank of ns/run.
func (c *Client) List(ctx context.Context, ns, run string, rank int) ([]uint64, error) {
	u := c.runURL(ns, run, "/checkpoints") + "?rank=" + strconv.Itoa(rank)
	resp, err := c.do(ctx, http.MethodGet, u, nil)
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
// exactly that length, read on to EOF so net/http keeps the connection; no
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

func (c *Client) ckptURL(ns, run string, rank int, id uint64) string {
	return c.runURL(ns, run, "/checkpoints/"+strconv.FormatUint(id, 10)) + "?rank=" + strconv.Itoa(rank)
}

// Load restores one specific checkpoint ID.
func (c *Client) Load(ctx context.Context, ns, run string, rank int, id uint64) (Checkpoint, error) {
	return snapshotFrom(c.do(ctx, http.MethodGet, c.ckptURL(ns, run, rank, id), nil))
}

// LoadTo is Load streaming the payload into w as the gateway streams it out
// of the store. On error w may hold a prefix of the snapshot.
func (c *Client) LoadTo(ctx context.Context, ns, run string, rank int, id uint64, w io.Writer) (Checkpoint, error) {
	resp, err := c.do(ctx, http.MethodGet, c.ckptURL(ns, run, rank, id), nil)
	if err != nil {
		return Checkpoint{}, err
	}
	return streamSnapshot(resp, w)
}

// Delete removes one checkpoint.
func (c *Client) Delete(ctx context.Context, ns, run string, rank int, id uint64) error {
	resp, err := c.do(ctx, http.MethodDelete, c.ckptURL(ns, run, rank, id), nil)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// Resume restores rank's newest checkpoint; with ranks > 0 it restores
// this rank's member of the newest restart line common to ranks [0,ranks).
func (c *Client) Resume(ctx context.Context, ns, run string, rank, ranks int) (Checkpoint, error) {
	u := c.runURL(ns, run, "/resume") + "?rank=" + strconv.Itoa(rank)
	if ranks > 0 {
		u += "&ranks=" + strconv.Itoa(ranks)
	}
	return snapshotFrom(c.do(ctx, http.MethodGet, u, nil))
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
	resp, err := c.do(ctx, http.MethodPost, c.runURL(ns, run, "/restore"),
		restoreBody(ranks, targetRanks, line))
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
	u := c.runURL(ns, run, "/restore") + "?member=" + strconv.Itoa(member)
	return snapshotFrom(c.do(ctx, http.MethodPost, u, restoreBody(ranks, targetRanks, line)))
}
