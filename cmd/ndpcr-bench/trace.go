package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/gateway"
	"ndpcr/internal/node/iostore"
)

// layer names the boundary a span was recorded at. All of them are
// boundaries the bench owns: nothing inside the stack is instrumented, so
// NVM, NDP and NIC time is whatever a gateway handler span does not spend
// in compress or store spans, and reports as "node".
type layer uint8

const (
	layerClient   layer = iota // bench client: request sent → response read and decoded
	layerHTTP                  // handler wrapper: request-body reads and response writes (body I/O)
	layerGateway               // handler wrapper: the gateway.Server handler
	layerCompress              // codec wrapper
	layerShard                 // gateway → shardstore.Store
	layerIod                   // shardstore → one iod.Client
	layerIostore               // one iod.Server → its backing store
	numLayers
)

var layerNames = [numLayers]string{"client", "http", "gateway", "compress", "shardstore", "iod", "iostore"}

type opKind uint8

const (
	opSave opKind = iota // client and gateway spans
	opLoad
	opDurable
	opDelete
	opOther
	opPut // store spans: Put, PutBlock
	opGet // Get, GetBlock
	opMeta
	opCompress // codec spans
	opDecompress
	numKinds
)

var opNames = [numKinds]string{"save", "load", "durable", "delete", "other", "put", "get", "meta", "compress", "decompress"}

// span is one call across a boundary. Times are offsets from the
// recorder's epoch. Codec spans carry no key: the codec interface has
// none, so they are attributed by time (see attribute).
type span struct {
	layer   layer
	kind    opKind
	backend int // iod/iostore backend index, -1 elsewhere
	job     string
	rank    int
	id      uint64
	idx     int // block index, -1 for whole-object and meta calls
	start   time.Duration
	end     time.Duration
	bytes   int
	op      int // index of the client op it was attributed to, -1 for background work
}

func (s span) interval() interval { return interval{s.start, s.end} }

// recorder keeps spans in memory. Recording is switched per round so a
// traced run can time traced and untraced rounds against each other.
type recorder struct {
	epoch   time.Time
	enabled atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) on() bool { return r != nil && r.enabled.Load() }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) add(s span) {
	s.op = -1
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// writeSpans dumps every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		err := enc.Encode(map[string]any{
			"layer": layerNames[s.layer], "kind": opNames[s.kind], "backend": s.backend,
			"job": s.job, "rank": s.rank, "id": s.id, "block": s.idx,
			"start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds(),
			"bytes": s.bytes, "client_op": s.op,
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedBackend times every call across one iostore.Backend boundary.
type tracedBackend struct {
	next    iostore.Backend
	rec     *recorder
	layer   layer
	backend int
}

func noSpan(int) {}

// begin starts a span and returns the function that ends it, given the
// payload bytes the call moved.
func (t *tracedBackend) begin(kind opKind, key iostore.Key, idx int) func(bytes int) {
	if !t.rec.on() {
		return noSpan
	}
	start := t.rec.now()
	return func(bytes int) {
		t.rec.add(span{layer: t.layer, kind: kind, backend: t.backend,
			job: key.Job, rank: key.Rank, id: key.ID, idx: idx,
			start: start, end: t.rec.now(), bytes: bytes})
	}
}

func (t *tracedBackend) Put(ctx context.Context, o iostore.Object) error {
	end := t.begin(opPut, o.Key, -1)
	err := t.next.Put(ctx, o)
	end(int(o.StoredSize()))
	return err
}

func (t *tracedBackend) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	end := t.begin(opPut, key, index)
	err := t.next.PutBlock(ctx, key, meta, index, block)
	end(len(block))
	return err
}

func (t *tracedBackend) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	end := t.begin(opGet, key, -1)
	o, err := t.next.Get(ctx, key)
	end(int(o.StoredSize()))
	return o, err
}

func (t *tracedBackend) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	end := t.begin(opGet, key, index)
	b, err := t.next.GetBlock(ctx, key, index)
	end(len(b))
	return b, err
}

func (t *tracedBackend) Delete(ctx context.Context, key iostore.Key) error {
	end := t.begin(opMeta, key, -1)
	err := t.next.Delete(ctx, key)
	end(0)
	return err
}

func (t *tracedBackend) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	end := t.begin(opMeta, key, -1)
	o, ok, err := t.next.Stat(ctx, key)
	end(0)
	return o, ok, err
}

func (t *tracedBackend) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	end := t.begin(opMeta, key, -1)
	o, n, ok, err := t.next.StatBlocks(ctx, key)
	end(0)
	return o, n, ok, err
}

func (t *tracedBackend) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	end := t.begin(opMeta, iostore.Key{Job: job, Rank: rank}, -1)
	ids, err := t.next.IDs(ctx, job, rank)
	end(0)
	return ids, err
}

func (t *tracedBackend) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	end := t.begin(opMeta, iostore.Key{Job: job, Rank: rank}, -1)
	id, ok, err := t.next.Latest(ctx, job, rank)
	end(0)
	return id, ok, err
}

func (t *tracedBackend) Keys(ctx context.Context) ([]iostore.Key, error) {
	end := t.begin(opMeta, iostore.Key{}, -1)
	keys, err := t.next.Keys(ctx)
	end(0)
	return keys, err
}

// pacedBackend is the device of paced_small_blocks: a fixed sleep per
// block operation (whole-object calls pay one sleep per block), so the
// store is latency-bound with an idle CPU. slept counts the sleep asked
// for, which is what iostore.paced_sleep_share divides by the time spent.
type pacedBackend struct {
	iostore.Backend
	perBlock time.Duration
	sleep    func(time.Duration)
	slept    *atomic.Int64
}

func (p *pacedBackend) pace(blocks int) {
	d := time.Duration(blocks) * p.perBlock
	p.slept.Add(int64(d))
	p.sleep(d)
}

func (p *pacedBackend) Put(ctx context.Context, o iostore.Object) error {
	p.pace(len(o.Blocks))
	return p.Backend.Put(ctx, o)
}

func (p *pacedBackend) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	p.pace(1)
	return p.Backend.PutBlock(ctx, key, meta, index, block)
}

func (p *pacedBackend) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	o, err := p.Backend.Get(ctx, key)
	p.pace(len(o.Blocks))
	return o, err
}

func (p *pacedBackend) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	p.pace(1)
	return p.Backend.GetBlock(ctx, key, index)
}

// tracedCodec times gzip(1) under a name of its own. The drain stamps the
// codec's name into every object, so restore's compress.Lookup finds this
// wrapper too. The compress registry is process-global and refuses
// duplicates, hence one instance whose recorder is swapped per stack.
type tracedCodec struct {
	next compress.Codec
	rec  atomic.Pointer[recorder]
}

var (
	benchCodec     *tracedCodec
	benchCodecOnce sync.Once
)

func tracedGzip(rec *recorder) (compress.Codec, error) {
	gz, err := compress.Lookup("gzip", 1)
	if err != nil {
		return nil, err
	}
	benchCodecOnce.Do(func() {
		benchCodec = &tracedCodec{next: gz}
		compress.Register(benchCodec)
	})
	benchCodec.rec.Store(rec)
	return benchCodec, nil
}

func (c *tracedCodec) Name() string { return "benchgzip" }
func (c *tracedCodec) Level() int   { return c.next.Level() }

func (c *tracedCodec) record(kind opKind, start time.Duration, rec *recorder, bytes int) {
	rec.add(span{layer: layerCompress, kind: kind, backend: -1, idx: -1,
		start: start, end: rec.now(), bytes: bytes})
}

func (c *tracedCodec) Compress(dst, src []byte) ([]byte, error) {
	rec := c.rec.Load()
	if !rec.on() {
		return c.next.Compress(dst, src)
	}
	start := rec.now()
	out, err := c.next.Compress(dst, src)
	c.record(opCompress, start, rec, len(out)-len(dst))
	return out, err
}

func (c *tracedCodec) Decompress(dst, src []byte) ([]byte, error) {
	rec := c.rec.Load()
	if !rec.on() {
		return c.next.Decompress(dst, src)
	}
	start := rec.now()
	out, err := c.next.Decompress(dst, src)
	c.record(opDecompress, start, rec, len(src))
	return out, err
}

// tracedHandler times the gateway handler and, inside it, the reads of the
// request body and the writes of the response: what a checkpoint pays for
// crossing HTTP as one body, booked under the node but shown on its own.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

// ioEnvelope is first-call start to last-call end of a run of reads or
// writes; the gateway reads and writes in one tight loop each.
type ioEnvelope struct {
	rec        *recorder
	start, end time.Duration
	used       bool
}

func (e *ioEnvelope) around(call func() (int, error)) (int, error) {
	t0 := e.rec.now()
	n, err := call()
	if !e.used {
		e.start, e.used = t0, true
	}
	e.end = e.rec.now()
	return n, err
}

type timedBody struct {
	io.ReadCloser
	env ioEnvelope
}

func (b *timedBody) Read(p []byte) (int, error) {
	return b.env.around(func() (int, error) { return b.ReadCloser.Read(p) })
}

type timedWriter struct {
	http.ResponseWriter
	env ioEnvelope
}

func (w *timedWriter) Write(p []byte) (int, error) {
	return w.env.around(func() (int, error) { return w.ResponseWriter.Write(p) })
}

// classify maps a gateway request onto the span kind and checkpoint key.
// Saves learn their ID only in the response, so their spans carry ID 0 and
// are matched to client ops by job, rank and time.
func classify(r *http.Request) (opKind, iostore.Key) {
	// /v1/ns/{ns}/runs/{run}/checkpoints[/{id}[/durability]]
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/"), "/")
	if len(parts) < 6 || parts[0] != "v1" || parts[5] != "checkpoints" {
		return opOther, iostore.Key{}
	}
	key := iostore.Key{Job: gateway.JobKey(parts[2], parts[4])}
	key.Rank, _ = strconv.Atoi(r.URL.Query().Get("rank"))
	if len(parts) >= 7 {
		key.ID, _ = strconv.ParseUint(parts[6], 10, 64)
	}
	switch {
	case r.Method == http.MethodPost && len(parts) == 6:
		return opSave, key
	case r.Method == http.MethodGet && len(parts) == 7:
		return opLoad, key
	case r.Method == http.MethodGet && len(parts) == 8 && parts[7] == "durability":
		return opDurable, key
	case r.Method == http.MethodDelete && len(parts) == 7:
		return opDelete, key
	}
	return opOther, key
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on() {
		h.next.ServeHTTP(w, r)
		return
	}
	kind, key := classify(r)
	body := &timedBody{ReadCloser: r.Body, env: ioEnvelope{rec: h.rec}}
	r.Body = body
	tw := &timedWriter{ResponseWriter: w, env: ioEnvelope{rec: h.rec}}
	start := h.rec.now()
	h.next.ServeHTTP(tw, r)
	s := span{layer: layerGateway, kind: kind, backend: -1,
		job: key.Job, rank: key.Rank, id: key.ID, idx: -1, start: start, end: h.rec.now()}
	h.rec.add(s)
	for _, env := range []ioEnvelope{body.env, tw.env} {
		if env.used {
			s.layer, s.start, s.end = layerHTTP, env.start, env.end
			h.rec.add(s)
		}
	}
}

// interval arithmetic, kept free of spans so it can be tested on its own.

type interval struct{ start, end time.Duration }

func (iv interval) len() time.Duration { return iv.end - iv.start }

// clip returns the part of iv inside bounds and whether any is left.
func (iv interval) clip(bounds interval) (interval, bool) {
	if iv.start < bounds.start {
		iv.start = bounds.start
	}
	if iv.end > bounds.end {
		iv.end = bounds.end
	}
	return iv, iv.end > iv.start
}

// unionLen is the total time covered by at least one interval.
func unionLen(ivs []interval) time.Duration {
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var total, coveredTo time.Duration
	for i, iv := range sorted {
		if i == 0 || iv.start > coveredTo {
			total += iv.len()
			coveredTo = iv.end
		} else if iv.end > coveredTo {
			total += iv.end - coveredTo
			coveredTo = iv.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c, ok := c.clip(parent); ok {
			clipped = append(clipped, c)
		}
	}
	return parent.len() - unionLen(clipped)
}

// bucket is where one instant of a client operation's latency is charged.
type bucket int

const (
	bucketHTTP bucket = iota
	bucketNode
	bucketCompress
	bucketShard
	bucketIod
	bucketIostore
	numBuckets
)

var bucketNames = [numBuckets]string{"http", "node", "compress", "shardstore", "iod", "iostore"}

// attribute splits a client operation's latency over the layers: every
// instant goes to the deepest layer with a span open at that instant
// (iostore under iod under shardstore; compress; the handler itself as
// "node", and what of the client's wait lies outside the handler as
// "http"). Request-body reads and response writes happen inside the handler
// and are the node's (they are reported on their own as http.*_body_io).
// Compress and the store run side by side in the drain pipeline; an instant
// both have open is split evenly between them. The buckets always sum to
// the operation's latency, so a layer's share is the time the operation
// would lose if only that layer's exclusive time vanished.
func attribute(op interval, spans []span) [numBuckets]time.Duration {
	type edge struct {
		at    time.Duration
		layer layer
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		if iv, ok := s.interval().clip(op); ok && s.layer != layerHTTP {
			edges = append(edges, edge{iv.start, s.layer, +1}, edge{iv.end, s.layer, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	var out [numBuckets]time.Duration
	var open [numLayers]int
	charge := func(from, to time.Duration) {
		d := to - from
		if d <= 0 {
			return
		}
		store := bucket(-1)
		switch {
		case open[layerGateway] == 0:
			// The handler has answered: whatever still runs below it (the
			// drain behind an async ack) is not what the client waits for.
			out[bucketHTTP] += d
			return
		case open[layerIostore] > 0:
			store = bucketIostore
		case open[layerIod] > 0:
			store = bucketIod
		case open[layerShard] > 0:
			store = bucketShard
		}
		switch {
		case store >= 0 && open[layerCompress] > 0:
			out[store] += d / 2
			out[bucketCompress] += d - d/2
		case store >= 0:
			out[store] += d
		case open[layerCompress] > 0:
			out[bucketCompress] += d
		default:
			out[bucketNode] += d
		}
	}
	at := op.start
	for _, e := range edges {
		charge(at, e.at)
		at = e.at
		open[e.layer] += e.delta
	}
	charge(at, op.end)
	return out
}
