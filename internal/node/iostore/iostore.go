// Package iostore models the global (parallel-file-system) checkpoint
// store shared by all compute nodes. Objects are keyed by (job, rank,
// checkpoint ID) and carry the framing metadata needed to reassemble and
// decompress a drained checkpoint. Per-node bandwidth pacing models the
// paper's 100 MB/s effective per-node share of global I/O (§3.4).
package iostore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/nvm"
)

// ErrNotFound reports a missing object.
var ErrNotFound = errors.New("iostore: object not found")

// Key identifies one rank's checkpoint.
type Key struct {
	Job  string
	Rank int
	ID   uint64
}

func (k Key) String() string { return fmt.Sprintf("%s/rank%d/ckpt%d", k.Job, k.Rank, k.ID) }

// Object is a stored checkpoint plus reassembly metadata.
type Object struct {
	Key Key
	// Codec names the compression codec ("" = uncompressed).
	Codec string
	// CodecLevel is the codec's level (meaningful when Codec != "").
	CodecLevel int
	// OrigSize is the uncompressed checkpoint size.
	OrigSize int64
	// Blocks holds the (possibly compressed) data blocks in order. Blocks
	// are independent so restore can decompress them in parallel (§4.3).
	Blocks [][]byte
	// Meta carries BLCR-style identification.
	Meta map[string]string
}

// StoredSize returns the total stored bytes across blocks.
func (o Object) StoredSize() int64 {
	var n int64
	for _, b := range o.Blocks {
		n += int64(len(b))
	}
	return n
}

// Backend is the global-store surface the node runtime drains to and
// restores from — one unified, error-first, context-first interface.
// Store implements it in-process; internal/iod implements it over TCP
// against a remote I/O node (§4.2.2: "the NDP must be able to operate the
// relevant system code for running the network stack"); internal/shardstore
// implements it across many I/O nodes with replication.
//
// Design rules the surface obeys (learned the hard way — the prior API
// masked transport failures behind bool "ok"s and hid the streaming and
// error-surfacing extensions behind optional type assertions):
//
//   - Every method can report failure. Stat/IDs/Latest distinguish "this
//     level has no checkpoint" (ok=false / empty, err=nil) from "this level
//     is unreachable" (err != nil): over a network transport the conflation
//     silently deletes the I/O level from restart-line intersections.
//   - Delete returns an error, so an abort/rollback path can tell a leaked
//     object from a cleaned one.
//   - Every method takes a context: shard failover, lane-reconnect backoff
//     and retry loops in remote implementations honor cancelation and
//     deadlines.
//   - Block streaming (StatBlocks/GetBlock) is part of the surface, not an
//     optional assertion, and is the one read path restores use. StatBlocks
//     ok=false with err=nil means the object is absent; its count is the
//     blocks the backend holds, not the object's length, so a copy with a gap
//     or a short tail reports fewer than a whole one. GetBlock of a block
//     the backend does not hold — no such object, an index past its end, or
//     a gap inside it that no PutBlock ever filled (windowed writes land out
//     of order, so a writer that died mid-object leaves gaps) — wraps
//     ErrNotFound: a gap is never served as an empty block.
//   - A block has one owner at a time. PutBlock's block stays the caller's:
//     a backend copies what it keeps and does not read the slice after it
//     returns. GetBlock's result belongs to the caller, as the buffer a
//     device read filled would: the backend keeps no reference to it, and the
//     caller may change it, blockpool.Put it after its last read, or simply
//     drop it. Get's blocks are the exception that stays read-only — they
//     may be the backend's own memory, valid until the key is deleted or
//     that block rewritten (Store pools what it keeps and recycles it then).
//   - A stored object is its blocks. Put, Get, Stat and Latest have one
//     meaning for every backend, the package functions of the same names over
//     the block and listing methods; an implementation either is one call to
//     them or (Store.Get, shardstore's Put) keeps their meaning. So Get, like
//     GetBlock, never serves a gap as an empty block.
type Backend interface {
	Put(ctx context.Context, o Object) error
	PutBlock(ctx context.Context, key Key, meta Object, index int, block []byte) error
	Get(ctx context.Context, key Key) (Object, error)
	Delete(ctx context.Context, key Key) error
	Stat(ctx context.Context, key Key) (Object, bool, error)
	IDs(ctx context.Context, job string, rank int) ([]uint64, error)
	Latest(ctx context.Context, job string, rank int) (uint64, bool, error)
	StatBlocks(ctx context.Context, key Key) (meta Object, blocks int, ok bool, err error)
	GetBlock(ctx context.Context, key Key, index int) ([]byte, error)
	// Keys enumerates every object key the backend holds, sorted by
	// (job, rank, ID). It is the inventory surface that makes repair and
	// rebalance restart-blind: a fresh shardstore client (empty in-memory
	// assignment map) can still discover what each backend holds, compute
	// placement, and fix under-replication for objects written by an
	// earlier process.
	Keys(ctx context.Context) ([]Key, error)
}

// Instrument registers b's metrics with r when the backend has any. A store
// is shared by many nodes, so whoever assembles it calls this once, before
// traffic: registering again swaps the counters under in-flight calls.
func Instrument(b Backend, r *metrics.Registry) {
	if i, ok := b.(interface{ Instrument(*metrics.Registry) }); ok {
		i.Instrument(r)
	}
}

// Store is the shared global store. All methods are safe for concurrent
// use by many node goroutines. The blocks it keeps are blockpool buffers,
// released when Delete removes their object or PutBlock replaces them: every
// read of one happens under mu, so none is read after its release.
type Store struct {
	mu      sync.RWMutex
	objects map[Key]Object
	stored  int64     // bytes in the objects' blocks, kept by PutBlock and Delete
	pacer   nvm.Pacer // per-node share pacing applied to each transfer

	// Metrics (nil until Instrument is called).
	mWriteBytes *metrics.Histogram
	mReadBytes  *metrics.Histogram
}

// Instrument registers the store's metrics (object count, resident bytes,
// transfer sizes) with r.
func (s *Store) Instrument(r *metrics.Registry) {
	r.GaugeFunc("ndpcr_iostore_objects", "checkpoint objects resident in the global store",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.objects))
		})
	r.GaugeFunc("ndpcr_iostore_stored_bytes", "bytes resident in the global store",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.stored)
		})
	s.mWriteBytes = r.Histogram("ndpcr_iostore_write_bytes", "bytes per store write", metrics.UnitBytes)
	s.mReadBytes = r.Histogram("ndpcr_iostore_read_bytes", "bytes per store read", metrics.UnitBytes)
}

// New creates a store whose transfers are paced at the given per-node
// bandwidth (zero disables pacing).
func New(pacer nvm.Pacer) *Store {
	return &Store{objects: make(map[Key]Object), pacer: pacer}
}

// MaxBlocks bounds an object's block count (64 GiB of 64 KiB blocks). A
// block index arrives off the wire: one below zero or at or past the bound
// is refused before the object is touched, so a hostile frame can neither
// index out of range nor make a store append billions of empty slots.
const MaxBlocks = 1 << 20

// checkWrite is what every block write validates first: a live context, a
// named job, and a block index inside 0..MaxBlocks-1.
func checkWrite(ctx context.Context, key Key, index int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	switch {
	case key.Job == "":
		return errors.New("iostore: empty job name")
	case index < 0:
		return fmt.Errorf("iostore: %s: block index %d is negative", key, index)
	case index >= MaxBlocks:
		return fmt.Errorf("iostore: %s: block index %d is past the %d-block bound", key, index, MaxBlocks)
	}
	return nil
}

// Put stores o on b, replacing any previous version: it refuses an object of
// no blocks or more than MaxBlocks, deletes the key, then writes each block
// with PutBlock. It is not atomic: a reader may see the object absent or
// partly written, as it may during a drain.
func Put(ctx context.Context, b Backend, o Object) error {
	switch {
	case len(o.Blocks) == 0:
		return fmt.Errorf("iostore: %s: an object has at least one block", o.Key)
	case len(o.Blocks) > MaxBlocks:
		return fmt.Errorf("iostore: %s: %d blocks is past the %d-block bound", o.Key, len(o.Blocks), MaxBlocks)
	}
	if err := b.Delete(ctx, o.Key); err != nil {
		return err
	}
	meta := o
	meta.Blocks = nil
	for i, blk := range o.Blocks {
		if err := b.PutBlock(ctx, o.Key, meta, i, blk); err != nil {
			return err
		}
	}
	return nil
}

// Get reads the object under key from b: StatBlocks, then GetBlock for each
// block it holds. The blocks are the caller's, as GetBlock's are. An index the
// object does not hold — a gap a dead writer left — fails the read with an
// ErrNotFound that names the block.
func Get(ctx context.Context, b Backend, key Key) (Object, error) {
	o, n, ok, err := b.StatBlocks(ctx, key)
	switch {
	case err != nil:
		return Object{}, err
	case !ok:
		return Object{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	case n < 0 || n > MaxBlocks:
		return Object{}, fmt.Errorf("iostore: %s: a count of %d blocks is outside 0..%d", key, n, MaxBlocks)
	}
	o.Blocks = make([][]byte, n)
	for i := range o.Blocks {
		if o.Blocks[i], err = b.GetBlock(ctx, key, i); err != nil {
			return Object{}, fmt.Errorf("iostore: %s block %d: %w", key, i, err)
		}
	}
	return o, nil
}

// Stat is StatBlocks without the count: ok=false with a nil error means the
// object is absent.
func Stat(ctx context.Context, b Backend, key Key) (Object, bool, error) {
	o, _, ok, err := b.StatBlocks(ctx, key)
	return o, ok, err
}

// Latest is the newest of IDs: ok=false with a nil error means (job, rank)
// has no checkpoint on b.
func Latest(ctx context.Context, b Backend, job string, rank int) (uint64, bool, error) {
	ids, err := b.IDs(ctx, job, rank)
	if err != nil || len(ids) == 0 {
		return 0, false, err
	}
	return ids[len(ids)-1], true, nil
}

// Put implements Backend with the package function: a block write each.
func (s *Store) Put(ctx context.Context, o Object) error { return Put(ctx, s, o) }

// PutBlock writes one block of an object by index, creating the object on
// first use. This is the streaming path the NDP uses: blocks arrive as they
// are compressed (§4.2.2), each paced individually. Indexes below it that
// nothing has written yet stay nil — gaps GetBlock refuses to serve — while
// a written block is never nil, however empty. The block it replaces, if
// any, goes back to the pool.
func (s *Store) PutBlock(ctx context.Context, key Key, meta Object, index int, block []byte) error {
	if err := checkWrite(ctx, key, index); err != nil {
		return err
	}
	// Copied before the lock: every lane writing to this backend shares
	// s.mu, and a block-sized memcpy under it serialises them all.
	stored := blockpool.Get(len(block))
	copy(stored, block)
	s.mu.Lock()
	o, ok := s.objects[key]
	if !ok {
		o = meta
		o.Key = key
		o.Blocks = nil
	}
	for len(o.Blocks) <= index {
		o.Blocks = append(o.Blocks, nil)
	}
	old := o.Blocks[index]
	o.Blocks[index] = stored
	s.objects[key] = o
	s.stored += int64(len(stored) - len(old))
	s.mu.Unlock()
	blockpool.Put(old)
	s.pacer.Move(len(block))
	if s.mWriteBytes != nil {
		s.mWriteBytes.Observe(int64(len(block)))
	}
	return nil
}

// Delete removes an object (used when an aborted drain must not leave a
// torn checkpoint behind) and returns its blocks to the pool. Deleting an
// absent object is not an error.
func (s *Store) Delete(ctx context.Context, key Key) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	o := s.objects[key]
	delete(s.objects, key)
	s.stored -= o.StoredSize()
	s.mu.Unlock()
	for _, b := range o.Blocks {
		blockpool.Put(b)
	}
	return nil
}

// Get returns an object, pacing the full transfer. Its Blocks slice is the
// caller's, but the blocks are the store's own memory, lent without a copy:
// read-only, and valid until the key is deleted or that block rewritten. An
// object with a gap — an index below its last that no PutBlock filled — is
// ErrNotFound naming the gap, as GetBlock of that index is.
func (s *Store) Get(ctx context.Context, key Key) (Object, error) {
	if err := ctx.Err(); err != nil {
		return Object{}, err
	}
	s.mu.RLock()
	o, ok := s.objects[key]
	o.Blocks = append([][]byte(nil), o.Blocks...)
	s.mu.RUnlock()
	gap := -1
	for i, b := range o.Blocks {
		if b == nil {
			gap = i
			break
		}
	}
	switch {
	case !ok:
		return Object{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	case gap >= 0:
		return Object{}, fmt.Errorf("%w: %s holds no block %d", ErrNotFound, key, gap)
	}
	s.pacer.Move(int(o.StoredSize()))
	if s.mReadBytes != nil {
		s.mReadBytes.Observe(o.StoredSize())
	}
	return o, nil
}

// Stat implements Backend with the package function.
func (s *Store) Stat(ctx context.Context, key Key) (Object, bool, error) { return Stat(ctx, s, key) }

// IDs returns the checkpoint IDs stored for (job, rank), ascending.
func (s *Store) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []uint64
	for k := range s.objects {
		if k.Job == job && k.Rank == rank {
			out = append(out, k.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Keys enumerates every stored object key, sorted by (job, rank, ID).
func (s *Store) Keys(ctx context.Context) ([]Key, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	out := make([]Key, 0, len(s.objects))
	for k := range s.objects {
		out = append(out, k)
	}
	s.mu.RUnlock()
	SortKeys(out)
	return out, nil
}

// SortKeys orders keys by (job, rank, ID) — the canonical enumeration
// order every Backend's Keys must produce.
func SortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.ID < b.ID
	})
}

// Latest implements Backend with the package function.
func (s *Store) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	return Latest(ctx, s, job, rank)
}

// StatBlocks returns metadata plus the count of blocks held (a gap is not
// one), no payload and no pacing (pacing charges the blocks as they are
// fetched).
func (s *Store) StatBlocks(ctx context.Context, key Key) (Object, int, bool, error) {
	if err := ctx.Err(); err != nil {
		return Object{}, 0, false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[key]
	if !ok {
		return Object{}, 0, false, nil
	}
	n := 0
	for _, b := range o.Blocks {
		if b != nil {
			n++
		}
	}
	o.Blocks = nil
	return o, n, true, nil
}

// GetBlock returns one block's payload, paced individually so a streamed
// restore pays the same total transfer cost as a whole-object Get. The block
// is copied out into a pooled buffer, as PutBlock copied it in: the store
// never lends its memory to a caller who owns what it is handed. The copy is
// made under the read lock, so the block cannot be released mid-copy. A block
// the object does not hold (past its end, or a gap) is ErrNotFound.
func (s *Store) GetBlock(ctx context.Context, key Key, index int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []byte
	s.mu.RLock()
	o, ok := s.objects[key]
	if ok && index >= 0 && index < len(o.Blocks) && o.Blocks[index] != nil {
		b := o.Blocks[index]
		out = append(blockpool.Get(len(b))[:0], b...)
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if out == nil {
		return nil, fmt.Errorf("%w: %s holds no block %d", ErrNotFound, key, index)
	}
	s.pacer.Move(len(out))
	if s.mReadBytes != nil {
		s.mReadBytes.Observe(int64(len(out)))
	}
	return out, nil
}

// Store satisfies the unified Backend surface.
var _ Backend = (*Store)(nil)
