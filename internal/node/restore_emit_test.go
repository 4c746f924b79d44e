package node

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// pieces is a Sink that records how it was called and what it was handed.
type pieces struct {
	opened int
	size   int64
	level  Level
	meta   Metadata
	n      int // pieces emitted
	data   []byte
}

func (p *pieces) sink(meta Metadata, size int64, level Level) (func([]byte) error, error) {
	p.opened++
	p.meta, p.size, p.level = meta, size, level
	return func(b []byte) error {
		p.n++
		p.data = append(p.data, b...)
		return nil
	}, nil
}

// TestStreamedEqualsAssembled: for every object shape the drain produces,
// the pieces the emitter hands a sink, concatenated, are the committed
// snapshot — the same bytes the []byte restore returns — and the sink was
// told the exact size before the first of them.
func TestStreamedEqualsAssembled(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	for name, tc := range map[string]struct {
		codec      compress.Codec
		size       int
		multiPiece bool
	}{
		"raw, short last block": {size: 10_000, multiPiece: true},
		"raw, whole blocks":     {size: 8192, multiPiece: true},
		"raw, single block":     {size: 1000},
		"gzip":                  {codec: gz, size: 300_000, multiPiece: true},
	} {
		t.Run(name, func(t *testing.T) {
			n, _ := newNode(t, func(c *Config) { c.Codec = tc.codec })
			snap := snapshot(tc.size, 0)
			id, err := n.Commit(context.Background(), snap, Metadata{})
			if err != nil {
				t.Fatal(err)
			}
			waitDrained(t, n, id)
			n.FailLocal()

			var got pieces
			if err := n.RestoreIDTo(context.Background(), id, got.sink); err != nil {
				t.Fatal(err)
			}
			if got.opened != 1 || got.size != int64(len(snap)) || got.level != LevelIO || got.meta.ID != id {
				t.Errorf("sink opened %d times with size %d, level %v, id %d; want once, %d, io, %d",
					got.opened, got.size, got.level, got.meta.ID, len(snap), id)
			}
			if !bytes.Equal(got.data, snap) {
				t.Error("streamed pieces differ from the committed snapshot")
			}
			if tc.multiPiece && got.n < 2 {
				t.Errorf("a multi-block object arrived in %d piece(s): assembled, not streamed", got.n)
			}
			whole, _, level, err := n.RestoreID(context.Background(), id)
			if err != nil || level != LevelIO || !bytes.Equal(whole, snap) {
				t.Errorf("RestoreID: level %v, err %v, match %v", level, err, bytes.Equal(whole, snap))
			}
		})
	}
}

// blockStore counts GetBlock calls and can fail one block index.
type blockStore struct {
	iostore.Backend
	calls  atomic.Int64
	failAt int // -1: none
}

var errBlockGone = errors.New("block gone")

func (s *blockStore) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	s.calls.Add(1)
	if index == s.failAt {
		return nil, errBlockGone
	}
	return s.Backend.GetBlock(ctx, key, index)
}

// putRaw stores an uncompressed object of the given blocks claiming origSize.
func putRaw(t *testing.T, store iostore.Backend, id uint64, origSize int64, blocks [][]byte) {
	t.Helper()
	if err := store.Put(context.Background(), iostore.Object{
		Key:      iostore.Key{Job: "job", Rank: 0, ID: id},
		OrigSize: origSize,
		Blocks:   blocks,
		Meta:     Metadata{Job: "job", Rank: 0, Step: 1}.toMap(id),
	}); err != nil {
		t.Fatal(err)
	}
}

func rawBlocks(count, size int) [][]byte {
	blocks := make([][]byte, count)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, size)
	}
	return blocks
}

// TestBlockErrorNeverYieldsShortData: a block that cannot be fetched fails
// the restore — the []byte form returns no data, the streaming form reports
// the error after a prefix, never a clean end.
func TestBlockErrorNeverYieldsShortData(t *testing.T) {
	store := &blockStore{Backend: iostore.New(nvm.Pacer{}), failAt: 5}
	n, err := New(Config{Job: "job", Rank: 0, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	n.fetchWindow = 1
	defer n.Close()
	putRaw(t, store, 3, 10*100, rawBlocks(10, 100))

	data, _, level, err := n.RestoreID(context.Background(), 3)
	if !errors.Is(err, errBlockGone) || data != nil || level != LevelNone {
		t.Errorf("RestoreID = %d bytes, level %v, err %v; want no data and the block's error", len(data), level, err)
	}
	var got pieces
	if err := n.RestoreIDTo(context.Background(), 3, got.sink); !errors.Is(err, errBlockGone) {
		t.Errorf("RestoreIDTo err = %v, want the block's error", err)
	}
	if len(got.data) >= 1000 || !bytes.Equal(got.data, bytes.Join(rawBlocks(10, 100), nil)[:len(got.data)]) {
		t.Errorf("a failed stream emitted %d bytes that are not a proper prefix", len(got.data))
	}
}

// TestSlowConsumerBoundsFetchAhead gates the consumer and counts the
// store's GetBlock calls: with the consumer holding block i, the fetchers
// run ahead to block i+2×window and no further. A pinned fetchWindow is the
// window, in blocks; the default sizes it per object from bytes in flight —
// as many blocks as fit fetchBudget, at least 4.
func TestSlowConsumerBoundsFetchAhead(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		prefetch             int
		numBlocks, blockSize int
		window               int
	}{
		{"explicit block count", 2, 24, 64, 2},
		{"default, small blocks: the byte budget", 0, 260, 64 << 10, 128},
		{"default, 1 MiB blocks: the byte budget", 0, 20, 1 << 20, 8},
		{"default, 4 MiB blocks: the floor", 0, 10, 4 << 20, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			window, numBlocks := tc.window, tc.numBlocks
			store := &blockStore{Backend: iostore.New(nvm.Pacer{}), failAt: -1}
			n, err := New(Config{Job: "job", Rank: 0, Store: store, DisableNDP: true})
			if err != nil {
				t.Fatal(err)
			}
			n.fetchWindow = tc.prefetch
			defer n.Close()
			putRaw(t, store, 1, int64(numBlocks*tc.blockSize), rawBlocks(numBlocks, tc.blockSize))

			deadline := time.Now().Add(10 * time.Second)
			i := 0
			err = n.RestoreIDTo(context.Background(), 1, func(Metadata, int64, Level) (func([]byte) error, error) {
				return func([]byte) error {
					want := int64(min(i+2*window, numBlocks))
					// The fetchers get as far ahead as their tokens let them...
					for store.calls.Load() < want {
						if time.Now().After(deadline) {
							t.Fatalf("consumer at block %d: %d blocks fetched, never reached %d", i, store.calls.Load(), want)
						}
						runtime.Gosched()
					}
					// ...and, given every chance to, no further.
					for k := 0; k < 200; k++ {
						runtime.Gosched()
					}
					if got := store.calls.Load(); got != want {
						t.Errorf("consumer at block %d: %d blocks fetched, want %d (2×window ahead)", i, got, want)
					}
					i++
					return nil
				}, nil
			})
			if err != nil || i != numBlocks {
				t.Fatalf("restore: %d pieces, err %v", i, err)
			}
		})
	}
}

// gatedFetchStore parks every GetBlock, counting arrivals, until a receive
// from gate lets it through (closing gate lets all through); a let-through
// fetch fails with fail when it is set. A parked fetch whose context ends
// returns at once.
type gatedFetchStore struct {
	iostore.Backend
	arrived atomic.Int64
	gate    chan struct{}
	fail    error
}

func (s *gatedFetchStore) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	s.arrived.Add(1)
	select {
	case <-s.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if s.fail != nil {
		return nil, s.fail
	}
	return s.Backend.GetBlock(ctx, key, index)
}

// settle yields the processor until n() stops changing — every goroutine
// that could still move it has had its turn — and returns the value. It runs
// on one P, so the caller's yields hand that P to the runnable goroutines and
// none of them waits on an OS thread the host has descheduled. No clock: a
// count that stalls short of what a test wants is a failure the test
// reports, not a hang.
func settle[T comparable](n func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	v := n()
	for still := 0; still < 10000; still++ {
		runtime.Gosched()
		if w := n(); w != v {
			v, still = w, 0
		}
	}
	return v
}

// TestFetchWindowIsBytesInFlight: with every GetBlock parked, a restore has
// exactly fetchBudget ÷ block size fetches in flight — 128 of 64 KiB blocks, 8
// of 1 MiB — and restores byte-identical once they are let through.
func TestFetchWindowIsBytesInFlight(t *testing.T) {
	for _, tc := range []struct{ numBlocks, blockSize, want int }{
		{256, 64 << 10, 128},
		{16, 1 << 20, 8},
	} {
		store := &gatedFetchStore{Backend: iostore.New(nvm.Pacer{}), gate: make(chan struct{})}
		n, err := New(Config{Job: "job", Rank: 0, Store: store, DisableNDP: true})
		if err != nil {
			t.Fatal(err)
		}
		blocks := rawBlocks(tc.numBlocks, tc.blockSize)
		putRaw(t, store, 1, int64(tc.numBlocks*tc.blockSize), blocks)
		var data []byte
		done := make(chan error, 1)
		go func() {
			var err error
			data, _, _, err = n.RestoreID(context.Background(), 1)
			done <- err
		}()
		if got := settle(store.arrived.Load); got != int64(tc.want) {
			t.Errorf("%d KiB blocks: %d fetches parked in the store, want %d", tc.blockSize>>10, got, tc.want)
		}
		close(store.gate)
		if err := <-done; err != nil || !bytes.Equal(data, bytes.Join(blocks, nil)) {
			t.Errorf("%d KiB blocks: restore err %v, identical %v", tc.blockSize>>10, err, bytes.Equal(data, bytes.Join(blocks, nil)))
		}
		n.Close()
	}
}

// TestHostileShapeCannotWidenTheWindow: a StatBlocks answer of 2^20 one-byte
// blocks passes every shape check and sizes the window from a one-byte block,
// yet no more than ndp's cap of 1024 fetches are ever in flight; the first
// block error fails the restore and leaves no goroutine behind.
func TestHostileShapeCannotWidenTheWindow(t *testing.T) {
	const numBlocks = 1 << 20
	meta := Metadata{Job: "job", Rank: 0, Step: 1}.toMap(5)
	stat := &statBlocksStore{Backend: iostore.New(nvm.Pacer{})}
	stat.reply = func(key iostore.Key) (iostore.Object, int, bool, error) {
		return iostore.Object{Key: key, OrigSize: numBlocks, Meta: meta}, numBlocks, true, nil
	}
	store := &gatedFetchStore{Backend: stat, gate: make(chan struct{}), fail: errBlockGone}
	n, err := New(Config{Job: "job", Rank: 0, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := n.RestoreID(context.Background(), 5)
		done <- err
	}()
	if got := settle(store.arrived.Load); got != 1024 {
		t.Errorf("%d fetches in flight for %d one-byte blocks, want the cap of 1024", got, numBlocks)
	}
	store.gate <- struct{}{} // one fetch fails; the rest are cancelled
	if err := <-done; !errors.Is(err, errBlockGone) {
		t.Errorf("restore err = %v, want the block's error", err)
	}
	if after := settle(runtime.NumGoroutine); after > before {
		t.Errorf("%d goroutines after the failed restore, %d before it", after, before)
	}
}

// TestBlocksMustSumToDeclaredSize: blocks that run past the size the object
// declares fail the restore before the excess reaches the sink; blocks that
// fall short fail it at the end. Both are ErrBadObject.
func TestBlocksMustSumToDeclaredSize(t *testing.T) {
	n, store := newNode(t, func(c *Config) { c.DisableNDP = true })
	for name, tc := range map[string]struct {
		declared   int64
		maxEmitted int
	}{
		"past the declared size":     {250, 200},
		"short of the declared size": {1000, 400},
	} {
		putRaw(t, store, 9, tc.declared, rawBlocks(4, 100))
		var got pieces
		err := n.RestoreIDTo(context.Background(), 9, got.sink)
		if !errors.Is(err, ErrBadObject) {
			t.Errorf("%s: err = %v, want ErrBadObject", name, err)
		}
		if got.size != tc.declared || len(got.data) > tc.maxEmitted {
			t.Errorf("%s: sink promised %d bytes and handed %d, want at most %d",
				name, got.size, len(got.data), tc.maxEmitted)
		}
		if data, _, _, err := n.RestoreID(context.Background(), 9); err == nil || data != nil {
			t.Errorf("%s: RestoreID returned %d bytes, err %v", name, len(data), err)
		}
	}
}

// abandonStore fails block 1 — once block 2's fetch is under way — and holds
// block 2 until its context ends: the stalled replica a failed restore must
// not wait out.
type abandonStore struct {
	iostore.Backend
	entered   chan struct{} // closed when GetBlock(2) is in flight
	cancelled atomic.Bool   // GetBlock(2) saw its context end
}

func (s *abandonStore) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	switch index {
	case 1:
		<-s.entered
		return nil, errBlockGone
	case 2:
		close(s.entered)
		select {
		case <-ctx.Done():
			s.cancelled.Store(true)
			return nil, ctx.Err()
		case <-time.After(10 * time.Second): // watchdog: nobody cancelled
			return nil, errors.New("fetch of block 2 was never cancelled")
		}
	}
	return s.Backend.GetBlock(ctx, key, index)
}

// TestFailedRestoreStopsItsFetchers: a restore that fails on one block
// cancels the fetches still in flight instead of waiting for each to come
// back (up to one store CallTimeout per stalled replica).
func TestFailedRestoreStopsItsFetchers(t *testing.T) {
	store := &abandonStore{Backend: iostore.New(nvm.Pacer{}), entered: make(chan struct{})}
	n, err := New(Config{Job: "job", Rank: 0, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	n.fetchWindow = 4
	defer n.Close()
	putRaw(t, store, 3, 8*100, rawBlocks(8, 100))

	var got pieces
	if err := n.RestoreIDTo(context.Background(), 3, got.sink); !errors.Is(err, errBlockGone) {
		t.Errorf("RestoreIDTo err = %v, want block 1's error", err)
	}
	if !store.cancelled.Load() {
		t.Error("the restore waited out an in-flight fetch instead of cancelling it")
	}
}
