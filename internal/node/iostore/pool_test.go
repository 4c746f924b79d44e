package iostore

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/nvm"
)

// TestRePutAfterDeleteReusesBlocks: the blocks a Delete releases are what the
// next object of the same shape is stored in. After a put/delete cycle of a
// 32 × 1 MiB object, putting it again allocates under 1 % of its bytes; a
// store that copies into fresh memory allocates all of them again. The
// lowest of three cycles counts: a goroutine that moves to another P between
// the Delete and the Put cannot reach the buffer left in the first P's
// private slot, and one 1 MiB miss is 3 %.
func TestRePutAfterDeleteReusesBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts at random under the race detector")
	}
	ctx := context.Background()
	s := New(nvm.Pacer{})
	o := Object{Key: Key{Job: "j", Rank: 0, ID: 1}, OrigSize: 32 << 20}
	for i := 0; i < 32; i++ {
		o.Blocks = append(o.Blocks, bytes.Repeat([]byte{byte(i)}, 1<<20))
	}
	if err := s.Put(ctx, o); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	least := uint64(math.MaxUint64)
	for cycle := 0; cycle < 3; cycle++ {
		if err := s.Delete(ctx, o.Key); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Put(ctx, o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(o.StoredSize() / 100); least > limit {
		t.Errorf("a put of a %d-byte object after its delete allocated %d bytes, want under %d: deleted blocks are not reused", o.StoredSize(), least, limit)
	}
	for i := range o.Blocks {
		if b, err := s.GetBlock(ctx, o.Key, i); err != nil || !bytes.Equal(b, o.Blocks[i]) {
			t.Fatalf("block %d after the re-put: %v", i, err)
		}
	}
}

// TestBlockLifetimeUnderRewriteAndDelete: a stored block goes back to the
// pool the moment PutBlock replaces it or Delete removes its object, while
// GetBlock and Get may be reading it. A GetBlock answer is the old bytes, the
// new bytes or ErrNotFound — never a torn copy, and never the 0xDB that
// blockpool.Put writes under -race (a copy-out made after the lock is dropped
// also trips the race detector). A Get answer is a whole object or an error.
func TestBlockLifetimeUnderRewriteAndDelete(t *testing.T) {
	ctx := context.Background()
	s := New(nvm.Pacer{})
	key := Key{Job: "j", Rank: 0, ID: 1}
	const size = 4 << 10 // a pool class: a released block is the next Get's
	// Version v fills the block with one byte, never 0 and never 0xDB.
	version := func(v int) []byte { return bytes.Repeat([]byte{byte(1 + v%200)}, size) }
	if err := s.PutBlock(ctx, key, Object{OrigSize: size}, 0, version(0)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				b, err := s.GetBlock(ctx, key, 0)
				switch {
				case errors.Is(err, ErrNotFound):
				case err != nil:
					t.Errorf("GetBlock: %v", err)
					return
				case len(b) != size:
					t.Errorf("GetBlock served %d bytes, want %d", len(b), size)
					return
				case b[0] == 0xDB || bytes.Count(b, b[:1]) != size:
					t.Errorf("GetBlock served a block starting %#x, not one whole version: read after release", b[0])
					return
				default:
					blockpool.Put(b)
				}
				if o, err := s.Get(ctx, key); err == nil && (len(o.Blocks) != 1 || len(o.Blocks[0]) != size) {
					t.Errorf("Get served %d blocks", len(o.Blocks))
					return
				} else if err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}()
	}
	for v := 1; v <= 1000; v++ {
		if v%5 == 0 {
			if err := s.Delete(ctx, key); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.PutBlock(ctx, key, Object{OrigSize: size}, 0, version(v)); err != nil {
			t.Fatal(err)
		}
		if v%64 == 0 {
			runtime.Gosched() // one core: let the readers in
		}
	}
	close(done)
	wg.Wait()
}

// TestGetResultIsTheCallersHeader: Get's Blocks slice is a copy of the
// store's, so a rewrite that lands while the caller walks it writes the
// store's array, not the caller's (a data race under -race otherwise). The
// caller reads the headers only: the blocks themselves are lent, valid until
// rewritten.
func TestGetResultIsTheCallersHeader(t *testing.T) {
	ctx := context.Background()
	s := New(nvm.Pacer{})
	key := Key{Job: "j", Rank: 0, ID: 1}
	if err := s.Put(ctx, Object{Key: key, Blocks: [][]byte{{1}, {2}, {3}, {4}}}); err != nil {
		t.Fatal(err)
	}
	o, err := s.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := s.PutBlock(ctx, key, Object{}, i%4, []byte{9, 9}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for j, b := range o.Blocks {
			if len(b) != 1 {
				t.Fatalf("block %d of a Get result changed length to %d under a rewrite", j, len(b))
			}
		}
		runtime.Gosched()
	}
	<-done
}

// TestStoredBytesGaugeIsRunningTotal: ndpcr_iostore_stored_bytes is a running
// total kept by PutBlock and Delete, not a walk of the store. It equals the
// sum of StoredSize over what the store holds after puts, rewrites to a
// different length, gaps, and deletes.
func TestStoredBytesGaugeIsRunningTotal(t *testing.T) {
	ctx := context.Background()
	s := New(nvm.Pacer{})
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	check := func(step string) {
		t.Helper()
		var want int64
		s.mu.RLock()
		for _, o := range s.objects {
			want += o.StoredSize()
		}
		s.mu.RUnlock()
		var sb strings.Builder
		if err := reg.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "ndpcr_iostore_stored_bytes "); ok {
				if got, err := strconv.ParseFloat(v, 64); err != nil || int64(got) != want {
					t.Errorf("%s: gauge reads %s, the store holds %d bytes", step, v, want)
				}
				return
			}
		}
		t.Fatalf("%s: no ndpcr_iostore_stored_bytes series", step)
	}
	a, b := Key{Job: "j", Rank: 0, ID: 1}, Key{Job: "j", Rank: 1, ID: 1}
	if err := s.Put(ctx, Object{Key: a, Blocks: [][]byte{make([]byte, 1000), make([]byte, 3000)}}); err != nil {
		t.Fatal(err)
	}
	check("put")
	s.PutBlock(ctx, b, Object{}, 2, make([]byte, 700)) // blocks 0 and 1 are gaps
	check("sparse put")
	s.PutBlock(ctx, a, Object{}, 1, make([]byte, 10))
	check("shorter rewrite")
	s.PutBlock(ctx, b, Object{}, 2, make([]byte, 5000))
	check("longer rewrite")
	s.Delete(ctx, a)
	check("delete")
	s.Delete(ctx, a)
	check("delete of an absent key")
	s.Delete(ctx, b)
	check("last delete")
}
