package iostore

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/units"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New(nvm.Pacer{})
	obj := Object{
		Key:      Key{Job: "heat", Rank: 3, ID: 7},
		Codec:    "gzip",
		OrigSize: 11,
		Blocks:   [][]byte{[]byte("hello"), []byte(" world")},
		Meta:     map[string]string{"step": "42"},
	}
	if err := s.Put(context.Background(), obj); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(context.Background(), obj.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Codec != "gzip" || got.Meta["step"] != "42" || len(got.Blocks) != 2 {
		t.Errorf("got %+v", got)
	}
	if got.StoredSize() != 11 {
		t.Errorf("stored size = %d", got.StoredSize())
	}
	// Stored blocks must not alias the caller's.
	obj.Blocks[0][0] = 'X'
	got2, _ := s.Get(context.Background(), obj.Key)
	if got2.Blocks[0][0] == 'X' {
		t.Error("store aliases caller blocks")
	}
}

func TestPutValidation(t *testing.T) {
	s := New(nvm.Pacer{})
	if err := s.Put(context.Background(), Object{}); err == nil {
		t.Error("empty job accepted")
	}
	if err := s.PutBlock(context.Background(), Key{}, Object{}, 0, nil); err == nil {
		t.Error("PutBlock with empty job accepted")
	}
}

func TestGetMissing(t *testing.T) {
	s := New(nvm.Pacer{})
	if _, err := s.Get(context.Background(), Key{Job: "x", Rank: 0, ID: 1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if _, ok, _ := s.Stat(context.Background(), Key{Job: "x"}); ok {
		t.Error("Stat found missing object")
	}
	if _, ok, _ := s.Latest(context.Background(), "x", 0); ok {
		t.Error("Latest on empty store")
	}
}

func TestPutBlockStreaming(t *testing.T) {
	s := New(nvm.Pacer{})
	key := Key{Job: "j", Rank: 1, ID: 5}
	meta := Object{Codec: "lz4", CodecLevel: 1, OrigSize: 6}
	// Blocks can arrive out of order (pipeline reordering is upstream,
	// but the store tolerates sparse writes).
	if err := s.PutBlock(context.Background(), key, meta, 1, []byte("def")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlock(context.Background(), key, meta, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Codec != "lz4" || got.CodecLevel != 1 {
		t.Errorf("meta not preserved: %+v", got)
	}
	joined := append(append([]byte{}, got.Blocks[0]...), got.Blocks[1]...)
	if !bytes.Equal(joined, []byte("abcdef")) {
		t.Errorf("blocks = %q", joined)
	}
}

func TestDelete(t *testing.T) {
	s := New(nvm.Pacer{})
	key := Key{Job: "j", Rank: 0, ID: 1}
	s.Put(context.Background(), Object{Key: key, Blocks: [][]byte{[]byte("x")}})
	s.Delete(context.Background(), key)
	if _, err := s.Get(context.Background(), key); !errors.Is(err, ErrNotFound) {
		t.Error("delete did not remove object")
	}
	s.Delete(context.Background(), key) // idempotent
}

func TestIDsAndLatest(t *testing.T) {
	s := New(nvm.Pacer{})
	for _, id := range []uint64{5, 1, 9} {
		s.Put(context.Background(), Object{Key: Key{Job: "j", Rank: 2, ID: id}, Blocks: [][]byte{{1}}})
	}
	s.Put(context.Background(), Object{Key: Key{Job: "j", Rank: 3, ID: 100}, Blocks: [][]byte{{1}}})
	s.Put(context.Background(), Object{Key: Key{Job: "other", Rank: 2, ID: 200}, Blocks: [][]byte{{1}}})

	ids, _ := s.IDs(context.Background(), "j", 2)
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 9 {
		t.Errorf("ids = %v", ids)
	}
	if latest, ok, _ := s.Latest(context.Background(), "j", 2); !ok || latest != 9 {
		t.Errorf("latest = %v, %v", latest, ok)
	}
}

func TestPacing(t *testing.T) {
	var slept units.Seconds
	s := New(nvm.Pacer{Bandwidth: 100 * units.MBps, Sleep: func(d units.Seconds) { slept += d }})
	key := Key{Job: "j", Rank: 0, ID: 1}
	s.Put(context.Background(), Object{Key: key, Blocks: [][]byte{make([]byte, 50_000_000)}}) // 0.5 s
	s.Get(context.Background(), key)                                                          // 0.5 s
	if slept < 0.99 || slept > 1.01 {
		t.Errorf("paced %v, want ~1 s", slept)
	}
	before := slept
	s.Stat(context.Background(), key)
	s.IDs(context.Background(), "j", 0)
	if slept != before {
		t.Error("metadata operations paced")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Job: "heat", Rank: 3, ID: 7}
	if k.String() != "heat/rank3/ckpt7" {
		t.Errorf("String = %q", k.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	s := New(nvm.Pacer{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := Key{Job: "j", Rank: g, ID: uint64(i)}
				if err := s.PutBlock(context.Background(), key, Object{OrigSize: 4}, 0, []byte("data")); err != nil {
					t.Errorf("PutBlock: %v", err)
					return
				}
				s.Get(context.Background(), key)
				s.Latest(context.Background(), "j", g)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if latest, ok, _ := s.Latest(context.Background(), "j", g); !ok || latest != 99 {
			t.Errorf("rank %d latest = %v, %v", g, latest, ok)
		}
	}
}

// TestGetBlockNeverServesAGap: windowed block writes land out of order, so a
// writer that dies mid-object leaves indexes nothing ever wrote. Reading one
// — or an index past the end, or the whole object around it — is ErrNotFound,
// never an empty block and never a generic fault; a block that was written
// empty is served.
func TestGetBlockNeverServesAGap(t *testing.T) {
	ctx := context.Background()
	s := New(nvm.Pacer{})
	key := Key{Job: "j", Rank: 0, ID: 1}
	for _, w := range []struct {
		index int
		block []byte
	}{{0, []byte("abc")}, {2, nil}, {4, []byte("ghi")}} {
		if err := s.PutBlock(ctx, key, Object{}, w.index, w.block); err != nil {
			t.Fatal(err)
		}
	}
	for _, index := range []int{1, 3, 5, -1} {
		if b, err := s.GetBlock(ctx, key, index); !errors.Is(err, ErrNotFound) {
			t.Errorf("GetBlock(%d) of a block never written = %q, %v; want ErrNotFound", index, b, err)
		}
	}
	// StatBlocks counts the blocks held (0, 2, 4), not the length: a copy
	// with gaps disagrees with a whole one.
	if _, n, ok, err := s.StatBlocks(ctx, key); err != nil || !ok || n != 3 {
		t.Errorf("StatBlocks of 3 blocks held over 5 indexes = %d, %v, %v; want 3", n, ok, err)
	}
	if b, err := s.GetBlock(ctx, key, 2); err != nil || len(b) != 0 {
		t.Errorf("GetBlock of a block written empty = %q, %v", b, err)
	}
	if b, err := s.GetBlock(ctx, key, 4); err != nil || !bytes.Equal(b, []byte("ghi")) {
		t.Errorf("GetBlock(4) = %q, %v", b, err)
	}
	// The whole-object reads refuse it too, the store's own and the package
	// function over the block reads, each naming a gap.
	for name, get := range map[string]func(context.Context, Key) (Object, error){
		"Store.Get": s.Get,
		"Get":       func(ctx context.Context, key Key) (Object, error) { return Get(ctx, s, key) },
	} {
		if o, err := get(ctx, key); !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "block 1") {
			t.Errorf("%s of an object with gaps at 1 and 3 = %d blocks, %v; want ErrNotFound naming block 1",
				name, len(o.Blocks), err)
		}
	}
	// A whole-object Put writes every block it lists, empty ones included.
	whole := Key{Job: "j", Rank: 0, ID: 2}
	if err := s.Put(ctx, Object{Key: whole, Blocks: [][]byte{nil}}); err != nil {
		t.Fatal(err)
	}
	if b, err := s.GetBlock(ctx, whole, 0); err != nil || len(b) != 0 {
		t.Errorf("GetBlock of a Put empty block = %q, %v", b, err)
	}
	// ... and replaces what was there: a shorter re-Put under the same key
	// keeps neither the old metadata nor the old tail.
	if err := s.Put(ctx, Object{Key: whole, OrigSize: 3, Blocks: [][]byte{{'a'}, {'b'}, {'c'}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, Object{Key: whole, OrigSize: 1, Blocks: [][]byte{{'z'}}}); err != nil {
		t.Fatal(err)
	}
	if o, n, ok, err := s.StatBlocks(ctx, whole); err != nil || !ok || n != 1 || o.OrigSize != 1 {
		t.Errorf("StatBlocks after a 1-block re-Put over 3 blocks = %d blocks, OrigSize %d, %v, %v; want 1, 1",
			n, o.OrigSize, ok, err)
	}
	if b, err := s.GetBlock(ctx, whole, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetBlock(1) after the re-Put = %q, %v; want ErrNotFound", b, err)
	}
}

// TestPutBlockRejectsIndexOutOfRange: a block index arrives off the wire. One
// below zero or at or past MaxBlocks is an error — not an index-out-of-range
// panic, not a billion appended slots — and the object is left as it was.
func TestPutBlockRejectsIndexOutOfRange(t *testing.T) {
	ctx := context.Background()
	s := New(nvm.Pacer{})
	key := Key{Job: "j", Rank: 0, ID: 1}
	if err := s.PutBlock(ctx, key, Object{OrigSize: 3}, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	for _, index := range []int{-1, MaxBlocks, math.MaxInt32} {
		if err := s.PutBlock(ctx, key, Object{OrigSize: 3}, index, []byte("xyz")); err == nil {
			t.Errorf("PutBlock at index %d accepted", index)
		}
		if err := s.PutBlock(ctx, Key{Job: "j", Rank: 0, ID: 2}, Object{}, index, nil); err == nil {
			t.Errorf("PutBlock at index %d of a new object accepted", index)
		}
	}
	if o, n, ok, err := s.StatBlocks(ctx, key); err != nil || !ok || n != 1 || o.OrigSize != 3 {
		t.Errorf("StatBlocks after the refused writes = %d blocks, OrigSize %d, %v, %v; want 1, 3", n, o.OrigSize, ok, err)
	}
	if b, err := s.GetBlock(ctx, key, 0); err != nil || !bytes.Equal(b, []byte("abc")) {
		t.Errorf("GetBlock(0) after the refused writes = %q, %v", b, err)
	}
	if keys, err := s.Keys(ctx); err != nil || len(keys) != 1 {
		t.Errorf("Keys after the refused writes = %v, %v; want the one object", keys, err)
	}
	// The bound is exact (checked on the shared validation: a store would
	// grow a million slots to take the write).
	if err := checkWrite(ctx, Key{Job: "j"}, MaxBlocks-1); err != nil {
		t.Errorf("the last legal index is refused: %v", err)
	}
}

// TestFetchedBlockIsTheCallers: GetBlock's result belongs to whoever called
// it, as the buffer a device read filled would. Scribbling on it, and then
// releasing it to the pool the way a restore does, changes nothing the store
// serves afterwards — by GetBlock, by Get, or under another key written with
// the same content. The block is a pool class in size, the case where a store
// lending its own memory would see it recycled under it.
func TestFetchedBlockIsTheCallers(t *testing.T) {
	ctx := context.Background()
	want := bytes.Repeat([]byte("ndp!"), 256) // 1 KiB
	s := New(nvm.Pacer{})
	k1, k2 := Key{Job: "j", Rank: 0, ID: 1}, Key{Job: "j", Rank: 1, ID: 1}
	for _, k := range []Key{k1, k2} {
		if err := s.Put(ctx, Object{Key: k, OrigSize: 2048, Blocks: [][]byte{want, want}}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		b, err := s.GetBlock(ctx, k1, 0)
		if err != nil || !bytes.Equal(b, want) {
			t.Fatalf("round %d: GetBlock = %d bytes, %v; a caller's scribble reached the store", round, len(b), err)
		}
		for i := range b {
			b[i] = 0xEE
		}
		blockpool.Put(b)
	}
	for _, k := range []Key{k1, k2} {
		o, err := s.Get(ctx, k)
		if err != nil || len(o.Blocks) != 2 || !bytes.Equal(o.Blocks[0], want) || !bytes.Equal(o.Blocks[1], want) {
			t.Errorf("Get(%s) after scribbling on a fetched block: %v, blocks changed", k, err)
		}
	}
}
