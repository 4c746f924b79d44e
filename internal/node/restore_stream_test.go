package node

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"ndpcr/internal/compress"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

func TestStreamedRestoreMatchesWholeObject(t *testing.T) {
	// The streamed restore (StatBlocks, then a window of workers that each
	// GetBlock and decompress a block) must reproduce the committed snapshot byte for
	// byte — on the node that drained it and on a fresh node that only
	// shares the store.
	gz, _ := compress.Lookup("gzip", 1)
	n, store := newNode(t, func(c *Config) { c.Codec = gz })
	snap := snapshot(300_000, 7)
	id, err := n.Commit(context.Background(), snap, Metadata{Step: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	n.FailLocal()

	n2, err := New(Config{Job: "job", Rank: 0, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	for name, r := range map[string]*Node{"draining node": n, "fresh node": n2} {
		got, meta, level, err := r.Restore(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if level != LevelIO || meta.Step != 3 || !bytes.Equal(got, snap) {
			t.Errorf("%s: level=%v step=%d match=%v", name, level, meta.Step, bytes.Equal(got, snap))
		}
		if v := r.Metrics().Counter("ndpcr_node_streamed_restores_total", "").Value(); v != 1 {
			t.Errorf("%s: streamed restores = %v, want 1", name, v)
		}
	}
}

// statBlocksStore answers StatBlocks from a script and counts the calls;
// every other operation goes to the embedded store.
type statBlocksStore struct {
	iostore.Backend
	reply func(iostore.Key) (iostore.Object, int, bool, error)
	calls int
}

func (s *statBlocksStore) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	s.calls++
	return s.reply(key)
}

func TestRestoreSurfacesStatBlocksOutcome(t *testing.T) {
	// One read path: an absent key is ErrNotFound, and a StatBlocks failure
	// is that failure — asked once, with no second attempt through Get.
	melted := errors.New("tier melted")
	for name, tc := range map[string]struct {
		ok   bool
		err  error
		want error
	}{
		"absent":  {false, nil, iostore.ErrNotFound},
		"failing": {false, melted, melted},
	} {
		store := &statBlocksStore{Backend: iostore.New(nvm.Pacer{})}
		store.reply = func(iostore.Key) (iostore.Object, int, bool, error) {
			return iostore.Object{}, 0, tc.ok, tc.err
		}
		n, err := New(Config{Job: "job", Rank: 0, Store: store, DisableNDP: true})
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, err = n.RestoreID(context.Background(), 9)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: restore err = %v, want %v", name, err, tc.want)
		}
		if store.calls != 1 {
			t.Errorf("%s: StatBlocks asked %d times, want 1", name, store.calls)
		}
		n.Close()
	}
}

func TestRestoreRejectsHostileObjectShape(t *testing.T) {
	// Block count and payload size arrive off the wire; a store that lies
	// about them must fail the restore with ErrBadObject — not panic the
	// process sizing a buffer — and leave no restore timeline open.
	const nvmCap = 1 << 20
	meta := Metadata{Job: "job", Rank: 0, Step: 1}.toMap(5)
	for name, tc := range map[string]struct {
		blocks int
		size   int64
	}{
		"negative blocks":        {-1, 100},
		"negative size":          {1, -1},
		"bytes without blocks":   {0, 100},
		"more blocks than bytes": {1 << 40, 100},
		"size beyond NVM":        {4, nvmCap + 1},
		"absurd size":            {1 << 20, 1 << 60},
	} {
		store := &statBlocksStore{Backend: iostore.New(nvm.Pacer{})}
		store.reply = func(key iostore.Key) (iostore.Object, int, bool, error) {
			return iostore.Object{Key: key, OrigSize: tc.size, Meta: meta}, tc.blocks, true, nil
		}
		n, err := New(Config{Job: "job", Rank: 0, Store: store, DisableNDP: true, NVMCapacity: nvmCap})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := n.RestoreID(context.Background(), 5); !errors.Is(err, ErrBadObject) {
			t.Errorf("%s: restore err = %v, want ErrBadObject", name, err)
		}
		if open := n.Timelines().Open(metrics.KindRestore); open != 0 {
			t.Errorf("%s: %d restore timeline(s) left open", name, open)
		}
		n.Close()
	}
}

func TestStreamedRestoreSmallPrefetchWindow(t *testing.T) {
	// A prefetch window smaller than the block count must still reassemble
	// correctly — the bound throttles, it must not truncate.
	gz, _ := compress.Lookup("gzip", 1)
	n, _ := newNode(t, func(c *Config) { c.Codec = gz })
	n.fetchWindow = 1
	snap := snapshot(200_000, 9) // ~49 blocks at 4096
	id, err := n.Commit(context.Background(), snap, Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	n.FailLocal()
	got, _, _, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snap) {
		t.Error("window=1 streamed restore corrupted the snapshot")
	}
}

func TestFailedRestoreDiscardsTimeline(t *testing.T) {
	// Regression: a failed restore used to leave its timeline open forever
	// (Finish runs only on success, and DiscardOlder never fires for IDs
	// that never finish), so chaos runs with fallbacks accumulated
	// unbounded open-timeline residue. Failure paths must finish-or-discard.
	n, store := newNode(t, func(c *Config) { c.DisableNDP = true })
	key := iostore.Key{Job: "job", Rank: 0, ID: 5}
	obj := iostore.Object{
		Key:        key,
		Codec:      "gzip",
		CodecLevel: 1,
		OrigSize:   100,
		Blocks:     [][]byte{[]byte("this is not a gzip stream")},
		Meta:       Metadata{Job: "job", Rank: 0, Step: 2}.toMap(5),
	}
	if err := store.Put(context.Background(), obj); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := n.RestoreID(context.Background(), 5); err == nil {
		t.Fatal("corrupt checkpoint restored successfully")
	}
	if open := n.Timelines().Open(metrics.KindRestore); open != 0 {
		t.Errorf("failed restore leaked %d open restore timeline(s)", open)
	}
	// A later, successful restore of a good checkpoint must be unaffected.
	good := iostore.Key{Job: "job", Rank: 0, ID: 6}
	if err := store.Put(context.Background(), iostore.Object{
		Key:      good,
		OrigSize: 4,
		Blocks:   [][]byte{[]byte("fine")},
		Meta:     Metadata{Job: "job", Rank: 0, Step: 3}.toMap(6),
	}); err != nil {
		t.Fatal(err)
	}
	data, _, _, err := n.RestoreID(context.Background(), 6)
	if err != nil || string(data) != "fine" {
		t.Fatalf("good restore after failed one: %q, %v", data, err)
	}
	if open := n.Timelines().Open(metrics.KindRestore); open != 0 {
		t.Errorf("%d restore timeline(s) still open after a finished restore", open)
	}
}

// TestRestoreRefusesBlockWithTail: bytes after a compressed block's final
// DEFLATE block — a torn or concatenated write — fail the restore naming the
// block. The streaming reader gzip used to decode with stopped at the final
// block and restored such an object as if it were whole.
func TestRestoreRefusesBlockWithTail(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	n, store := newNode(t, func(c *Config) { c.DisableNDP = true })
	var payload []byte
	blocks := make([][]byte, 3)
	for i := range blocks {
		part := snapshot(5000, byte(i))
		payload = append(payload, part...)
		var err error
		if blocks[i], err = gz.Compress(nil, part); err != nil {
			t.Fatal(err)
		}
	}
	blocks[1] = append(blocks[1], blocks[1]...) // the block written twice over
	if err := store.Put(context.Background(), iostore.Object{
		Key:        iostore.Key{Job: "job", Rank: 0, ID: 5},
		Codec:      "gzip",
		CodecLevel: 1,
		OrigSize:   int64(len(payload)),
		Blocks:     blocks,
		Meta:       Metadata{Job: "job", Rank: 0, Step: 2}.toMap(5),
	}); err != nil {
		t.Fatal(err)
	}
	data, _, _, err := n.RestoreID(context.Background(), 5)
	if err == nil || data != nil || !strings.Contains(err.Error(), "block 1") {
		t.Errorf("RestoreID = %d bytes, err %v; want no data and an error naming block 1", len(data), err)
	}
	var got pieces
	if err := n.RestoreIDTo(context.Background(), 5, got.sink); err == nil || !strings.Contains(err.Error(), "block 1") {
		t.Errorf("RestoreIDTo err = %v, want an error naming block 1", err)
	}
	if len(got.data) >= len(payload) || !bytes.Equal(got.data, payload[:len(got.data)]) {
		t.Errorf("a failed stream emitted %d bytes that are not a proper prefix", len(got.data))
	}
	if open := n.Timelines().Open(metrics.KindRestore); open != 0 {
		t.Errorf("failed restores leaked %d open restore timeline(s)", open)
	}
}

// TestRestoreAcrossEncoders: gzip(1) changed encoders (compress/flate's
// writer until PR 22, package deflate since) and the stored format did not.
// An object whose blocks the old encoder wrote restores byte-identical
// through this tree's reader, and every block this tree's drain stores is a
// stream compress/flate's reader — the reference for what the old tree's
// reader accepts — decodes to the same bytes.
func TestRestoreAcrossEncoders(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	n, store := newNode(t, func(c *Config) { c.Codec = gz })
	ctx := context.Background()

	old := snapshot(40_000, 3)
	w, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	for off := 0; off < len(old); off += 4096 {
		var buf bytes.Buffer
		w.Reset(&buf)
		w.Write(old[off:min(off+4096, len(old))])
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, buf.Bytes())
	}
	if err := store.Put(ctx, iostore.Object{
		Key:        iostore.Key{Job: "job", Rank: 0, ID: 7},
		Codec:      "gzip",
		CodecLevel: 1,
		OrigSize:   int64(len(old)),
		Blocks:     blocks,
		Meta:       Metadata{Job: "job", Rank: 0, Step: 1}.toMap(7),
	}); err != nil {
		t.Fatal(err)
	}
	if got, _, level, err := n.RestoreID(ctx, 7); err != nil || level != LevelIO || !bytes.Equal(got, old) {
		t.Errorf("object written by the old encoder: level %v, err %v, identical %v", level, err, bytes.Equal(got, old))
	}

	snap := snapshot(300_000, 9)
	id, err := n.Commit(ctx, snap, Metadata{Step: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	obj, err := store.Get(ctx, iostore.Key{Job: "job", Rank: 0, ID: id})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i, b := range obj.Blocks {
		in := bytes.NewReader(b)
		plain, err := io.ReadAll(flate.NewReader(in))
		if err != nil || in.Len() != 0 {
			t.Fatalf("block %d of an object written by this tree: compress/flate err %v, %d bytes unread", i, err, in.Len())
		}
		got = append(got, plain...)
	}
	if obj.Codec != "gzip" || obj.CodecLevel != 1 || !bytes.Equal(got, snap) {
		t.Errorf("object written by this tree: codec %s(%d), identical under compress/flate %v", obj.Codec, obj.CodecLevel, bytes.Equal(got, snap))
	}
}

func TestSetPartnerRejectsSelf(t *testing.T) {
	// A node buddying with itself would store its "redundant" copies on
	// the same NVM the partner level exists to survive losing.
	store := iostore.New(nvm.Pacer{})
	a, err := New(Config{Job: "j", Rank: 0, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Job: "j", Rank: 1, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.SetPartner(a); err == nil {
		t.Error("self-partnering accepted: phantom redundancy on the same device")
	}
	if err := a.SetPartner(b); err != nil {
		t.Errorf("distinct buddy rejected: %v", err)
	}
	if err := a.SetPartner(nil); err != nil {
		t.Errorf("unwiring rejected: %v", err)
	}
}
