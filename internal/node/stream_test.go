package node

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// putWatch is a store that reports the index of every block written.
type putWatch struct {
	iostore.Backend
	puts chan int
}

func (p *putWatch) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	err := p.Backend.PutBlock(ctx, key, meta, index, block)
	select {
	case p.puts <- index:
	default: // nobody is watching for more
	}
	return err
}

// awaitPut waits (up to 5 s) until the drain has written block index.
func (p *putWatch) awaitPut(t *testing.T, index int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case i := <-p.puts:
			if i == index {
				return
			}
		case <-timeout:
			t.Fatalf("block %d was never written while the body was still arriving", index)
		}
	}
}

// stored is the raw payload the store holds as this job's checkpoint id.
func stored(t *testing.T, store *iostore.Store, id uint64) []byte {
	t.Helper()
	obj, err := store.Get(context.Background(), iostore.Key{Job: "job", ID: id})
	if err != nil {
		t.Fatalf("checkpoint %d: %v", id, err)
	}
	return bytes.Join(obj.Blocks, nil)
}

func newStreamNode(t *testing.T) (*Node, *iostore.Store, *putWatch) {
	store := iostore.New(nvm.Pacer{})
	w := &putWatch{Backend: store, puts: make(chan int, 64)}
	n, _ := newNode(t, func(c *Config) { c.Store = w })
	return n, store, w
}

// TestCutThroughShipsBeforeBodyEnds: a commit that streams has its first
// block on the store while the rest of its bytes have not arrived, is neither
// NVM- nor store-durable until published, and once published and drained
// restores byte-identical from the store with the metadata it streamed under.
func TestCutThroughShipsBeforeBodyEnds(t *testing.T) {
	n, store, w := newStreamNode(t)
	ctx := context.Background()
	bs := n.BlockSize()
	payload := snapshot(4*bs+100, 9)
	r, err := n.Reserve(ctx, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	copy(r.Data, payload[:bs])
	r.Filled(bs)
	if !n.Stream(r, Metadata{Step: 3}) {
		t.Fatal("a five-block commit on an idle node did not stream")
	}
	w.awaitPut(t, 0)
	if ids := n.Device().IDs(); len(ids) != 0 || n.DurableAt(1, ndp.LevelNVM) {
		t.Fatalf("checkpoint visible before its body ended: NVM %v", ids)
	}
	for off := bs; off < len(payload); off += bs {
		end := min(off+bs, len(payload))
		copy(r.Data[off:end], payload[off:end])
		r.Filled(end)
	}
	id, err := n.Publish(r, Metadata{Step: 99}) // the streamed metadata wins
	if err != nil || id != 1 {
		t.Fatalf("publish: id %d err %v, want 1", id, err)
	}
	waitDrained(t, n, id)
	if !bytes.Equal(stored(t, store, 1), payload) {
		t.Fatal("stored object differs from the body")
	}
	n.FailLocal()
	got, meta, level, err := n.RestoreID(ctx, 1)
	if err != nil || level != LevelIO || meta.Step != 3 || meta.ID != 1 || !bytes.Equal(got, payload) {
		t.Errorf("restore: level %s step %d id %d err %v, match %v", level, meta.Step, meta.ID, err, bytes.Equal(got, payload))
	}
	if got := n.Device().Used(); got != 0 {
		t.Errorf("%d bytes of NVM still reserved after a wipe", got)
	}
}

// TestCutThroughAbortReoffersID: a streaming commit released with its body
// cut off at block 2 returns once the drain has stopped and deleted what it
// shipped — no store object, no NVM entry, no failed ID — and the next
// commit gets the same ID and stores its own bytes under it.
func TestCutThroughAbortReoffersID(t *testing.T) {
	n, store, w := newStreamNode(t)
	ctx := context.Background()
	bs := n.BlockSize()
	if id, err := n.Commit(ctx, snapshot(100, 1), Metadata{Step: 1}); err != nil || id != 1 {
		t.Fatalf("commit 1: id %d err %v", id, err)
	}
	waitDrained(t, n, 1)
	used := n.Device().Used()

	r, err := n.Reserve(ctx, int64(6*bs))
	if err != nil {
		t.Fatal(err)
	}
	copy(r.Data, snapshot(6*bs, 2))
	r.Filled(2 * bs)
	if !n.Stream(r, Metadata{Step: 2}) {
		t.Fatal("commit did not stream")
	}
	w.awaitPut(t, 1)
	r.Release() // the body was cut off after block 1
	if _, ok, err := store.Stat(ctx, iostore.Key{Job: "job", ID: 2}); ok || err != nil {
		t.Fatalf("a cut-off stream left an object in the store (err %v)", err)
	}
	if ids := n.Device().IDs(); len(ids) != 1 || ids[0] != 1 || n.Device().Used() != used {
		t.Fatalf("a cut-off stream left NVM %v (%d bytes used, want %d)", ids, n.Device().Used(), used)
	}
	if n.NextID() != 2 || n.Durability().FailedErr(2) != nil {
		t.Fatalf("next ID %d, failure %v: the cut-off stream's ID was burned", n.NextID(), n.Durability().FailedErr(2))
	}

	payload := snapshot(3*bs, 3)
	id, err := n.Commit(ctx, payload, Metadata{Step: 3})
	if err != nil || id != 2 {
		t.Fatalf("commit after the cut-off stream: id %d err %v, want 2", id, err)
	}
	waitDrained(t, n, id)
	if !bytes.Equal(stored(t, store, 2), payload) {
		t.Error("checkpoint 2 does not hold the commit that took the ID")
	}
}

// TestCutThroughReserveWaitsItsTurn: while a commit streams, a second
// commit of the node waits in Reserve, holding no NVM, and takes the ID after
// the stream's once the stream publishes — or the stream's own ID once the
// stream is cut off. IDs stay dense, none is used twice, and each holds its
// own commit's bytes.
func TestCutThroughReserveWaitsItsTurn(t *testing.T) {
	n, store, _ := newStreamNode(t)
	ctx := context.Background()
	bs := n.BlockSize()
	round := func(tag byte, cutOff bool) (streamID, nextID uint64) {
		a, err := n.Reserve(ctx, int64(3*bs))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Release()
		body := snapshot(3*bs, tag)
		copy(a.Data, body[:bs])
		a.Filled(bs)
		if !n.Stream(a, Metadata{Step: int(tag)}) {
			t.Fatal("commit did not stream")
		}
		used := n.Device().Used()
		type result struct {
			id  uint64
			err error
		}
		next := make(chan result, 1)
		go func() {
			id, err := n.Commit(ctx, snapshot(3*bs, tag+1), Metadata{Step: int(tag) + 1})
			next <- result{id, err}
		}()
		for i := 0; i < 100; i++ {
			runtime.Gosched() // let the second commit reach its turn
		}
		select {
		case res := <-next:
			t.Fatalf("a commit beside an open one did not wait its turn: id %d err %v", res.id, res.err)
		default:
		}
		if got := n.Device().Used(); got != used {
			t.Fatalf("a commit waiting its turn holds NVM: %d bytes used, want %d", got, used)
		}
		if cutOff {
			a.Release()
		} else {
			copy(a.Data[bs:], body[bs:])
			a.Filled(len(body))
			if streamID, err = n.Publish(a, Metadata{}); err != nil {
				t.Fatal(err)
			}
		}
		res := <-next
		if res.err != nil {
			t.Fatal(res.err)
		}
		return streamID, res.id
	}

	streamID, nextID := round(10, false)
	if streamID != 1 || nextID != 2 {
		t.Fatalf("stream got %d, the commit beside it %d: want 1 and 2", streamID, nextID)
	}
	if _, nextID = round(20, true); nextID != 3 {
		t.Fatalf("the commit beside a cut-off stream got %d, want the stream's 3", nextID)
	}
	if id, err := n.Commit(ctx, snapshot(bs, 30), Metadata{}); err != nil || id != 4 {
		t.Fatalf("next commit: id %d err %v, want 4", id, err)
	}
	waitDrained(t, n, 4)
	for id, tag := range map[uint64]byte{1: 10, 2: 11, 3: 21} {
		got, _, _, err := n.RestoreID(ctx, id)
		if want := snapshot(3*bs, tag); err != nil || !bytes.Equal(got, want) {
			t.Errorf("checkpoint %d does not hold its own commit's bytes (err %v)", id, err)
		}
	}
	if !bytes.Equal(stored(t, store, 4), snapshot(bs, 30)) {
		t.Error("checkpoint 4 in the store differs from its commit")
	}
}

// failOnce is a store whose first block write fails.
type failOnce struct {
	iostore.Backend
	failed atomic.Bool
}

func (f *failOnce) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	if f.failed.CompareAndSwap(false, true) {
		return errors.New("store unreachable")
	}
	return f.Backend.PutBlock(ctx, key, meta, index, block)
}

// TestCutThroughFailedDrainDrainsAgainAfterPublish: a stream whose store
// write fails while its body still arrives deletes what it shipped and is not
// failed on the tracker — its ID may yet go to another commit — and once
// published the checkpoint drains again like any commit.
func TestCutThroughFailedDrainDrainsAgainAfterPublish(t *testing.T) {
	store := iostore.New(nvm.Pacer{})
	n, _ := newNode(t, func(c *Config) { c.Store = &failOnce{Backend: store} })
	ctx := context.Background()
	bs := n.BlockSize()
	payload := snapshot(3*bs, 4)
	r, err := n.Reserve(ctx, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	copy(r.Data, payload[:bs])
	r.Filled(bs)
	if !n.Stream(r, Metadata{Step: 1}) {
		t.Fatal("commit did not stream")
	}
	copy(r.Data[bs:], payload[bs:])
	r.Filled(len(payload))
	id, err := n.Publish(r, Metadata{})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	if !bytes.Equal(stored(t, store, id), payload) {
		t.Error("the checkpoint drained after its stream failed differs from its body")
	}
}

// parkedPuts is a store whose block writes of one checkpoint park until the
// test closes release.
type parkedPuts struct {
	iostore.Backend
	id      uint64
	parked  chan struct{} // receives once per parked write
	release chan struct{}
}

func (p *parkedPuts) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	if key.ID == p.id {
		p.parked <- struct{}{}
		<-p.release
	}
	return p.Backend.PutBlock(ctx, key, meta, index, block)
}

// TestCutThroughReleaseBeforeDrainStarts: a stream waiting behind a drain in
// progress has shipped nothing, so cutting its body off returns at once —
// not when the earlier drain ends — and leaves its ID for the next commit.
func TestCutThroughReleaseBeforeDrainStarts(t *testing.T) {
	store := &parkedPuts{Backend: iostore.New(nvm.Pacer{}), id: 1,
		parked: make(chan struct{}, 1024), release: make(chan struct{})}
	n, _ := newNode(t, func(c *Config) { c.Store = store })
	unpark := sync.OnceFunc(func() { close(store.release) })
	t.Cleanup(unpark) // before the node closes: its drain must not stay parked
	ctx := context.Background()
	bs := n.BlockSize()
	if _, err := n.Commit(ctx, snapshot(bs, 1), Metadata{}); err != nil {
		t.Fatal(err)
	}
	<-store.parked // checkpoint 1's drain holds the engine
	r, err := n.Reserve(ctx, int64(3*bs))
	if err != nil {
		t.Fatal(err)
	}
	r.Filled(bs)
	if !n.Stream(r, Metadata{}) {
		t.Fatal("commit did not stream behind a drain in progress")
	}
	released := make(chan struct{})
	go func() {
		r.Release()
		close(released)
	}()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("releasing a stream the NDP had not started waited for the drain before it")
	}
	if n.NextID() != 2 {
		t.Errorf("next ID %d after the release, want 2", n.NextID())
	}
	unpark()
	waitDrained(t, n, 1)
	if id, err := n.Commit(ctx, snapshot(bs, 3), Metadata{}); err != nil || id != 2 {
		t.Errorf("commit after the release: id %d err %v, want 2", id, err)
	}
}

// TestCutThroughReserveGivesUpWithItsCtx: a Reserve beside the node's open
// commit waits for the ID order holding no NVM, and returns when its ctx
// ends, taking no ID; the open commit then publishes as ID 1, and the next
// commit gets ID 2.
func TestCutThroughReserveGivesUpWithItsCtx(t *testing.T) {
	n, _, _ := newStreamNode(t)
	ctx := context.Background()
	bs := n.BlockSize()
	a, err := n.Reserve(ctx, int64(3*bs))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	a.Filled(bs)
	if !n.Stream(a, Metadata{}) {
		t.Fatal("commit did not stream")
	}
	used := n.Device().Used()
	wctx, cancel := context.WithCancel(ctx)
	gaveUp := make(chan error, 1)
	go func() {
		b, err := n.Reserve(wctx, int64(bs))
		if err == nil {
			b.Release()
		}
		gaveUp <- err
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let the Reserve reach its turn
	}
	select {
	case err := <-gaveUp:
		t.Fatalf("reserve beside an open commit = %v before its ctx ended", err)
	default:
	}
	if got := n.Device().Used(); got != used {
		t.Fatalf("a reserve waiting its turn holds NVM: %d bytes used, want %d", got, used)
	}
	cancel()
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("reserve beside an open commit = %v, want its ctx's end", err)
	}
	if n.NextID() != 1 || len(n.Device().IDs()) != 0 || n.Device().Used() != used {
		t.Fatalf("a reserve that gave up took an ID or NVM: next %d, NVM %v, %d bytes used",
			n.NextID(), n.Device().IDs(), n.Device().Used())
	}
	a.Filled(3 * bs)
	if id, err := n.Publish(a, Metadata{}); err != nil || id != 1 {
		t.Fatalf("stream publish: id %d err %v, want 1", id, err)
	}
	if id, err := n.Commit(ctx, snapshot(bs, 2), Metadata{}); err != nil || id != 2 {
		t.Fatalf("commit after the stream: id %d err %v, want 2", id, err)
	}
}

// TestCutThroughNotUnderADrainGate: a node whose drains take a shared slot
// never streams — a stream's drain would hold the slot while its body
// trickles in — and its commits drain as ordinary ones.
func TestCutThroughNotUnderADrainGate(t *testing.T) {
	n, _ := newNode(t, func(c *Config) {
		c.DrainGate = func(context.Context) (func(), error) { return func() {}, nil }
	})
	ctx := context.Background()
	bs := n.BlockSize()
	r, err := n.Reserve(ctx, int64(3*bs))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	r.Filled(bs)
	if n.Stream(r, Metadata{}) {
		t.Fatal("a commit streamed under a drain gate")
	}
	r.Filled(3 * bs)
	id, err := n.Publish(r, Metadata{})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
}
