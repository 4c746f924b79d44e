package ndp

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

func testRig(t *testing.T, codec compress.Codec) (*nvm.Device, *iostore.Store, *Engine) {
	t.Helper()
	dev, err := nvm.NewDevice(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	store := iostore.New(nvm.Pacer{})
	eng, err := New(Config{
		Job: "job", Rank: 0,
		Device: dev, Store: store,
		Codec: codec, Workers: 4, BlockSize: 4096,
		OnError: func(err error) { t.Logf("ndp error: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return dev, store, eng
}

// waitStore blocks until checkpoint id (or newer) is on the global store,
// for at most d.
func waitStore(eng *Engine, id uint64, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return eng.Tracker().WaitDurableCtx(ctx, id, LevelStore)
}

func waitDrain(t *testing.T, eng *Engine, want uint64) {
	t.Helper()
	if err := waitStore(eng, want, 5*time.Second); err != nil {
		t.Fatalf("drain of %d never completed: %v", want, err)
	}
}

func ckptData(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i / 64)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	dev, _ := nvm.NewDevice(1024)
	if _, err := New(Config{Device: dev, Store: iostore.New(nvm.Pacer{})}); err == nil {
		t.Error("missing job accepted")
	}
}

// TestSendWindowDefaultIsSizedInBytes: the send window is as many blocks as
// fit sendBudget, at least 4; only maxWindow caps it, below 8 KiB blocks.
func TestSendWindowDefaultIsSizedInBytes(t *testing.T) {
	for _, tc := range []struct{ blockSize, want int }{
		{0, 4}, // the 1 MiB default block
		{4 << 20, 4},
		{512 << 10, 8},
		{64 << 10, 64},
		{4096, 1024},
		{64, maxWindow},
	} {
		dev, _ := nvm.NewDevice(1024)
		eng, err := New(Config{Job: "job", Device: dev, Store: iostore.New(nvm.Pacer{}), BlockSize: tc.blockSize})
		if err != nil {
			t.Fatal(err)
		}
		if eng.window != tc.want {
			t.Errorf("block size %d: window %d, want %d", tc.blockSize, eng.window, tc.want)
		}
		eng.Close()
	}
}

// settle yields the processor until n() stops changing — every goroutine
// that could still move it has had its turn — and returns the value. It runs
// on one P, so the caller's yields hand that P to the runnable goroutines and
// none of them waits on an OS thread the host has descheduled. No clock: a
// count that stalls short of what a test wants is a failure the test
// reports, not a hang.
func settle(n func() int) int {
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

// TestDrainWindowIsBytesInFlight: with every store write parked, a drain has
// exactly sendBudget ÷ block size writes in flight — 64 of 64 KiB blocks, 4
// of 1 MiB — and not one more until a write returns.
func TestDrainWindowIsBytesInFlight(t *testing.T) {
	for _, tc := range []struct{ blockSize, numBlocks, want int }{
		{64 << 10, 128, 64},
		{1 << 20, 8, 4},
	} {
		dev, err := nvm.NewDevice(16 << 20)
		if err != nil {
			t.Fatal(err)
		}
		inner := iostore.New(nvm.Pacer{})
		store := &parkedStore{Store: inner, arrived: make(chan struct{}, tc.numBlocks), gate: make(chan struct{})}
		eng, err := New(Config{Job: "job", Device: dev, Store: store, BlockSize: tc.blockSize})
		if err != nil {
			t.Fatal(err)
		}
		data := ckptData(tc.numBlocks * tc.blockSize)
		if err := dev.Put(nvm.Checkpoint{ID: 1, Data: data}); err != nil {
			t.Fatal(err)
		}
		eng.Notify()
		if got := settle(func() int { return len(store.arrived) }); got != tc.want {
			t.Errorf("%d KiB blocks: %d writes parked in the store, want %d", tc.blockSize>>10, got, tc.want)
		}
		close(store.gate)
		if err := eng.Tracker().WaitDurableCtx(context.Background(), 1, LevelStore); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		obj, err := inner.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 1})
		if err != nil || !bytes.Equal(bytes.Join(obj.Blocks, nil), data) {
			t.Errorf("%d KiB blocks: drained object differs from the checkpoint (err %v)", tc.blockSize>>10, err)
		}
	}
}

// parkedStore parks every PutBlock on a gate, announcing each arrival first.
type parkedStore struct {
	*iostore.Store
	arrived chan struct{} // one send per PutBlock, before it parks
	gate    chan struct{} // a send lets one parked write through; closing it, all
}

func (p *parkedStore) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	p.arrived <- struct{}{}
	select {
	case <-p.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	return p.Store.PutBlock(ctx, key, meta, index, block)
}

// countingCodec is an identity codec that checks, on every Compress, how far
// compression has run ahead of the store: never more than bound calls plus
// one per write the test has released.
type countingCodec struct {
	bound    int64
	released atomic.Int64 // bumped by the test before it opens the gate
	calls    atomic.Int64
	over     atomic.Int64  // a call count that broke the bound, if any
	called   chan struct{} // one send per Compress
}

func (c *countingCodec) Name() string { return "counting" }
func (c *countingCodec) Level() int   { return 0 }
func (c *countingCodec) Decompress(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}
func (c *countingCodec) Compress(dst, src []byte) ([]byte, error) {
	// Count, then read released: it only grows, so the allowance read is at
	// least the one that held when this call was counted — never a false
	// alarm, and exact while nothing is being released.
	if n := c.calls.Add(1); n > c.bound+c.released.Load() {
		c.over.Store(n)
	}
	c.called <- struct{}{}
	return append(dst, src...), nil
}

// TestStalledStorePausesCompression pins the §4.2.2 backpressure where it
// lives: the sender's window. With every store write parked, compression
// runs window + 2×Workers blocks into the checkpoint — a window of writes in
// flight, 2×Workers compressed blocks waiting for a slot — and stops; each
// write let through lets exactly one more block be compressed.
func TestStalledStorePausesCompression(t *testing.T) {
	const (
		workers   = 4
		blockSize = 256 << 10 // a window of 16: it and the compressors' lead fit well inside the checkpoint
		numBlocks = 32
	)
	dev, err := nvm.NewDevice(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	inner := iostore.New(nvm.Pacer{})
	// Buffered to the number of sends: neither announcement ever blocks.
	store := &parkedStore{Store: inner, arrived: make(chan struct{}, numBlocks), gate: make(chan struct{})}
	codec := &countingCodec{called: make(chan struct{}, numBlocks)}
	eng, err := New(Config{Job: "job", Device: dev, Store: store, Codec: codec, Workers: workers, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	codec.bound = int64(eng.window + 2*workers)
	if codec.bound+3 >= numBlocks {
		t.Fatalf("window %d: the checkpoint is too short to stall the drain", eng.window)
	}

	expect := func(ch chan struct{}, n int, what string) {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case <-ch:
			case <-timeout:
				t.Fatalf("%s: saw %d of %d", what, i, n)
			}
		}
	}

	data := ckptData(numBlocks * blockSize)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	expect(store.arrived, eng.window, "writes parked in the store")
	expect(codec.called, int(codec.bound), "blocks compressed behind a stalled store")

	// One write through: one slot of the window, one more block compressed.
	for i := 0; i < 3; i++ {
		codec.released.Add(1)
		store.gate <- struct{}{}
		expect(store.arrived, 1, "next write after a release")
		expect(codec.called, 1, "next block compressed after a release")
	}

	codec.released.Add(numBlocks)
	close(store.gate)
	waitDrain(t, eng, 1)
	if n := codec.over.Load(); n != 0 {
		t.Errorf("compress call %d ran more than %d blocks ahead of the released writes", n, codec.bound)
	}
	if n := codec.calls.Load(); n != numBlocks {
		t.Errorf("%d compress calls, want %d", n, numBlocks)
	}
	obj, err := inner.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(obj.Blocks, nil); !bytes.Equal(got, data) {
		t.Errorf("drained object differs from the checkpoint: %d bytes, want %d", len(got), len(data))
	}
}

// stuckCodec parks every Compress but the first on gate, announcing it
// first; the first fails once others are parked: compressors still reading
// the checkpoint when the pipeline has already failed.
type stuckCodec struct {
	others int
	calls  atomic.Int64
	parked chan struct{}
	gate   chan struct{}
}

func (c *stuckCodec) Name() string { return "stuck" }
func (c *stuckCodec) Level() int   { return 0 }
func (c *stuckCodec) Decompress(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}
func (c *stuckCodec) Compress(dst, src []byte) ([]byte, error) {
	if c.calls.Add(1) == 1 {
		for len(c.parked) < c.others {
			runtime.Gosched()
		}
		return nil, errors.New("compress failed")
	}
	c.parked <- struct{}{}
	<-c.gate
	return append(dst, src...), nil
}

// TestFailedDrainKeepsItsLockUntilCompressorsStop: once a drain unlocks, the
// device may hand the region to the next commit, so a failed pipeline does not
// return — and the drain does not unlock — while a compressor still reads it.
func TestFailedDrainKeepsItsLockUntilCompressorsStop(t *testing.T) {
	const numBlocks = 16
	codec := &stuckCodec{parked: make(chan struct{}, numBlocks), gate: make(chan struct{})}
	dev, _, eng := testRig(t, codec)
	codec.others = eng.cfg.Workers - 1
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(numBlocks * 4096)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	await(t, "the other compressors to park", func() bool { return len(codec.parked) >= codec.others })
	if locked := settle(func() int { return int(dev.LockedBytes()) }); locked == 0 {
		t.Error("the failed drain unlocked its checkpoint while compressors still read it")
	}
	close(codec.gate)
	await(t, "the drain to unlock", func() bool { return dev.LockedBytes() == 0 })
	if _, ok := eng.Tracker().Watermark(LevelStore); ok {
		t.Error("a drain whose compression failed reached the store")
	}
}

func TestDrainUncompressed(t *testing.T) {
	dev, store, eng := testRig(t, nil)
	data := ckptData(20000)
	meta := map[string]string{"step": "3"}
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: data, Meta: meta}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	waitDrain(t, eng, 1)

	obj, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Codec != "" {
		t.Errorf("codec = %q, want none", obj.Codec)
	}
	if obj.Meta["step"] != "3" {
		t.Error("metadata not propagated")
	}
	var joined []byte
	for _, b := range obj.Blocks {
		joined = append(joined, b...)
	}
	if !bytes.Equal(joined, data) {
		t.Error("drained bytes differ")
	}
}

func TestDrainCompressedRoundTrip(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	dev, store, eng := testRig(t, gz)
	data := ckptData(100000)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	waitDrain(t, eng, 1)

	obj, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Codec != "gzip" || obj.CodecLevel != 1 {
		t.Fatalf("codec = %s(%d)", obj.Codec, obj.CodecLevel)
	}
	if obj.StoredSize() >= int64(len(data)) {
		t.Error("compression did not shrink the checkpoint")
	}
	var joined []byte
	for i, b := range obj.Blocks {
		plain, err := gz.Decompress(nil, b)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		joined = append(joined, plain...)
	}
	if !bytes.Equal(joined, data) {
		t.Error("reassembled bytes differ")
	}
}

func TestDrainSkipsToLatest(t *testing.T) {
	dev, store, eng := testRig(t, nil)
	// Commit three checkpoints before ringing the bell: the engine should
	// drain the newest (policy: as fresh as possible).
	for id := uint64(1); id <= 3; id++ {
		if err := dev.Put(nvm.Checkpoint{ID: id, Data: ckptData(1000)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Notify()
	waitDrain(t, eng, 3)
	if _, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 3}); err != nil {
		t.Errorf("latest not drained: %v", err)
	}
	// IDs 1 and 2 were skipped entirely.
	if ids, err := store.IDs(context.Background(), "job", 0); err != nil || len(ids) != 1 {
		t.Errorf("drained ids = %v, %v, want [3]", ids, err)
	}
}

func TestDrainUnlocksCheckpoint(t *testing.T) {
	dev, _, eng := testRig(t, nil)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(1000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	waitDrain(t, eng, 1)
	// If the engine leaked its drain lock, this Put would need the space
	// and fail; give eviction a reason by filling the device.
	big := make([]byte, 63<<20)
	if err := dev.Put(nvm.Checkpoint{ID: 2, Data: big}); err != nil {
		t.Errorf("post-drain eviction blocked: %v", err)
	}
}

func TestWipeDuringIdleIsSafe(t *testing.T) {
	dev, _, eng := testRig(t, nil)
	dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(100)})
	eng.Notify()
	waitDrain(t, eng, 1)
	dev.Wipe()
	eng.Notify() // nothing to drain; must not wedge or error fatally
	await(t, "the engine takes the doorbell", func() bool { return len(eng.bell) == 0 })
	if id, ok := eng.Tracker().Watermark(LevelStore); !ok || id != 1 {
		t.Errorf("last drained = %d, %v", id, ok)
	}
	// The idle sweep left the engine working: the next commit drains.
	if err := dev.Put(nvm.Checkpoint{ID: 2, Data: ckptData(100)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	waitDrain(t, eng, 2)
}

// await yields the processor until cond holds: the observable park a test
// waits for instead of sleeping. It fails the test if cond never holds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == 1<<24 {
			t.Fatalf("%s: never happened", what)
		}
		runtime.Gosched()
	}
}

// TestPauseResumeNVM: a drain that starts while the host holds the NVM reads
// nothing from it until the host resumes, then proceeds.
func TestPauseResumeNVM(t *testing.T) {
	dev, _, eng := testRig(t, nil)
	var resumed, readWhilePaused atomic.Bool
	dev.SetFaultHook(func(op string, id uint64) error {
		if op == "get" && !resumed.Load() {
			readWhilePaused.Store(true)
		}
		return nil
	})
	eng.PauseNVM()
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(5000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	// The engine pins its candidate just before it waits on the NVM gate.
	await(t, "the engine picks checkpoint 1", func() bool { return dev.LockedBytes() > 0 })
	if _, ok := eng.Tracker().Watermark(LevelStore); ok {
		t.Error("drain completed while NVM was paused")
	}
	resumed.Store(true)
	eng.ResumeNVM()
	waitDrain(t, eng, 1)
	if readWhilePaused.Load() {
		t.Error("the engine read the NVM while the host held it")
	}
}

func TestConcurrentCommitsAllEventuallyDrainLatest(t *testing.T) {
	dev, store, eng := testRig(t, nil)
	var wg sync.WaitGroup
	const n = 20
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if err := dev.Put(nvm.Checkpoint{ID: id, Data: ckptData(2000)}); err != nil {
				t.Errorf("put %d: %v", id, err)
			}
			eng.Notify()
		}(uint64(i))
	}
	wg.Wait()
	waitDrain(t, eng, n)
	if latest, ok, _ := store.Latest(context.Background(), "job", 0); !ok || latest != n {
		t.Errorf("latest on I/O = %d, %v", latest, ok)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	_, _, eng := testRig(t, nil)
	eng.Close()
	eng.Close()
}

func TestDrainUnderEvictionPressure(t *testing.T) {
	// The device holds only a few checkpoints, so the host's commit stream
	// constantly evicts while the engine drains. Every candidate the engine
	// picks is pinned atomically (nvm.LatestLocked), so no drain may fail
	// with a not-found error no matter how the eviction interleaves.
	dev, err := nvm.NewDevice(8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	store := iostore.New(nvm.Pacer{})
	var mu sync.Mutex
	var asyncErrs []error
	eng, err := New(Config{
		Job: "job", Rank: 0,
		Device: dev, Store: store,
		BlockSize: 1024,
		OnError: func(err error) {
			mu.Lock()
			asyncErrs = append(asyncErrs, err)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)

	const last = 200
	for id := uint64(1); id <= last; id++ {
		eng.PauseNVM()
		err := dev.Put(nvm.Checkpoint{ID: id, Data: ckptData(2048)})
		eng.ResumeNVM()
		if err != nil {
			t.Fatalf("put %d: %v", id, err)
		}
		eng.Notify()
	}
	waitDrain(t, eng, last)
	mu.Lock()
	defer mu.Unlock()
	if len(asyncErrs) != 0 {
		t.Errorf("drain errors under eviction pressure: %v", asyncErrs)
	}
}
