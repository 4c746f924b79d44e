package nvm

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"ndpcr/internal/units"
)

func mk(t *testing.T, capacity int64) *Device {
	t.Helper()
	d, err := NewDevice(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewDevice(-5); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	d := mk(t, 1000)
	data := []byte("checkpoint-one")
	meta := map[string]string{"job": "j", "rank": "0"}
	if err := d.Put(Checkpoint{ID: 1, Data: data, Meta: meta}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, data) || got.Meta["job"] != "j" {
		t.Error("round trip mismatch")
	}
	// The stored copy must not alias the caller's buffer.
	data[0] = 'X'
	got2, _ := d.Get(1)
	if got2.Data[0] == 'X' {
		t.Error("device aliases caller buffer")
	}
}

func TestGetMissing(t *testing.T) {
	d := mk(t, 100)
	if _, err := d.Get(7); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, ok := d.Latest(); ok {
		t.Error("Latest on empty device")
	}
}

func TestCircularEviction(t *testing.T) {
	d := mk(t, 100)
	for id := uint64(1); id <= 5; id++ {
		if err := d.Put(Checkpoint{ID: id, Data: make([]byte, 40)}); err != nil {
			t.Fatalf("put %d: %v", id, err)
		}
	}
	// Capacity 100 holds two 40-byte checkpoints: the oldest are evicted
	// FIFO, so 4 and 5 remain.
	ids := d.IDs()
	if len(ids) != 2 || ids[0] != 4 || ids[1] != 5 {
		t.Errorf("resident = %v, want [4 5]", ids)
	}
	if l, ok := d.Latest(); !ok || l.ID != 5 {
		t.Errorf("latest = %v", l.ID)
	}
	if d.Used() != 80 {
		t.Errorf("used = %d", d.Used())
	}
}

func TestTooLarge(t *testing.T) {
	d := mk(t, 100)
	if err := d.Put(Checkpoint{ID: 1, Data: make([]byte, 101)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestLockPreventsEviction(t *testing.T) {
	d := mk(t, 100)
	if err := d.Put(Checkpoint{ID: 1, Data: make([]byte, 60)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Lock(1); err != nil {
		t.Fatal(err)
	}
	// Checkpoint 2 cannot fit while 1 is locked.
	if err := d.Put(Checkpoint{ID: 2, Data: make([]byte, 60)}); !errors.Is(err, ErrFull) {
		t.Errorf("err = %v, want ErrFull", err)
	}
	if err := d.Unlock(1); err != nil {
		t.Fatal(err)
	}
	// Now the circular buffer may reuse 1's space (§4.2.2's unlock →
	// reuse).
	if err := d.Put(Checkpoint{ID: 2, Data: make([]byte, 60)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(1); !errors.Is(err, ErrNotFound) {
		t.Error("evicted checkpoint still present")
	}
}

func TestLockedOverwriteRejected(t *testing.T) {
	d := mk(t, 100)
	d.Put(Checkpoint{ID: 1, Data: []byte("a")})
	d.Lock(1)
	if err := d.Put(Checkpoint{ID: 1, Data: []byte("b")}); err == nil {
		t.Error("overwrite of locked checkpoint accepted")
	}
	d.Unlock(1)
	if err := d.Put(Checkpoint{ID: 1, Data: []byte("b")}); err != nil {
		t.Errorf("overwrite after unlock failed: %v", err)
	}
	got, _ := d.Get(1)
	if string(got.Data) != "b" {
		t.Error("overwrite did not replace data")
	}
}

func TestLockErrors(t *testing.T) {
	d := mk(t, 100)
	if err := d.Lock(9); !errors.Is(err, ErrNotFound) {
		t.Error("lock of missing checkpoint")
	}
	if err := d.Unlock(9); !errors.Is(err, ErrNotFound) {
		t.Error("unlock of missing checkpoint")
	}
	d.Put(Checkpoint{ID: 1, Data: []byte("x")})
	if err := d.Unlock(1); err == nil {
		t.Error("unlock of unlocked checkpoint accepted")
	}
	// Locks nest.
	d.Lock(1)
	d.Lock(1)
	if err := d.Unlock(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Unlock(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Unlock(1); err == nil {
		t.Error("over-unlock accepted")
	}
}

func TestWipe(t *testing.T) {
	d := mk(t, 100)
	d.Put(Checkpoint{ID: 1, Data: make([]byte, 50)})
	d.Lock(1)
	d.Wipe()
	if d.Used() != 0 || len(d.IDs()) != 0 {
		t.Error("wipe left residue")
	}
	// Space is reusable even though 1 was locked (the failure lost it).
	if err := d.Put(Checkpoint{ID: 2, Data: make([]byte, 100)}); err != nil {
		t.Errorf("put after wipe: %v", err)
	}
}

func TestPacerComputesDuration(t *testing.T) {
	var slept units.Seconds
	p := Pacer{Bandwidth: 100 * units.MBps, Sleep: func(d units.Seconds) { slept += d }}
	d := p.Move(50_000_000) // 50 MB at 100 MB/s = 0.5 s
	if d != 0.5 || slept != 0.5 {
		t.Errorf("paced %v (slept %v), want 0.5 s", d, slept)
	}
	if (Pacer{}).Move(1<<30) != 0 {
		t.Error("unthrottled pacer should report zero")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := mk(t, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := uint64(g*1000 + i)
				if err := d.Put(Checkpoint{ID: id, Data: make([]byte, 512)}); err != nil &&
					!errors.Is(err, ErrFull) {
					t.Errorf("put: %v", err)
					return
				}
				d.Latest()
				d.Get(id)
				if d.Lock(id) == nil {
					d.Unlock(id)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLatestLockedPinsAgainstEviction(t *testing.T) {
	// Regression for the drain-candidate race: the engine used to call
	// Latest() and then Lock(id) as two separate device operations, leaving
	// a window where circular-buffer eviction reclaimed the chosen
	// checkpoint — the drain then failed spuriously or, worse, skipped a
	// checkpoint that was never shipped. LatestLocked pins the candidate
	// under the device mutex; under eviction pressure the pinned checkpoint
	// must stay resident and intact until Unlock.
	d := mk(t, 4096) // room for ~4 of the 1 KiB checkpoints below
	var wg sync.WaitGroup
	done := make(chan struct{})

	// Producer: constant eviction pressure from ever-newer checkpoints.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := uint64(1); ; id++ {
			select {
			case <-done:
				return
			default:
			}
			data := make([]byte, 1024)
			for i := range data {
				data[i] = byte(id)
			}
			if err := d.Put(Checkpoint{ID: id, Data: data}); err != nil &&
				!errors.Is(err, ErrFull) {
				t.Errorf("put %d: %v", id, err)
				return
			}
		}
	}()

	// Consumer: pick-and-pin, then verify the pinned checkpoint survives.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for n := 0; n < 500; n++ {
			ckpt, ok := d.LatestLocked()
			if !ok {
				continue
			}
			got, err := d.Get(ckpt.ID)
			if err != nil {
				t.Errorf("pinned checkpoint %d evicted: %v", ckpt.ID, err)
				return
			}
			for i, b := range got.Data {
				if b != byte(ckpt.ID) {
					t.Errorf("pinned checkpoint %d corrupted at byte %d", ckpt.ID, i)
					return
				}
			}
			if err := d.Unlock(ckpt.ID); err != nil {
				t.Errorf("unlock %d: %v", ckpt.ID, err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestDiscardRemovesLockedCheckpoint(t *testing.T) {
	d := mk(t, 1000)
	if err := d.Put(Checkpoint{ID: 1, Data: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if err := d.Lock(1); err != nil {
		t.Fatal(err)
	}
	// Discard is the abort path: it must win even against a drain lock.
	if !d.Discard(1) {
		t.Fatal("Discard reported checkpoint 1 absent")
	}
	if _, err := d.Get(1); !errors.Is(err, ErrNotFound) {
		t.Errorf("discarded checkpoint still readable: %v", err)
	}
	if d.Used() != 0 {
		t.Errorf("used = %d after discard, want 0", d.Used())
	}
	if d.Discard(1) {
		t.Error("second discard reported the checkpoint present")
	}
	// The space is genuinely reclaimed.
	if err := d.Put(Checkpoint{ID: 2, Data: make([]byte, 1000)}); err != nil {
		t.Errorf("full-size put after discard: %v", err)
	}
}

func TestFaultHookFailsOperations(t *testing.T) {
	d := mk(t, 1000)
	var ops []string
	d.SetFaultHook(func(op string, id uint64) error {
		ops = append(ops, op)
		if op == "get" {
			return errors.New("injected")
		}
		return nil
	})
	if err := d.Put(Checkpoint{ID: 1, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(1); err == nil {
		t.Error("hooked get succeeded")
	}
	if len(ops) != 2 || ops[0] != "put" || ops[1] != "get" {
		t.Errorf("hook saw ops %v", ops)
	}
	d.SetFaultHook(nil)
	if _, err := d.Get(1); err != nil {
		t.Errorf("get after hook removal: %v", err)
	}
}
