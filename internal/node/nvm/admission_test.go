package nvm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/metrics"
)

// waitAdmit is admission without the write: reserve, then hand the bytes
// straight back.
func waitAdmit(d *Device, ctx context.Context, size int64) error {
	r, err := d.Reserve(ctx, size)
	if err == nil {
		r.Release()
	}
	return err
}

// parked instruments d and returns a wait for n commits to have parked in
// admission. A wait is counted after the waiter took its wake channel, so
// space released after the wait returns wakes every one of them: no sleep.
func parked(d *Device) func(n uint64) {
	reg := metrics.NewRegistry()
	d.Instrument(reg)
	waits := reg.Counter("ndpcr_nvm_admission_waits_total", "")
	return func(n uint64) {
		for waits.Value() < n {
			runtime.Gosched()
		}
	}
}

func TestWaitAdmitImmediateWhenSpaceFree(t *testing.T) {
	d := mk(t, 1000)
	if err := waitAdmit(d, context.Background(), 500); err != nil {
		t.Fatalf("admission with a free device: %v", err)
	}
}

func TestWaitAdmitRejectsOversized(t *testing.T) {
	d := mk(t, 100)
	if err := waitAdmit(d, context.Background(), 200); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestWaitAdmitCountsEvictableResidents(t *testing.T) {
	d := mk(t, 100)
	// Fill the device with an unlocked (evictable) resident: admission
	// must pass immediately, because Put can evict it to make room.
	if err := d.Put(Checkpoint{ID: 1, Data: make([]byte, 90)}); err != nil {
		t.Fatal(err)
	}
	if err := waitAdmit(d, context.Background(), 80); err != nil {
		t.Fatalf("admission over an evictable resident: %v", err)
	}
}

func TestWaitAdmitBackpressureOnLockedResidents(t *testing.T) {
	d := mk(t, 100)
	if err := d.Put(Checkpoint{ID: 1, Data: make([]byte, 90)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Lock(1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := waitAdmit(d, ctx, 80)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("got %v, want ErrBackpressure", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("backpressure error does not carry the ctx cause: %v", err)
	}
}

// TestWaitAdmitBlocksThenAdmitsOnUnlock is the core admission-control
// contract: a commit against a device full of drain-locked residents parks
// instead of failing, and is admitted the instant a drain releases space.
func TestWaitAdmitBlocksThenAdmitsOnUnlock(t *testing.T) {
	d := mk(t, 100)
	if err := d.Put(Checkpoint{ID: 1, Data: make([]byte, 90)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Lock(1); err != nil {
		t.Fatal(err)
	}
	await := parked(d)
	done := make(chan error, 1)
	go func() { done <- waitAdmit(d, context.Background(), 80) }()
	await(1)
	select {
	case err := <-done:
		t.Fatalf("admission did not block on a locked full device (err=%v)", err)
	default:
	}
	if err := d.Unlock(1); err != nil { // drain finished: resident evictable
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("admission after unlock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admission never woke after the lock released")
	}
}

func TestWaitAdmitWokenByDiscard(t *testing.T) {
	d := mk(t, 100)
	if err := d.Put(Checkpoint{ID: 1, Data: make([]byte, 90)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Lock(1); err != nil {
		t.Fatal(err)
	}
	await := parked(d)
	done := make(chan error, 1)
	go func() { done <- waitAdmit(d, context.Background(), 50) }()
	await(1)
	d.Discard(1) // rollback path: locked resident dropped outright
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("admission after discard: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admission never woke after the discard")
	}
}

// TestWaitAdmitConcurrentCommitters churns many waiters against one locked
// device and releases space once; every waiter must eventually resolve
// (admitted after the release) with none deadlocked.
func TestWaitAdmitConcurrentCommitters(t *testing.T) {
	d := mk(t, 100)
	if err := d.Put(Checkpoint{ID: 1, Data: make([]byte, 90)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Lock(1); err != nil {
		t.Fatal(err)
	}
	await := parked(d)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			errs[i] = waitAdmit(d, ctx, 40)
		}(i)
	}
	await(uint64(len(errs)))
	if err := d.Unlock(1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
	if d.LockedBytes() != 0 {
		t.Errorf("locked bytes %d after unlock", d.LockedBytes())
	}
}
