package nvm

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReservationsNeverOvercommit churns concurrent reserve → fill →
// publish-or-release cycles against a device that fits three of them at a
// time: the bytes held by live reservations never exceed capacity, nor does
// the device's own accounting, and everything is returned at the end.
func TestReservationsNeverOvercommit(t *testing.T) {
	const capacity, size = 100, 30
	d := mk(t, capacity)
	var held atomic.Int64
	var nextID atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r, err := d.Reserve(context.Background(), size)
				if err != nil {
					t.Errorf("reserve: %v", err)
					return
				}
				if h := held.Add(size); h > capacity {
					t.Errorf("%d bytes reserved at once on a %d-byte device", h, capacity)
				}
				if u := d.Used(); u > capacity {
					t.Errorf("used = %d on a %d-byte device", u, capacity)
				}
				held.Add(-size)
				if (g+i)%2 == 0 {
					if err := r.Publish(nextID.Add(1), nil); err != nil {
						t.Errorf("publish: %v", err)
					}
				}
				r.Release() // a no-op on the published ones
			}
		}(g)
	}
	wg.Wait()
	for _, id := range d.IDs() {
		d.Discard(id)
	}
	if u := d.Used(); u != 0 {
		t.Errorf("used = %d after every reservation was released and every checkpoint discarded", u)
	}
}

// TestReservedBytesAreUnevictable: a Put may evict residents to fit, never a
// reservation — while one is held the device is that much smaller.
func TestReservedBytesAreUnevictable(t *testing.T) {
	d := mk(t, 100)
	if err := d.Put(Checkpoint{ID: 1, Data: make([]byte, 40)}); err != nil {
		t.Fatal(err)
	}
	r, err := d.Reserve(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(Checkpoint{ID: 2, Data: make([]byte, 40)}); err != nil {
		t.Fatalf("put that fits by evicting the unlocked resident: %v", err)
	}
	if err := d.Put(Checkpoint{ID: 3, Data: make([]byte, 50)}); !errors.Is(err, ErrFull) {
		t.Fatalf("put needing reserved bytes: err = %v, want ErrFull", err)
	}
	r.Release()
	if err := d.Put(Checkpoint{ID: 3, Data: make([]byte, 50)}); err != nil {
		t.Fatalf("put after the reservation was released: %v", err)
	}
}

// TestReservationInvisibleUntilPublished: no reader sees a region that is
// still being filled, and Publish shows exactly the filled bytes.
func TestReservationInvisibleUntilPublished(t *testing.T) {
	d := mk(t, 100)
	r, err := d.Reserve(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if u := d.Used(); u != 10 {
		t.Errorf("used = %d with 10 bytes reserved", u)
	}
	if _, err := d.Get(7); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get sees the reservation: err = %v", err)
	}
	if _, ok := d.Latest(); ok {
		t.Error("Latest sees the reservation")
	}
	if _, ok := d.LatestLocked(); ok {
		t.Error("LatestLocked sees the reservation")
	}
	if ids := d.IDs(); len(ids) != 0 {
		t.Errorf("IDs sees the reservation: %v", ids)
	}
	copy(r.Data, "0123456789")
	if err := r.Publish(7, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(7)
	if err != nil || !bytes.Equal(got.Data, []byte("0123456789")) || got.Meta["k"] != "v" {
		t.Errorf("published checkpoint = %q %v, err %v", got.Data, got.Meta, err)
	}
	r.Release()
	if u := d.Used(); u != 10 {
		t.Errorf("used = %d: Release after Publish took the published bytes back", u)
	}
}

// TestFailedPublishKeepsTheReservation: the fault hook fails the publish,
// nothing becomes visible, and the bytes stay claimed until released.
func TestFailedPublishKeepsTheReservation(t *testing.T) {
	d := mk(t, 100)
	boom := errors.New("boom")
	d.SetFaultHook(func(op string, id uint64) error { return boom })
	r, err := d.Reserve(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(1, nil); !errors.Is(err, boom) {
		t.Fatalf("publish err = %v, want the injected fault", err)
	}
	if ids := d.IDs(); len(ids) != 0 || d.Used() != 10 {
		t.Errorf("after a failed publish: ids %v, used %d", ids, d.Used())
	}
	r.Release()
	if u := d.Used(); u != 0 {
		t.Errorf("used = %d after release", u)
	}
}

// TestReleaseWakesParkedAdmission: an abandoned reservation is space coming
// back, and admission waiters hear of it like they do of an unlock.
func TestReleaseWakesParkedAdmission(t *testing.T) {
	d := mk(t, 100)
	await := parked(d)
	r, err := d.Reserve(context.Background(), 90)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- waitAdmit(d, context.Background(), 50) }()
	await(1)
	select {
	case err := <-done:
		t.Fatalf("admitted 50 bytes beside a 90-byte reservation (err=%v)", err)
	default:
	}
	r.Release()
	if err := <-done; err != nil {
		t.Fatalf("admission after release: %v", err)
	}
}

// TestFillWatermark: a reader waiting on the fill watermark wakes exactly
// when the writer marks its bytes filled, never before; a published
// reservation is filled whole; a released one wakes its waiters with
// ErrAbandoned.
func TestFillWatermark(t *testing.T) {
	d := mk(t, 1000)
	ctx := context.Background()
	r, err := d.Reserve(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Used(); got != 100 {
		t.Fatalf("used = %d with a 100-byte reservation open, want 100", got)
	}
	woke := make(chan error, 1)
	go func() { woke <- r.WaitFilled(ctx, 60) }()
	r.Filled(59)
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := r.WaitFilled(canceled, 60); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait on 59 filled bytes of 60 = %v, want it still waiting", err)
	}
	r.Filled(60)
	if err := <-woke; err != nil {
		t.Fatalf("wait after 60 bytes filled = %v", err)
	}
	r.Filled(10) // never moves back
	if err := r.WaitFilled(canceled, 60); err != nil {
		t.Errorf("the watermark moved back: %v", err)
	}
	if err := r.Publish(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitFilled(canceled, 100); err != nil {
		t.Errorf("a published reservation is not filled whole: %v", err)
	}
	if err := r.WaitPublished(canceled); err != nil {
		t.Errorf("wait for a done publish = %v", err)
	}

	r2, err := d.Reserve(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	go func() { woke <- r2.WaitPublished(ctx) }()
	r2.Release()
	if err := <-woke; !errors.Is(err, ErrAbandoned) {
		t.Errorf("wait on a released reservation = %v, want ErrAbandoned", err)
	}
	if err := r2.WaitFilled(ctx, 1); !errors.Is(err, ErrAbandoned) {
		t.Errorf("wait after the release = %v, want ErrAbandoned", err)
	}
	if got := d.Used(); got != 100 {
		t.Errorf("used = %d after a publish and a release, want the published 100", got)
	}
}

// TestWipeKeepsOpenReservations: a wipe drops the residents but not the
// bytes an open reservation claims — its Release returns them — so the count
// never goes negative and the device never admits more than it holds.
func TestWipeKeepsOpenReservations(t *testing.T) {
	d := mk(t, 100)
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := d.Put(Checkpoint{ID: 1, Data: make([]byte, 30)}); err != nil {
		t.Fatal(err)
	}
	r, err := d.Reserve(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	d.Wipe()
	if got := d.Used(); got != 60 {
		t.Fatalf("used = %d after a wipe beside a 60-byte reservation, want 60", got)
	}
	if _, err := d.Reserve(canceled, 50); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("admitted 50 bytes beside a 60-byte reservation after a wipe (err=%v)", err)
	}
	r.Release()
	if got := d.Used(); got != 0 {
		t.Fatalf("used = %d once the reservation is released, want 0", got)
	}
	full, err := d.Reserve(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Release()
	if _, err := d.Reserve(canceled, 60); !errors.Is(err, ErrBackpressure) {
		t.Errorf("admitted 60 bytes beside a 100-byte reservation on a 100-byte device (err=%v)", err)
	}
}

// TestReleaseWaitsForHolder: Release of a held reservation returns only
// once its reader lets go, and retires the region only then — so a reader
// never sees the region poisoned or handed to the next claim while it reads.
// A held reservation that publishes is locked against eviction until its
// reader lets go.
func TestReleaseWaitsForHolder(t *testing.T) {
	d := mk(t, 100)
	ctx := context.Background()
	r, err := d.Reserve(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	copy(r.Data, bytes.Repeat([]byte{7}, 60))
	r.Filled(60)
	data := r.Data
	unhold, _ := r.Hold()
	released := make(chan struct{})
	go func() {
		r.Release()
		close(released)
	}()
	// The releaser is told the bytes will never come before it waits.
	if err := r.WaitPublished(ctx); !errors.Is(err, ErrAbandoned) {
		t.Fatalf("wait during a release = %v, want ErrAbandoned", err)
	}
	select {
	case <-released:
		t.Fatal("Release returned while a reader held the region")
	default:
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{7}, 60)) {
		t.Fatal("the region changed under its reader")
	}
	unhold()
	<-released
	if u := d.Used(); u != 0 {
		t.Errorf("used = %d after the release, want 0", u)
	}

	r, err = d.Reserve(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	unhold, _ = r.Hold()
	if err := r.Publish(2, nil); err != nil {
		t.Fatal(err)
	}
	if got := d.LockedBytes(); got != 60 {
		t.Errorf("locked bytes = %d after a held publish, want 60", got)
	}
	if _, err := d.Reserve(canceledCtx(), 60); !errors.Is(err, ErrBackpressure) {
		t.Errorf("a claim evicted a checkpoint its reader still holds: %v", err)
	}
	unhold()
	if got := d.LockedBytes(); got != 0 {
		t.Errorf("locked bytes = %d after the reader let go, want 0", got)
	}
	if r2, err := d.Reserve(ctx, 60); err != nil {
		t.Errorf("claim after the reader let go: %v", err)
	} else {
		r2.Release()
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestHoldAndReleaseHook: a reservation already published or released cannot
// be held, and the writer's release hook runs once, after a release, never
// after a publish.
func TestHoldAndReleaseHook(t *testing.T) {
	d := mk(t, 100)
	ctx := context.Background()
	hooked := 0
	r, err := d.Reserve(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	r.OnRelease(func() { hooked++ })
	if err := r.Publish(1, nil); err != nil {
		t.Fatal(err)
	}
	r.Release()
	if _, ok := r.Hold(); ok || hooked != 0 {
		t.Errorf("published reservation: held %v, hook ran %d times, want neither", ok, hooked)
	}
	r, err = d.Reserve(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	r.OnRelease(func() { hooked++ })
	r.Release()
	r.Release()
	if _, ok := r.Hold(); ok || hooked != 1 {
		t.Errorf("released reservation: held %v, hook ran %d times, want not held and once", ok, hooked)
	}
}
