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
