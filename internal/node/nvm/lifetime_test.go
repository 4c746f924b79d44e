package nvm

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ndpcr/internal/metrics"
)

// counted is a device whose region claims are counted, with a check of the
// reuse and allocation counts so far.
func counted(t *testing.T, capacity int64) (*Device, func(reuses, allocs uint64)) {
	t.Helper()
	d := mk(t, capacity)
	reg := metrics.NewRegistry()
	d.Instrument(reg)
	return d, func(reuses, allocs uint64) {
		t.Helper()
		r := reg.Counter("ndpcr_nvm_region_reuses_total", "").Value()
		a := reg.Counter("ndpcr_nvm_region_allocs_total", "").Value()
		if r != reuses || a != allocs {
			t.Errorf("region reuses/allocs = %d/%d, want %d/%d", r, a, reuses, allocs)
		}
	}
}

func reserve(t *testing.T, d *Device, size int64) *Reservation {
	t.Helper()
	r, err := d.Reserve(context.Background(), size)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// commit reserves size bytes, fills them with fill and publishes them as id;
// it returns the region.
func commit(t *testing.T, d *Device, id uint64, size int64, fill byte) []byte {
	t.Helper()
	r := reserve(t, d, size)
	data := r.Data
	for i := range data {
		data[i] = fill
	}
	if err := r.Publish(id, nil); err != nil {
		t.Fatal(err)
	}
	return data
}

func same(a, b []byte) bool { return &a[0] == &b[0] }

func TestRetiredRegionIsReused(t *testing.T) {
	t.Run("discard", func(t *testing.T) {
		d, counts := counted(t, 1000)
		region := commit(t, d, 1, 500, 1)
		d.Discard(1)
		if r := reserve(t, d, 500); !same(r.Data, region) || len(r.Data) != 500 {
			t.Error("the reservation after a discard did not get the discarded region")
		}
		counts(1, 1)
	})
	t.Run("release", func(t *testing.T) {
		d, counts := counted(t, 1000)
		first := reserve(t, d, 500)
		region := first.Data
		first.Release()
		if r := reserve(t, d, 500); !same(r.Data, region) {
			t.Error("the reservation after a release did not get the released region")
		}
		counts(1, 1)
	})
	t.Run("eviction", func(t *testing.T) {
		d, counts := counted(t, 100)
		region := commit(t, d, 1, 60, 1)
		r := reserve(t, d, 60) // fits only by evicting checkpoint 1
		if ids := d.IDs(); len(ids) != 0 {
			t.Fatalf("resident %v, want checkpoint 1 evicted", ids)
		}
		if !same(r.Data, region) {
			t.Error("the reservation did not get the region its claim evicted")
		}
		counts(1, 1)
	})
	t.Run("republish", func(t *testing.T) {
		d, counts := counted(t, 1000)
		region := commit(t, d, 1, 100, 1)
		commit(t, d, 1, 100, 2) // replaces checkpoint 1: its first region retires
		if r := reserve(t, d, 100); !same(r.Data, region) {
			t.Error("the region a publish replaced was not reused")
		}
		counts(1, 2)
	})
	t.Run("put", func(t *testing.T) {
		d, counts := counted(t, 1000)
		region := commit(t, d, 1, 100, 1)
		d.Discard(1)
		if err := d.Put(Checkpoint{ID: 2, Data: bytes.Repeat([]byte{2}, 100)}); err != nil {
			t.Fatal(err)
		}
		if d.Discard(2); !same(reserve(t, d, 100).Data, region) {
			t.Error("Put did not write into the retired region (or did not retire it again)")
		}
		counts(2, 1)
	})
}

// TestLentRegionIsNeverReused: Get and Latest hand device memory out for
// keeps (a local restore's piece may be kept), so a region they lent is left
// to the collector when it leaves the device.
func TestLentRegionIsNeverReused(t *testing.T) {
	for name, lend := range map[string]func(*Device) []byte{
		"Get": func(d *Device) []byte {
			c, err := d.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			return c.Data
		},
		"Latest": func(d *Device) []byte {
			c, ok := d.Latest()
			if !ok {
				t.Fatal("Latest found nothing")
			}
			return c.Data
		},
	} {
		t.Run(name, func(t *testing.T) {
			d, counts := counted(t, 1000)
			commit(t, d, 1, 500, 1)
			lent := lend(d)
			d.Discard(1)
			r := reserve(t, d, 500)
			for i := range r.Data {
				r.Data[i] = 0xFF
			}
			if !bytes.Equal(lent, bytes.Repeat([]byte{1}, 500)) {
				t.Error("a region lent by " + name + " was reused: the kept slice no longer reads checkpoint 1")
			}
			counts(0, 2)
		})
	}
}

// TestLockedRegionIsNeverReused: a region discarded while a drain holds its
// eviction lock may still be on its way to the store, so it is not retired —
// not then, and not when the drain unlocks.
func TestLockedRegionIsNeverReused(t *testing.T) {
	d, counts := counted(t, 1000)
	commit(t, d, 1, 300, 1)
	pick, ok := d.LatestLocked()
	if !ok || pick.ID != 1 {
		t.Fatalf("LatestLocked = %d, %v", pick.ID, ok)
	}
	drained, err := d.GetLocked(1)
	if err != nil {
		t.Fatal(err)
	}
	d.Discard(1) // a rollback, mid-drain
	first := reserve(t, d, 300)
	if err := d.Unlock(1); err == nil {
		t.Error("unlock of a discarded checkpoint succeeded")
	}
	second := reserve(t, d, 300)
	for _, r := range []*Reservation{first, second} {
		if same(r.Data, drained.Data) {
			t.Fatal("a reservation aliases the region a drain held")
		}
		for i := range r.Data {
			r.Data[i] = 0xFF
		}
	}
	if !bytes.Equal(drained.Data, bytes.Repeat([]byte{1}, 300)) {
		t.Error("the drained region changed under the drain")
	}
	counts(0, 3)
}

// TestDrainReadLendsNothing: GetLocked needs the lock and, unlike Get, leaves
// the region reusable once the drain has unlocked it.
func TestDrainReadLendsNothing(t *testing.T) {
	d, counts := counted(t, 1000)
	region := commit(t, d, 1, 300, 1)
	if _, err := d.GetLocked(1); err == nil {
		t.Error("GetLocked without the eviction lock succeeded")
	}
	if _, ok := d.LatestLocked(); !ok {
		t.Fatal("LatestLocked found nothing")
	}
	if got, err := d.GetLocked(1); err != nil || !same(got.Data, region) {
		t.Fatalf("GetLocked under the lock: err %v", err)
	}
	if err := d.Unlock(1); err != nil {
		t.Fatal(err)
	}
	d.Discard(1)
	if !same(reserve(t, d, 300).Data, region) {
		t.Error("a region only the drain read was not reused")
	}
	counts(1, 1)
}

// TestSpareSizeRule: the spare serves a claim it can hold at most twice over,
// so a 32 MiB region is not pinned under a 1 MiB checkpoint.
func TestSpareSizeRule(t *testing.T) {
	const mib = 1 << 20
	d, counts := counted(t, 64*mib)
	big := reserve(t, d, 32*mib)
	region := big.Data
	big.Release()
	if small := reserve(t, d, mib); same(small.Data, region) {
		t.Error("a 1 MiB reservation was handed the retired 32 MiB region")
	}
	r := reserve(t, d, 20*mib)
	if !same(r.Data, region) || len(r.Data) != 20*mib {
		t.Errorf("a 20 MiB reservation did not get the retired 32 MiB region (len %d)", len(r.Data))
	}
	counts(1, 2)
}

// TestWipeAndRetireEmptyTheSpare: a device that lost its contents, or whose
// owner is going away, keeps no region for later.
func TestWipeAndRetireEmptyTheSpare(t *testing.T) {
	for name, drop := range map[string]func(*Device){"Wipe": (*Device).Wipe, "Retire": (*Device).Retire} {
		t.Run(name, func(t *testing.T) {
			d := mk(t, 1000)
			r := reserve(t, d, 100)
			region := r.Data
			r.Release()
			drop(d)
			if same(reserve(t, d, 100).Data, region) {
				t.Error("the spare survived " + name)
			}
		})
	}
}

// TestRetiredRegionIsPoisonedUnderRace pins the sanitizer: with the race
// detector on, a retired region is overwritten, so a reader that kept it
// sees 0xDB in every byte-identity check; without it nothing is touched.
func TestRetiredRegionIsPoisonedUnderRace(t *testing.T) {
	d := mk(t, 1000)
	r := reserve(t, d, 100)
	kept := r.Data
	for i := range kept {
		kept[i] = 7
	}
	r.Release()
	want := byte(7)
	if raceEnabled {
		want = 0xDB
	}
	if kept[0] != want || kept[len(kept)-1] != want {
		t.Errorf("after Release the region reads %#x…%#x, want %#x (race detector: %v)", kept[0], kept[len(kept)-1], want, raceEnabled)
	}
}

// TestRegionCountsSumAcrossDevices: like the occupancy gauges, the reuse and
// allocation counters are shared by name, so a gateway's sessions sum.
func TestRegionCountsSumAcrossDevices(t *testing.T) {
	reg := metrics.NewRegistry()
	a, b := mk(t, 1000), mk(t, 1000)
	a.Instrument(reg)
	b.Instrument(reg)
	reserve(t, a, 100).Release()
	reserve(t, a, 100)
	reserve(t, b, 100)
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"ndpcr_nvm_region_reuses_total 1\n", "ndpcr_nvm_region_allocs_total 2\n"} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("exposition lacks %q", strings.TrimSpace(line))
		}
	}
}
