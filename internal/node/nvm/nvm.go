// Package nvm models a compute node's local NVM checkpoint store: a
// capacity-bounded device whose checkpoint region is organized as a
// circular FIFO buffer (§4.2.1). Checkpoints being drained to global I/O by
// the NDP are locked against eviction (§4.2.2); the host's writes always
// get the full device bandwidth, with any concurrent NDP activity paused by
// the engine layer.
package nvm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ndpcr/internal/metrics"
	"ndpcr/internal/units"
)

// Common errors.
var (
	// ErrFull reports that a write cannot fit even after evicting every
	// unlocked checkpoint.
	ErrFull = errors.New("nvm: device full (all resident checkpoints locked)")
	// ErrNotFound reports a missing checkpoint ID.
	ErrNotFound = errors.New("nvm: checkpoint not found")
	// ErrTooLarge reports a checkpoint bigger than the device.
	ErrTooLarge = errors.New("nvm: checkpoint exceeds device capacity")
	// ErrBackpressure reports that admission control gave up waiting for
	// space: occupancy minus drain-locked residents could not admit the
	// write before the caller's deadline. The node commit path surfaces
	// this typed error instead of ErrFull.
	ErrBackpressure = errors.New("nvm: admission backpressure (locked residents exceed free space)")
	// ErrAbandoned reports that a reservation a reader waits on was released
	// unpublished: the bytes it waits for will never arrive.
	ErrAbandoned = errors.New("nvm: reservation released unpublished")
)

// Pacer throttles data movement to a simulated bandwidth. The zero-value
// pacer is unthrottled; tests inject a recording sleep function.
type Pacer struct {
	// Bandwidth of the simulated device; 0 disables throttling.
	Bandwidth units.Bandwidth
	// Sleep is called with the transfer duration; nil means no delay is
	// simulated (the duration is still computed for callers that record
	// it). Tests substitute a recorder.
	Sleep func(units.Seconds)
}

// Move accounts (and optionally sleeps for) a transfer of n bytes,
// returning the simulated duration.
func (p Pacer) Move(n int) units.Seconds {
	if p.Bandwidth <= 0 {
		return 0
	}
	d := p.Bandwidth.TimeToMove(units.Bytes(n))
	if p.Sleep != nil {
		p.Sleep(d)
	}
	return d
}

// Checkpoint is one resident checkpoint.
type Checkpoint struct {
	ID   uint64
	Data []byte
	// Meta carries BLCR-style identification (job, rank, step); opaque to
	// the device.
	Meta map[string]string
}

// Device is a checkpoint-region NVM device. All methods are safe for
// concurrent use.
type Device struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ckpts    map[uint64]*entry
	order    []uint64 // FIFO eviction order (ascending insertion)

	// faultHook, when set, is consulted at the top of Put and Get with the
	// operation name ("put"/"get") and checkpoint ID; a non-nil return
	// fails the operation. Fault-injection harnesses install it; the nil
	// default costs one mutex-protected load per operation.
	faultHook func(op string, id uint64) error

	// admit, when non-nil, is a broadcast channel admission waiters park
	// on; it is closed (and nilled) whenever space may have been released
	// (an unlock, a discard, a wipe), waking every waiter to re-check.
	admit chan struct{}

	// spare is the region retired last (retireLocked), for the next claim
	// it fits: the §4.2.1 ring is rewritten, not allocated afresh.
	spare []byte

	// open counts the reservations neither published nor released.
	open int

	// Occupancy gauges, moved under mu wherever the value they mirror moves,
	// so the devices of every node on one registry add up to one sum (a
	// sampled GaugeFunc would keep the first device's function). Private
	// gauges until Instrument swaps in the registry's.
	mCapacity, mUsed, mResident, mLockedCkpts, mLockedBytes *metrics.Gauge

	// Metrics (nil until Instrument is called).
	mEvictions     *metrics.Counter
	mFull          *metrics.Counter
	mLockConflicts *metrics.Counter
	mWriteBytes    *metrics.Histogram
	mReadBytes     *metrics.Histogram
	mAdmitWaits    *metrics.Counter
	mBackpressure  *metrics.Counter
	mAdmitWaitSecs *metrics.Histogram

	mReuses, mAllocs *metrics.Counter // region claims; private until Instrument, never nil
}

type entry struct {
	ckpt  Checkpoint
	locks int
	// lent says a reader outside a drain lock (Get, Latest) has seen the
	// region and may keep it: it is never reused.
	lent bool
}

// NewDevice creates a device with the given checkpoint-region capacity in
// bytes. Capacity must be positive.
func NewDevice(capacity int64) (*Device, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("nvm: capacity must be positive, got %d", capacity)
	}
	d := &Device{capacity: capacity, ckpts: make(map[uint64]*entry),
		mReuses: new(metrics.Counter), mAllocs: new(metrics.Counter)}
	d.setGauges(func(string, string) *metrics.Gauge { return new(metrics.Gauge) })
	return d, nil
}

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// setGauges points the occupancy gauges at the ones get returns and adds this
// device's share to them. Caller holds d.mu (or owns d alone).
func (d *Device) setGauges(get func(name, help string) *metrics.Gauge) {
	d.mCapacity = get("ndpcr_nvm_capacity_bytes", "checkpoint-region capacity")
	d.mUsed = get("ndpcr_nvm_used_bytes", "bytes resident in the checkpoint region")
	d.mResident = get("ndpcr_nvm_resident_checkpoints", "checkpoints resident in NVM")
	d.mLockedCkpts = get("ndpcr_nvm_locked_checkpoints", "resident checkpoints pinned by a drain lock")
	d.mLockedBytes = get("ndpcr_nvm_locked_bytes", "bytes pinned by drain locks (not reclaimable by admission control)")
	d.shareLocked(+1)
}

// shareLocked adds (sign +1) or withdraws (-1) everything this device
// contributes to the occupancy gauges. Caller holds d.mu.
func (d *Device) shareLocked(sign int64) {
	d.mCapacity.Add(sign * d.capacity)
	d.mUsed.Add(sign * d.used)
	d.mResident.Add(sign * int64(len(d.ckpts)))
	for _, e := range d.ckpts {
		if e.locks > 0 {
			d.pinnedLocked(e, sign)
		}
	}
}

// pinnedLocked accounts e entering (sign +1) or leaving (-1) the set of
// drain-locked residents. Caller holds d.mu.
func (d *Device) pinnedLocked(e *entry, sign int64) {
	d.mLockedCkpts.Add(sign)
	d.mLockedBytes.Add(sign * int64(len(e.ckpt.Data)))
}

// addUsedLocked moves the resident-plus-reserved byte count. Caller holds d.mu.
func (d *Device) addUsedLocked(n int64) {
	d.used += n
	d.mUsed.Add(n)
}

// Retire withdraws the device's share from the registry's occupancy gauges:
// its owner is going away, and a closed node must stop counting in the sum.
// The device itself stays usable.
func (d *Device) Retire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.spare = nil
	d.shareLocked(-1)
	d.setGauges(func(string, string) *metrics.Gauge { return new(metrics.Gauge) })
}

// Instrument registers the device's metrics (occupancy, evictions, lock
// conflicts, transfer sizes) with r. Every series is shared by name: the
// devices of all nodes on one registry sum.
func (d *Device) Instrument(r *metrics.Registry) {
	d.mu.Lock()
	d.setGauges(r.Gauge)
	d.mu.Unlock()
	d.mEvictions = r.Counter("ndpcr_nvm_evictions_total", "checkpoints evicted by circular-buffer pressure")
	d.mFull = r.Counter("ndpcr_nvm_full_total", "writes rejected because every resident checkpoint was locked")
	d.mLockConflicts = r.Counter("ndpcr_nvm_lock_conflicts_total", "writes that skipped or collided with a locked checkpoint")
	d.mWriteBytes = r.Histogram("ndpcr_nvm_write_bytes", "checkpoint sizes written to NVM", metrics.UnitBytes)
	d.mReadBytes = r.Histogram("ndpcr_nvm_read_bytes", "checkpoint sizes read from NVM", metrics.UnitBytes)
	d.mAdmitWaits = r.Counter("ndpcr_nvm_admission_waits_total", "commits that had to wait for drain-locked space")
	d.mBackpressure = r.Counter("ndpcr_nvm_backpressure_total", "admission waits abandoned at the caller's deadline (ErrBackpressure)")
	d.mAdmitWaitSecs = r.Histogram("ndpcr_nvm_admission_wait_seconds", "time commits spent blocked on admission", metrics.UnitSeconds)
	d.mReuses = r.Counter("ndpcr_nvm_region_reuses_total", "claims served the region the device retired last")
	d.mAllocs = r.Counter("ndpcr_nvm_region_allocs_total", "claims that allocated a fresh region")
}

// SetFaultHook installs (or, with nil, removes) a failure-injection hook
// called at the top of every Put and Get with the operation name and
// checkpoint ID; a non-nil return aborts the operation with that error.
func (d *Device) SetFaultHook(h func(op string, id uint64) error) {
	d.mu.Lock()
	d.faultHook = h
	d.mu.Unlock()
}

// checkFault runs the fault hook, if any, outside d.mu (stall-mode hooks
// sleep).
func (d *Device) checkFault(op string, id uint64) error {
	d.mu.Lock()
	h := d.faultHook
	d.mu.Unlock()
	if h == nil {
		return nil
	}
	return h(op, id)
}

// Used returns the bytes currently resident.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// LockedBytes returns the bytes pinned by drain locks — residents the
// circular buffer may not evict and admission control may not count as
// reclaimable.
func (d *Device) LockedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, e := range d.ckpts {
		if e.locks > 0 {
			n += int64(len(e.ckpt.Data))
		}
	}
	return n
}

// signalAdmitLocked wakes every admission waiter to re-check. Caller holds
// d.mu and has just released space or a lock.
func (d *Device) signalAdmitLocked() {
	if d.admit != nil {
		close(d.admit)
		d.admit = nil
	}
}

// claimLocked (caller holds d.mu) takes size bytes out of the device if free
// space plus every unlocked (evictable) resident covers them, evicting the
// oldest to make room (circular-buffer semantics). Claimed bytes count as
// used and belong to no resident: nothing evicts them, none are overcommitted.
// The region for them is the spare — a region evicted here is the spare —
// when its capacity is at least size and at most twice it; otherwise region
// is nil and the caller allocates, outside d.mu.
func (d *Device) claimLocked(size int64) (region []byte, ok bool) {
	free := d.capacity - d.used
	for _, e := range d.ckpts {
		if e.locks == 0 {
			free += int64(len(e.ckpt.Data))
		}
	}
	if free < size {
		return nil, false
	}
	for d.used+size > d.capacity {
		d.evictOldestUnlocked()
	}
	d.addUsedLocked(size)
	d.open++
	if c := int64(cap(d.spare)); c > 0 && size <= c && c <= 2*size {
		region, d.spare = d.spare[:size], nil
	}
	return region, true
}

// region is the memory of a successful claim: the spare it took, or fresh.
func (d *Device) region(spare []byte, size int64) []byte {
	if spare != nil {
		d.mReuses.Inc()
		return spare
	}
	d.mAllocs.Inc()
	return make([]byte, size)
}

// retireLocked makes region, which just left the device, the spare. Only a
// region no reader can still hold may be retired: one never lent (Get,
// Latest) and not under a drain lock as it left. Under the race detector it
// is poisoned first, so a reader that kept it fails a byte comparison.
// Caller holds d.mu.
func (d *Device) retireLocked(region []byte) {
	region = region[:cap(region)]
	if raceEnabled {
		for i := range region {
			region[i] = 0xDB
		}
	}
	d.spare = region
}

// Reservation is a claimed region no reader can see yet: the writer fills
// Data holding no device lock, then Publishes or Releases it. One reader may
// Hold it while it fills — a cut-through drain, which reads each block of
// the filled prefix as the writer's Filled watermark passes it.
type Reservation struct {
	Data  []byte    // exactly the reserved size; nil once published or released
	Start time.Time // when Reserve was called: the commit's start
	d     *Device

	onRelease func() // the writer's, run by Release (OnRelease)

	// The fill state, under d.mu. wake is closed (and nilled) whenever it
	// moves, waking every WaitFilled, WaitPublished and Release to re-check.
	filled    int
	held      bool // a reader holds the region (Hold)
	gone      bool // released unpublished
	published bool
	id        uint64 // the ID it was published as
	wake      chan struct{}
}

// Reserve claims size bytes for one write, blocking until they can be or
// ctx ends (an ErrBackpressure-wrapped error). It is the node commit path's
// admission control: instead of failing ErrFull when drain locks pin the
// space, the committer parks here and is woken as drains release their
// locks or reservations are released. Publish cannot find the device full.
// Data holds unspecified bytes: an older checkpoint of this device, never
// another device's.
func (d *Device) Reserve(ctx context.Context, size int64) (*Reservation, error) {
	if size > d.capacity {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, size, d.capacity)
	}
	start := time.Now()
	waited := false
	for {
		d.mu.Lock()
		if spare, ok := d.claimLocked(size); ok {
			d.mu.Unlock()
			if waited && d.mAdmitWaitSecs != nil {
				d.mAdmitWaitSecs.ObserveSince(start)
			}
			return &Reservation{Data: d.region(spare, size), Start: start, d: d}, nil
		}
		if d.admit == nil {
			d.admit = make(chan struct{})
		}
		ch := d.admit
		d.mu.Unlock()
		if !waited {
			waited = true
			if d.mAdmitWaits != nil {
				d.mAdmitWaits.Inc()
			}
		}
		select {
		case <-ch:
		case <-ctx.Done():
			if d.mBackpressure != nil {
				d.mBackpressure.Inc()
			}
			if d.mAdmitWaitSecs != nil {
				d.mAdmitWaitSecs.ObserveSince(start)
			}
			return nil, fmt.Errorf("%w: %d bytes not admissible: %w", ErrBackpressure, size, ctx.Err())
		}
	}
}

// Release returns an unpublished reservation's bytes, and its region to the
// spare slot, waking admission waiters; a no-op after Publish, so writers
// defer it. A reader that holds the region is told the bytes will never come
// (ErrAbandoned) and waited for: the region is retired only once no reader
// can touch it. The writer must not touch Data after Release.
func (r *Reservation) Release() {
	if r.Data == nil {
		return
	}
	d := r.d
	d.mu.Lock()
	r.gone = true
	r.wakeLocked()
	for r.held {
		ch := r.waitLocked()
		d.mu.Unlock()
		<-ch
		d.mu.Lock()
	}
	d.addUsedLocked(-int64(len(r.Data)))
	d.open--
	d.retireLocked(r.Data)
	d.signalAdmitLocked()
	d.mu.Unlock()
	r.Data = nil
	if r.onRelease != nil {
		r.onRelease()
	}
}

// OnRelease makes Release run f once it has given the reservation up
// unpublished, after no reader holds it; a published reservation never runs
// it. It is how a writer that handed the reservation to a reader undoes what
// the hand-over took, whichever way the reservation is released.
func (r *Reservation) OnRelease(f func()) { r.onRelease = f }

// Filled advances the fill watermark: the writer has filled Data's first n
// bytes, and a reader holding the region may read them. It never moves back.
func (r *Reservation) Filled(n int) {
	r.d.mu.Lock()
	if n > r.filled {
		r.filled = n
		r.wakeLocked()
	}
	r.d.mu.Unlock()
}

// WaitFilled blocks until Data's first m bytes are filled (nil), the
// reservation is released unpublished (ErrAbandoned), or ctx ends. A
// published reservation is filled whole.
func (r *Reservation) WaitFilled(ctx context.Context, m int) error {
	return r.await(ctx, func() bool { return r.filled >= m })
}

// WaitPublished blocks until the reservation is published (nil), released
// unpublished (ErrAbandoned), or ctx ends.
func (r *Reservation) WaitPublished(ctx context.Context) error {
	return r.await(ctx, func() bool { return r.published })
}

func (r *Reservation) await(ctx context.Context, done func() bool) error {
	d := r.d
	for {
		d.mu.Lock()
		if done() {
			d.mu.Unlock()
			return nil
		}
		if r.gone {
			d.mu.Unlock()
			return ErrAbandoned
		}
		ch := r.waitLocked()
		d.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Hold makes the caller the reservation's reader: it may read the filled
// prefix of the region — Data as it was when the writer handed it over —
// until it calls unhold. Release waits for unhold; Publish turns the hold into
// an eviction lock on the new checkpoint, which unhold then releases. A
// reservation already published or released cannot be held (ok false): its
// region is a resident's, or no one's.
func (r *Reservation) Hold() (unhold func(), ok bool) {
	d := r.d
	d.mu.Lock()
	if r.gone || r.published {
		d.mu.Unlock()
		return nil, false
	}
	r.held = true
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		published, id := r.published, r.id
		if !published {
			r.held = false
			r.wakeLocked()
		}
		d.mu.Unlock()
		if published {
			d.Unlock(id) // ErrNotFound: discarded while held, nothing to unlock
		}
	}, true
}

// waitLocked is the channel the next move of the fill state closes. Caller
// holds d.mu.
func (r *Reservation) waitLocked() chan struct{} {
	if r.wake == nil {
		r.wake = make(chan struct{})
	}
	return r.wake
}

// wakeLocked wakes everyone parked on the fill state. Caller holds d.mu.
func (r *Reservation) wakeLocked() {
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}

// Publish makes the filled region visible as checkpoint id; the region
// becomes the resident data, nothing is copied. A held reservation publishes
// locked against eviction, the lock its reader releases. On failure (fault
// hook, locked resident of the same ID) the reservation stays held.
func (r *Reservation) Publish(id uint64, meta map[string]string) error {
	d := r.d
	if err := d.checkFault("put", id); err != nil {
		return fmt.Errorf("nvm: put %d: %w", id, err)
	}
	stored := Checkpoint{ID: id, Data: r.Data}
	if meta != nil {
		stored.Meta = make(map[string]string, len(meta))
		for k, v := range meta {
			stored.Meta[k] = v
		}
	}
	d.mu.Lock()
	if old, exists := d.ckpts[id]; exists {
		if old.locks > 0 {
			d.mu.Unlock()
			if d.mLockConflicts != nil {
				d.mLockConflicts.Inc()
			}
			return fmt.Errorf("nvm: checkpoint %d is locked and cannot be overwritten", id)
		}
		d.removeLocked(id)
	}
	e := &entry{ckpt: stored}
	d.ckpts[id] = e
	d.order = append(d.order, id)
	d.mResident.Inc()
	d.open--
	if r.held {
		d.lockLocked(e)
	}
	r.published, r.id, r.filled = true, id, len(r.Data)
	r.wakeLocked()
	d.mu.Unlock()
	r.Data = nil

	if d.mWriteBytes != nil {
		d.mWriteBytes.Observe(int64(len(stored.Data)))
	}
	return nil
}

// Put writes a checkpoint without waiting for admission: claim, copy
// (outside the device mutex; callers may reuse the slice), publish. It
// returns ErrTooLarge when oversized, ErrFull when locked residents block.
func (d *Device) Put(ckpt Checkpoint) error {
	size := int64(len(ckpt.Data))
	if size > d.capacity {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, size, d.capacity)
	}
	d.mu.Lock()
	spare, ok := d.claimLocked(size)
	d.mu.Unlock()
	if !ok {
		if d.mFull != nil {
			d.mFull.Inc()
		}
		return ErrFull
	}
	r := &Reservation{Data: d.region(spare, size), d: d}
	copy(r.Data, ckpt.Data)
	defer r.Release()
	return r.Publish(ckpt.ID, ckpt.Meta)
}

// evictOldestUnlocked removes the oldest unlocked checkpoint; it reports
// whether anything was evicted. Caller holds d.mu.
func (d *Device) evictOldestUnlocked() bool {
	for _, id := range d.order {
		e, ok := d.ckpts[id]
		if ok && e.locks == 0 {
			d.removeLocked(id)
			if d.mEvictions != nil {
				d.mEvictions.Inc()
			}
			return true
		}
		if ok && d.mLockConflicts != nil {
			d.mLockConflicts.Inc()
		}
	}
	return false
}

// removeLocked removes id from the maps, retiring its region if no reader
// can hold it. Caller holds d.mu.
func (d *Device) removeLocked(id uint64) {
	e, ok := d.ckpts[id]
	if !ok {
		return
	}
	d.addUsedLocked(-int64(len(e.ckpt.Data)))
	d.mResident.Dec()
	if e.locks > 0 {
		d.pinnedLocked(e, -1)
	} else if !e.lent {
		d.retireLocked(e.ckpt.Data)
	}
	delete(d.ckpts, id)
	for i, oid := range d.order {
		if oid == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// Get returns the checkpoint with the given ID. The returned data aliases
// device memory and must be treated as read-only; it is lent for keeps, so
// the device never reuses the region.
func (d *Device) Get(id uint64) (Checkpoint, error) { return d.get(id, true) }

// GetLocked is Get for a reader that holds an eviction lock on id (the NDP
// drain took one in LatestLocked) and reads the data only until it unlocks.
// It lends nothing, so the region stays reusable once it leaves the device;
// an unlocked checkpoint is an error.
func (d *Device) GetLocked(id uint64) (Checkpoint, error) { return d.get(id, false) }

func (d *Device) get(id uint64, lend bool) (Checkpoint, error) {
	if err := d.checkFault("get", id); err != nil {
		return Checkpoint{}, fmt.Errorf("nvm: get %d: %w", id, err)
	}
	d.mu.Lock()
	e, ok := d.ckpts[id]
	if !ok {
		d.mu.Unlock()
		return Checkpoint{}, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if !lend && e.locks == 0 {
		d.mu.Unlock()
		return Checkpoint{}, fmt.Errorf("nvm: checkpoint %d read without an eviction lock", id)
	}
	e.lent = e.lent || lend
	ckpt := e.ckpt
	d.mu.Unlock()
	if d.mReadBytes != nil {
		d.mReadBytes.Observe(int64(len(ckpt.Data)))
	}
	return ckpt, nil
}

// Latest returns the resident checkpoint with the highest ID, or false if
// the device is empty. Its data is lent like Get's.
func (d *Device) Latest() (Checkpoint, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var best *entry
	for _, e := range d.ckpts {
		if best == nil || e.ckpt.ID > best.ckpt.ID {
			best = e
		}
	}
	if best == nil {
		return Checkpoint{}, false
	}
	best.lent = true
	return best.ckpt, true
}

// LatestLocked atomically finds the resident checkpoint with the highest
// ID and takes an eviction lock on it before releasing the device mutex.
// The separate Latest-then-Lock sequence leaves a window where circular-
// buffer eviction can reclaim the chosen checkpoint; the NDP engine uses
// this to pin its drain candidate race-free. The caller must Unlock the
// returned ID, and may read its data only until then (GetLocked's rule).
func (d *Device) LatestLocked() (Checkpoint, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var best *entry
	for _, e := range d.ckpts {
		if best == nil || e.ckpt.ID > best.ckpt.ID {
			best = e
		}
	}
	if best == nil {
		return Checkpoint{}, false
	}
	d.lockLocked(best)
	return best.ckpt, true
}

// OpenReservations counts the reservations neither published nor released:
// commits whose bytes are still arriving.
func (d *Device) OpenReservations() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.open
}

// IDs returns resident checkpoint IDs in ascending order.
func (d *Device) IDs() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0, len(d.ckpts))
	for id := range d.ckpts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Lock pins a checkpoint against eviction and overwrite (the NDP locks the
// checkpoint it is draining, §4.2.2). Locks nest.
func (d *Device) Lock(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.ckpts[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	d.lockLocked(e)
	return nil
}

// lockLocked takes one lock on e. Caller holds d.mu.
func (d *Device) lockLocked(e *entry) {
	if e.locks++; e.locks == 1 {
		d.pinnedLocked(e, +1)
	}
}

// Unlock releases one lock on a checkpoint. Unlocking a missing or
// unlocked checkpoint is an error (it indicates an engine bug).
func (d *Device) Unlock(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.ckpts[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if e.locks == 0 {
		return fmt.Errorf("nvm: checkpoint %d is not locked", id)
	}
	e.locks--
	if e.locks == 0 {
		// The entry became evictable: admission waiters may fit now.
		d.pinnedLocked(e, -1)
		d.signalAdmitLocked()
	}
	return nil
}

// Discard force-removes a checkpoint, locks and all, reporting whether it
// was resident. It is the abort path of a failed coordinated checkpoint: a
// poisoned ID must not stay restorable, even while an NDP drain still holds
// its eviction lock (the drain tolerates the checkpoint vanishing).
func (d *Device) Discard(id uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.ckpts[id]; !ok {
		return false
	}
	d.removeLocked(id)
	d.signalAdmitLocked()
	return true
}

// DiscardThrough force-removes every resident checkpoint whose ID is at or
// below id, by Discard's rule. It allocates nothing.
func (d *Device) DiscardThrough(id uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	removed := false
	// Backwards: removeLocked shifts only the entries after the one it drops.
	for i := len(d.order) - 1; i >= 0; i-- {
		if old := d.order[i]; old <= id {
			d.removeLocked(old)
			removed = true
		}
	}
	if removed {
		d.signalAdmitLocked()
	}
}

// Wipe simulates node-local storage loss (a failure that the local level
// cannot recover from): every checkpoint disappears, locks and all.
func (d *Device) Wipe() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.shareLocked(-1)
	d.ckpts = make(map[uint64]*entry)
	d.order = nil
	d.used = 0
	d.spare = nil
	d.shareLocked(+1)
	d.signalAdmitLocked()
}
