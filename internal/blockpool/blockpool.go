// Package blockpool is the process's one pool of block-sized byte buffers.
// Every layer that moves a checkpoint block into a buffer of its own — a
// wire receive, a store's copy-in and copy-out, a codec's output — draws the
// buffer here and, when it is the buffer's last owner, returns it here. At
// GB/s a fresh buffer per block is hundreds of MB/s of garbage, zeroed and
// page-faulted only to be overwritten before anyone reads the zeroes.
//
// Each size class keeps its idle buffers on a free list of its own, so they
// outlive garbage collections: block memory is the process's working set, not
// a cache the collector empties. Retention follows demand, with no cap and no
// knob. A class counts the fewest buffers it held idle since its last trim —
// that many were never needed in the meantime — and once trimPeriod has
// passed, a Put hands that many of every class to the collector.
//
// Ownership is a rule, not something Put can check: a buffer has one owner
// at a time, only the owner may Put it, and only after its last read. A
// slice handed out by Get that is never Put is garbage like any other. Put's
// capacity check keeps odd-sized memory out of the pool; it cannot tell a
// pooled buffer from a sub-slice of someone else's memory whose capacity
// happens to be a class size, so memory that was not drawn from Get (or was
// lent to anyone who may still read it) must never reach Put. Under the race
// detector Put does check one thing more: a buffer that is already idle is
// released twice, and Put panics.
package blockpool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// classes are the pooled buffer sizes, powers of two from 1 KiB to 4 MiB. A
// Get rounds up to the smallest class that fits, so a buffer is at most
// twice what was asked for; a Put recycles only exact-class capacities.
var classes = [...]int{
	1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10,
	128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20,
}

// trimPeriod is how long an idle buffer may go unneeded before it is handed
// to the collector: several rounds of a checkpoint loop, so that a buffer a
// loop uses once a round stays pooled.
const trimPeriod = 10 * time.Second

// clockEvery is how many Puts of a class go by between readings of the
// clock, which costs as much as the rest of a Get and a Put together.
const clockEvery = 64

// class is one size class: a stack of idle buffers (Get takes the one Put
// last) and its counts, all under mu.
type class struct {
	mu   sync.Mutex
	size int
	free [][]byte
	// low is the fewest buffers held idle since the last trim: at least
	// that many were not needed in the meantime.
	low                int
	hits, misses, puts uint64
}

// pool is the free lists of every class, trimmed against its own clock.
type pool struct {
	classes [len(classes)]class
	now     func() time.Time
	epoch   time.Time
	// nextTrim is when, in nanoseconds past epoch, the next trim is due.
	nextTrim atomic.Int64
	oversize atomic.Uint64 // Gets larger than every class: never pooled
}

func newPool(now func() time.Time) *pool {
	p := &pool{now: now, epoch: now()}
	for i, size := range classes {
		p.classes[i].size = size
	}
	p.nextTrim.Store(int64(trimPeriod))
	return p
}

var std = newPool(time.Now)

// Get returns a buffer of length n with unspecified contents, pooled when a
// size class fits.
func Get(n int) []byte { return std.get(n) }

// Put recycles a buffer its owner is done with. Buffers whose capacity is
// not exactly a size class (oversized Gets, codec output that outgrew its
// buffer) are dropped. Under the race detector the buffer is overwritten
// first, so a use after release fails a byte comparison instead of reading
// stale bytes that happen to be right, and a buffer already idle panics.
func Put(b []byte) { std.put(b) }

// Stats reports how many Gets were served from the pool and how many
// allocated (class empty, or larger than every class), process-wide.
func Stats() (hit, miss uint64) {
	hit, miss, _ = std.stats()
	return hit, miss
}

// IdleBytes reports the bytes of the buffers the pool holds idle.
func IdleBytes() int64 {
	_, _, idle := std.stats()
	return idle
}

func (p *pool) get(n int) []byte {
	for i, size := range classes {
		if n <= size {
			return p.classes[i].get()[:n]
		}
	}
	p.oversize.Add(1)
	return make([]byte, n)
}

func (c *class) get() []byte {
	c.mu.Lock()
	k := len(c.free) - 1
	if k < 0 {
		c.misses++
		c.mu.Unlock()
		return make([]byte, c.size)
	}
	b := c.free[k]
	c.free[k] = nil
	c.free = c.free[:k]
	c.low = min(c.low, k)
	c.hits++
	c.mu.Unlock()
	return b
}

func (p *pool) put(b []byte) {
	for i, size := range classes {
		if cap(b) == size {
			c := &p.classes[i]
			b = b[:size]
			c.mu.Lock()
			if isIdle(c.free, b) {
				c.mu.Unlock()
				panic(fmt.Sprintf("blockpool: a %d-byte buffer released twice", size))
			}
			poison(b)
			c.free = append(c.free, b)
			c.puts++
			readClock := c.puts%clockEvery == 0
			c.mu.Unlock()
			if readClock {
				now, due := int64(p.now().Sub(p.epoch)), p.nextTrim.Load()
				if now >= due && p.nextTrim.CompareAndSwap(due, now+int64(trimPeriod)) {
					p.trim()
				}
			}
			return
		}
	}
}

// trim hands every class's low-water mark of idle buffers, the ones Put
// longest ago, to the collector.
func (p *pool) trim() {
	for i := range p.classes {
		c := &p.classes[i]
		c.mu.Lock()
		n := copy(c.free, c.free[c.low:])
		clear(c.free[n:])
		c.free = c.free[:n]
		c.low = n
		c.mu.Unlock()
	}
}

func (p *pool) stats() (hit, miss uint64, idle int64) {
	miss = p.oversize.Load()
	for i := range p.classes {
		c := &p.classes[i]
		c.mu.Lock()
		hit += c.hits
		miss += c.misses
		idle += int64(len(c.free) * c.size)
		c.mu.Unlock()
	}
	return hit, miss, idle
}
