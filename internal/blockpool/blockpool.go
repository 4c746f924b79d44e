// Package blockpool is the process's one pool of block-sized byte buffers.
// Every layer that moves a checkpoint block into a buffer of its own — a
// wire receive, a store's copy-in and copy-out, a codec's output — draws the
// buffer here and, when it is the buffer's last owner, returns it here. At
// GB/s a fresh buffer per block is hundreds of MB/s of garbage, zeroed and
// page-faulted only to be overwritten before anyone reads the zeroes.
//
// Ownership is a rule, not something Put can check: a buffer has one owner
// at a time, only the owner may Put it, and only after its last read. A
// slice handed out by Get that is never Put is garbage like any other. Put's
// capacity check keeps odd-sized memory out of the pool; it cannot tell a
// pooled buffer from a sub-slice of someone else's memory whose capacity
// happens to be a class size, so memory that was not drawn from Get (or was
// lent to anyone who may still read it) must never reach Put.
package blockpool

import (
	"sync"
	"sync/atomic"
)

// classes are the pooled buffer sizes, powers of two from 1 KiB to 4 MiB. A
// Get rounds up to the smallest class that fits, so a buffer is at most
// twice what was asked for; a Put recycles only exact-class capacities.
var classes = [...]int{
	1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10,
	128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20,
}

var (
	pools        [len(classes)]sync.Pool
	hits, misses atomic.Uint64
)

// Get returns a buffer of length n with unspecified contents, pooled when a
// size class fits.
func Get(n int) []byte {
	for i, size := range classes {
		if n <= size {
			if p, ok := pools[i].Get().(*[]byte); ok {
				hits.Add(1)
				return (*p)[:n]
			}
			misses.Add(1)
			return make([]byte, size)[:n]
		}
	}
	misses.Add(1)
	return make([]byte, n)
}

// Put recycles a buffer its owner is done with. Buffers whose capacity is
// not exactly a size class (oversized Gets, codec output that outgrew its
// buffer) are dropped. Under the race detector the buffer is overwritten
// first, so a use after release fails a byte comparison instead of reading
// stale bytes that happen to be right.
func Put(b []byte) {
	c := cap(b)
	for i, size := range classes {
		if c == size {
			b = b[:c]
			poison(b)
			pools[i].Put(&b)
			return
		}
	}
}

// Stats reports how many Gets were served from the pool and how many
// allocated (pool empty, or larger than every class), process-wide.
func Stats() (hit, miss uint64) {
	return hits.Load(), misses.Load()
}
