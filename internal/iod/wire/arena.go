package wire

import (
	"sync"

	"ndpcr/internal/metrics"
)

// arenaClasses are the pooled buffer size classes. A Get rounds up to the
// smallest class that fits; a Put recycles only exact-class buffers, so a
// foreign slice can never poison a pool. 64 KiB is the drain block size, so
// a steady-state drain recycles the same few buffers forever.
var arenaClasses = [...]int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// Arena is a tiered sync.Pool of []byte buffers, shared by every lane of a
// client (or every connection of a server). A fresh buffer per received
// block is, at GB/s drain rates, hundreds of MB/s of garbage on both ends
// of the connection. All methods are safe for concurrent use; a nil Arena
// degrades to plain allocation.
type Arena struct {
	pools [len(arenaClasses)]sync.Pool

	// Hit/Miss count buffer reuse vs. fresh allocation (including
	// larger-than-class requests). Nil until instrumented.
	Hit, Miss *metrics.Counter
}

// NewArena builds an empty arena.
func NewArena() *Arena {
	return &Arena{}
}

// Get returns a buffer of length n, pooled when a size class fits.
func (a *Arena) Get(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	for i, size := range arenaClasses {
		if n <= size {
			if p, ok := a.pools[i].Get().(*[]byte); ok {
				if a.Hit != nil {
					a.Hit.Inc()
				}
				return (*p)[:n]
			}
			if a.Miss != nil {
				a.Miss.Inc()
			}
			return make([]byte, size)[:n]
		}
	}
	if a.Miss != nil {
		a.Miss.Inc()
	}
	return make([]byte, n)
}

// Put recycles a buffer obtained from Get. Buffers whose capacity is not
// exactly a size class (oversized Gets, foreign slices) are dropped.
func (a *Arena) Put(b []byte) {
	if a == nil || b == nil {
		return
	}
	c := cap(b)
	for i, size := range arenaClasses {
		if c == size {
			b = b[:c]
			a.pools[i].Put(&b)
			return
		}
	}
}
