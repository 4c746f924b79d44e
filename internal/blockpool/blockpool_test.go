package blockpool

import (
	"sync"
	"testing"
)

func TestClassesAndReuse(t *testing.T) {
	for _, tc := range []struct{ n, wantCap int }{
		{0, 1 << 10},
		{1000, 1 << 10},
		{1 << 10, 1 << 10},     // exactly a class
		{1<<10 + 1, 2 << 10},   // one past it: the next power of two
		{492_830, 512 << 10},   // a gzip(1) block of bulk_gzip: not 1 MiB
		{1 << 20, 1 << 20},     // the drain block
		{4 << 20, 4 << 20},     // the largest class
		{4<<20 + 1, 4<<20 + 1}, // oversize: exactly what was asked for
		{32 << 20, 32 << 20},   // a whole NVM region is never pooled
	} {
		b := Get(tc.n)
		if len(b) != tc.n || cap(b) != tc.wantCap {
			t.Errorf("Get(%d): len %d cap %d, want %d/%d", tc.n, len(b), cap(b), tc.n, tc.wantCap)
		}
		Put(b)
	}
	if b := Get(0); b == nil {
		t.Error("Get(0) = nil: an empty block must stay distinguishable from a gap")
	}
}

// TestPutDropsOddCapacities: what Put can check, it does — a slice whose
// capacity is no class (a foreign allocation, an oversize Get, a three-index
// sub-slice of odd length) never enters a pool. What it cannot check is
// ownership; see the package comment.
func TestPutDropsOddCapacities(t *testing.T) {
	region := make([]byte, 3<<10) // somebody else's memory, all zero
	for _, b := range [][]byte{
		nil,
		make([]byte, 777),
		Get(8 << 20),
		region[1<<10 : 2<<10 : 3<<10-1], // capacity 2 KiB - 1
		region[:1000:1000],
	} {
		Put(b)
	}
	// Had any been pooled, one of these Gets would be handed it to scribble on.
	for _, n := range []int{777, 1000, 1 << 10, 2 << 10, 4 << 10} {
		got := Get(n)
		if c := cap(got); c&(c-1) != 0 {
			t.Errorf("Get(%d) returned capacity %d: a foreign slice entered the pool", n, c)
		}
		for i := range got {
			got[i] = 0xEE
		}
	}
	for i, v := range region {
		if v != 0 {
			t.Fatalf("region[%d] = %#x: a sub-slice of foreign memory entered the pool", i, v)
		}
	}
}

// TestRecycledBufferComesBack: a released buffer is what the next Get of its
// class returns (on this P, with no collection in between), counted as a hit.
func TestRecycledBufferComesBack(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of Puts at random under the race detector")
	}
	b := Get(100 << 10)
	Put(b)
	hit0, _ := Stats()
	b2 := Get(70 << 10)
	if hit1, _ := Stats(); &b2[0] != &b[0] || hit1 != hit0+1 {
		t.Errorf("released 128 KiB buffer not reused (hits %d → %d)", hit0, hit1)
	}
	_, miss0 := Stats()
	Get(5 << 20)
	if _, miss1 := Stats(); miss1 != miss0+1 {
		t.Errorf("oversize Get counted %d misses, want 1", miss1-miss0)
	}
}

// TestReleasedBufferIsPoisonedUnderRace pins the sanitizer: with the race
// detector on, Put overwrites what it pools, so a reader that kept the slice
// sees 0xDB; without it Put touches nothing.
func TestReleasedBufferIsPoisonedUnderRace(t *testing.T) {
	b := Get(1 << 10)
	for i := range b {
		b[i] = 7
	}
	Put(b)
	want := byte(7)
	if raceEnabled {
		want = 0xDB
	}
	if b[0] != want || b[len(b)-1] != want {
		t.Errorf("after Put the buffer reads %#x…%#x, want %#x (race detector: %v)", b[0], b[len(b)-1], want, raceEnabled)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := Get(1<<10 + g*1000 + i)
				for j := range b {
					b[j] = byte(g)
				}
				for _, v := range b {
					if v != byte(g) {
						t.Errorf("goroutine %d: buffer shared with another owner", g)
						return
					}
				}
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}
