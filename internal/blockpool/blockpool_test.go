package blockpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
// class returns, counted as a hit.
func TestRecycledBufferComesBack(t *testing.T) {
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

// TestIdleBuffersSurviveCollections: idle buffers are the process's working
// set, not a cache: collections in between do not cost a Get its hit.
func TestIdleBuffersSurviveCollections(t *testing.T) {
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = Get(32 << 10)
	}
	for _, b := range bufs {
		Put(b)
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	hit0, miss0 := Stats()
	for i := range bufs {
		bufs[i] = Get(32 << 10)
	}
	if hit1, miss1 := Stats(); hit1-hit0 != 64 || miss1 != miss0 {
		t.Errorf("64 Gets after three collections: %d hits, %d misses, want 64 hits", hit1-hit0, miss1-miss0)
	}
	for _, b := range bufs {
		Put(b)
	}
}

// TestPutAllocatesNothing: a released buffer goes on its class's list as
// it is, with nothing allocated to hold it.
func TestPutAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Put(Get(16 << 10)) }); n != 0 {
		t.Errorf("a Get+Put cycle allocates %v times, want 0", n)
	}
}

// stepClock is a clock that moves only when told to.
type stepClock struct{ t time.Time }

func (c *stepClock) now() time.Time { return c.t }

func (c *stepClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// tick cycles a 1 KiB buffer through p until the clock has been read: the
// traffic that runs a trim that is due.
func tick(p *pool) {
	for i := 0; i < clockEvery; i++ {
		p.put(p.get(1 << 10))
	}
}

// TestTrimReleasesWhatWentUnneeded drives the trim by an injected clock: at
// each trim a class hands the collector the fewest buffers it held idle
// since the last, the ones released longest ago, and keeps the rest.
func TestTrimReleasesWhatWentUnneeded(t *testing.T) {
	clk := &stepClock{t: time.Unix(1000, 0)}
	p := newPool(clk.now)
	const size = 4 << 10
	idle := func() int {
		_, _, bytes := p.stats()
		return int(bytes / size)
	}
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = p.get(size)
	}
	for _, b := range bufs {
		p.put(b)
	}

	// The first period: the class was empty when it began, so its low-water
	// mark is 0 and the trim that ends it keeps all eight.
	clk.advance(trimPeriod)
	tick(p) // traffic in another class runs the trim
	if idle() != 8 {
		t.Fatalf("after the first period %d buffers idle, want 8", idle())
	}

	// The second period uses three of the eight, so five went unneeded.
	var used [3][]byte
	for i := range used {
		used[i] = p.get(size)
	}
	for _, b := range used {
		p.put(b)
	}
	clk.advance(trimPeriod - 1)
	tick(p)
	if idle() != 8 {
		t.Fatalf("a trim ran before its period ended: %d buffers idle, want 8", idle())
	}
	clk.advance(1)
	tick(p)
	if idle() != 3 {
		t.Fatalf("after a period that used 3 of 8 idle buffers, %d idle, want 3", idle())
	}
	for i, b := range p.classes[2].free {
		if &b[0] != &used[i][0] {
			t.Errorf("idle buffer %d is not one the period used: the trim released a buffer in use", i)
		}
	}

	// A class left idle for a whole period is released down to nothing.
	clk.advance(trimPeriod)
	tick(p)
	if idle() != 0 {
		t.Errorf("a class idle for a whole period kept %d buffers", idle())
	}
	if c := &p.classes[2]; c.hits != 3 || c.misses != 8 {
		t.Errorf("counted %d hits and %d misses, want 3 and 8", c.hits, c.misses)
	}
}

// TestBufferCycledEveryPeriodStays: a buffer a loop uses once per trim period
// is never released, however many periods and trims pass.
func TestBufferCycledEveryPeriodStays(t *testing.T) {
	clk := &stepClock{t: time.Unix(1000, 0)}
	p := newPool(clk.now)
	first := p.get(64 << 10)
	p.put(first)
	for period := 1; period <= 10; period++ {
		clk.advance(trimPeriod)
		b := p.get(64 << 10)
		if &b[0] != &first[0] {
			t.Fatalf("period %d: the buffer cycled every period was released", period)
		}
		p.put(b)
		tick(p)
		if due := time.Duration(p.nextTrim.Load()); due != time.Duration(period+1)*trimPeriod {
			t.Fatalf("period %d: next trim due at %v, want %v", period, due, time.Duration(period+1)*trimPeriod)
		}
	}
	if c := &p.classes[6]; c.hits != 10 || c.misses != 1 {
		t.Errorf("counted %d hits and %d misses, want 10 and 1", c.hits, c.misses)
	}
}

// TestConcurrentGetPut runs eight owners on the process's pool, and on one
// whose clock moves a second at every reading, so trims run among them.
func TestConcurrentGetPut(t *testing.T) {
	var seconds atomic.Int64
	trimming := newPool(func() time.Time { return time.Unix(seconds.Add(1), 0) })
	for _, p := range []*pool{std, trimming} {
		concurrentGetPut(t, p)
	}
	if trimming.nextTrim.Load() <= int64(trimPeriod) {
		t.Error("no trim ran on the trimming pool")
	}
}

func concurrentGetPut(t *testing.T, p *pool) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := p.get(1<<10 + g*1000 + i)
				for j := range b {
					b[j] = byte(g)
				}
				for _, v := range b {
					if v != byte(g) {
						t.Errorf("goroutine %d: buffer shared with another owner", g)
						return
					}
				}
				p.put(b)
			}
		}(g)
	}
	wg.Wait()
}
