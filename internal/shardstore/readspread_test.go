package shardstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// dealtBackend counts the reads a backend is handed and can hold its block
// reads at a gate, fail them, or both — the tests below assert on who was
// dealt what, never on how long anything took.
type dealtBackend struct {
	iostore.Backend
	blocks atomic.Int64 // GetBlock calls that arrived
	others atomic.Int64 // Stat, StatBlocks and Get calls that arrived
	down   atomic.Bool  // GetBlock fails like a dead connection
	gate   chan struct{}
	step   *lockstep
}

// lockstep is a barrier shared by several backends: their block reads
// complete `size` at a time, once that many are in flight. It is what
// "equally prompt" means without a clock — no holder gets ahead because the
// scheduler happened to park a reader inside the other one's call.
type lockstep struct {
	size    int
	mu      sync.Mutex
	arrived int
	gate    chan struct{}
}

func (l *lockstep) wait() {
	l.mu.Lock()
	gate := l.gate
	if l.arrived++; l.arrived == l.size {
		l.arrived, l.gate = 0, make(chan struct{})
		close(gate)
	}
	l.mu.Unlock()
	<-gate
}

func (d *dealtBackend) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	d.blocks.Add(1)
	if d.step != nil {
		d.step.wait()
	}
	if d.gate != nil {
		select {
		case <-d.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if d.down.Load() {
		return nil, errDown
	}
	return d.Backend.GetBlock(ctx, key, index)
}

func (d *dealtBackend) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	d.others.Add(1)
	return d.Backend.Get(ctx, key)
}

func (d *dealtBackend) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	d.others.Add(1)
	return d.Backend.Stat(ctx, key)
}

func (d *dealtBackend) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	d.others.Add(1)
	return d.Backend.StatBlocks(ctx, key)
}

const spreadBlocks = 128

func spreadBlock(i int) []byte { return []byte(fmt.Sprintf("block-%04d", i)) }

// dealtMembers builds n counting backends over fresh in-process stores.
func dealtMembers(n int) ([]Member, map[string]*dealtBackend) {
	members := make([]Member, n)
	backs := make(map[string]*dealtBackend, n)
	for i := range members {
		name := fmt.Sprintf("iod-%d", i)
		backs[name] = &dealtBackend{Backend: iostore.New(nvm.Pacer{})}
		members[i] = Member{Name: name, Store: backs[name]}
	}
	return members, backs
}

// spreadRig is a 3-backend R=2 tier holding one spreadBlocks-block object
// under key(1), instrumented, with no repair loop and a CallTimeout no test
// reaches. holders are the object's two replicas in assignment order, spare
// is the backend that holds nothing.
type spreadRig struct {
	s       *Store
	reg     *metrics.Registry
	members []Member
	holders []*dealtBackend
	spare   *dealtBackend
}

func newSpreadRig(t *testing.T) *spreadRig {
	t.Helper()
	members, backs := dealtMembers(3)
	r := &spreadRig{members: members, reg: metrics.NewRegistry()}
	r.s = spreadClient(t, members, r.reg)
	meta := iostore.Object{OrigSize: int64(spreadBlocks * len(spreadBlock(0)))}
	for i := 0; i < spreadBlocks; i++ {
		if err := r.s.PutBlock(context.Background(), key(1), meta, i, spreadBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range r.s.replicasOf(key(1)) {
		r.holders = append(r.holders, backs[b.name])
		delete(backs, b.name)
	}
	for _, b := range backs {
		r.spare = b
	}
	if len(r.holders) != 2 || r.spare == nil {
		t.Fatalf("object on %d holders, want 2 of 3", len(r.holders))
	}
	return r
}

// spreadClient opens an instrumented R=2 shard client over members. A second
// client over the same members is a fresh process: it tracks no key.
func spreadClient(t *testing.T, members []Member, reg *metrics.Registry) *Store {
	t.Helper()
	s, err := New(members, Config{Replicas: 2, Probe: -1, CallTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.Instrument(reg)
	return s
}

// readAll restores key(1) through s with `readers` concurrent block readers
// sharing one next-block counter (node.fetchObject's shape) and checks every
// block byte for byte.
func readAll(t *testing.T, s *Store, readers int) {
	t.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= spreadBlocks {
					return
				}
				blk, err := s.GetBlock(context.Background(), key(1), i)
				if err != nil || !bytes.Equal(blk, spreadBlock(i)) {
					t.Errorf("GetBlock(%d) = %q, %v", i, blk, err)
				}
			}
		}()
	}
	wg.Wait()
}

// expectReads checks how many reads failed over and how many replica calls
// failed — and, when none did, that nobody lost health.
func expectReads(t *testing.T, s *Store, reg *metrics.Registry, failovers, replicaErrs uint64) {
	t.Helper()
	f := reg.Counter("ndpcr_shardstore_read_failovers_total", "").Value()
	e := reg.Counter("ndpcr_shardstore_replica_errors_total", "").Value()
	if f != failovers || e != replicaErrs {
		t.Errorf("read_failovers = %d, replica_errors = %d; want %d, %d", f, e, failovers, replicaErrs)
	}
	for _, name := range s.Members() {
		if replicaErrs == 0 && !s.Healthy(name) {
			t.Errorf("backend %s lost health without a failed call", name)
		}
	}
}

// expectClean: no read failed over, no replica call failed, nobody lost
// health.
func (r *spreadRig) expectClean(t *testing.T) {
	t.Helper()
	expectReads(t, r.s, r.reg, 0, 0)
}

// TestRestoreStripesAcrossHolders: two equally prompt holders share a
// block-streamed restore about evenly, and the backend that holds nothing
// is never asked.
func TestRestoreStripesAcrossHolders(t *testing.T) {
	const readers = 16 // divides spreadBlocks: every barrier round fills
	r := newSpreadRig(t)
	step := &lockstep{size: readers, gate: make(chan struct{})}
	r.holders[0].step, r.holders[1].step = step, step
	readAll(t, r.s, readers)
	r.holders[0].step, r.holders[1].step = nil, nil
	a, b := r.holders[0].blocks.Load(), r.holders[1].blocks.Load()
	if a+b != spreadBlocks || a < 48 || a > 80 {
		t.Errorf("holders served %d and %d of %d blocks, want 64 ± 16 each", a, b, spreadBlocks)
	}
	if n := r.spare.blocks.Load(); n != 0 {
		t.Errorf("the backend outside the read set served %d blocks", n)
	}
	r.expectClean(t)

	// A cold sequential reader is dealt round-robin by block index.
	r.holders[0].blocks.Store(0)
	r.holders[1].blocks.Store(0)
	readAll(t, r.s, 1)
	if a, b := r.holders[0].blocks.Load(), r.holders[1].blocks.Load(); a != 64 || b != 64 {
		t.Errorf("a sequential reader was dealt %d and %d blocks, want 64 and 64", a, b)
	}
}

// TestGatedHolderDoesNotStallReads: one holder's calls do not complete until
// released. Its in-flight count passes the prompt holder's after a few
// blocks, every block dealt after that goes to the prompt one, and the
// restore finishes when the few gated blocks are released.
func TestGatedHolderDoesNotStallReads(t *testing.T) {
	const readers = 16
	r := newSpreadRig(t)
	gated, prompt := r.holders[0], r.holders[1]
	gated.gate = make(chan struct{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		readAll(t, r.s, readers)
	}()
	// Every block has been dealt once the two holders' arrivals add up; the
	// prompt holder's have all been served by then or will be without help.
	watchdog := time.Now().Add(30 * time.Second)
	for gated.blocks.Load()+prompt.blocks.Load() < spreadBlocks {
		if time.Now().After(watchdog) {
			t.Fatalf("stalled with %d blocks parked on the gated holder and %d dealt to the prompt one",
				gated.blocks.Load(), prompt.blocks.Load())
		}
		runtime.Gosched()
	}
	parked := gated.blocks.Load()
	if parked == 0 || parked >= readers {
		t.Errorf("%d blocks parked on the gated holder, want some and fewer than the %d readers", parked, readers)
	}
	select {
	case <-done:
		t.Fatal("restore finished with blocks still parked on the gated holder")
	default:
	}
	close(gated.gate)
	<-done
	if g, p := gated.blocks.Load(), prompt.blocks.Load(); g != parked || p != spreadBlocks-parked {
		t.Errorf("gated holder served %d, prompt %d; want %d and %d", g, p, parked, spreadBlocks-parked)
	}
	r.expectClean(t)
}

// TestUnhealthyHolderIsDealtNothing: while a healthy holder exists an
// unhealthy one is not in the read set — and a read served by the holder it
// was dealt to is not a failover, whichever holder that is.
func TestUnhealthyHolderIsDealtNothing(t *testing.T) {
	r := newSpreadRig(t)
	sick := r.s.replicasOf(key(1))[0]
	r.s.MarkUnhealthy(sick.name)
	readAll(t, r.s, 4)
	if a, b := r.holders[0].blocks.Load(), r.holders[1].blocks.Load(); a != 0 || b != spreadBlocks {
		t.Errorf("unhealthy holder served %d blocks, healthy one %d; want 0 and %d", a, b, spreadBlocks)
	}
	if f := r.reg.Counter("ndpcr_shardstore_read_failovers_total", "").Value(); f != 0 {
		t.Errorf("read_failovers = %d for reads served by the holder they were dealt to", f)
	}
}

// TestDrainingHolderStillServes: membership state does not shrink the read
// set — a draining holder has the object until the controller moves it.
func TestDrainingHolderStillServes(t *testing.T) {
	r := newSpreadRig(t)
	r.s.replicasOf(key(1))[0].state.Store(int32(StateDraining))
	readAll(t, r.s, 1)
	if a, b := r.holders[0].blocks.Load(), r.holders[1].blocks.Load(); a != 64 || b != 64 {
		t.Errorf("draining holder served %d blocks, active one %d; want 64 and 64", a, b)
	}
	r.expectClean(t)
}

// TestIndexZeroReadsGoToFirstHolder: Stat, StatBlocks, Get's StatBlocks and
// block 0 — all a single-block object has — are dealt as index 0, to the read
// set's first member when nothing is in flight. Get's blocks are a restore's,
// dealt across both holders.
func TestIndexZeroReadsGoToFirstHolder(t *testing.T) {
	r := newSpreadRig(t)
	ctx := context.Background()
	if _, ok, err := r.s.Stat(ctx, key(1)); !ok || err != nil {
		t.Fatalf("Stat = %v, %v", ok, err)
	}
	if _, n, ok, err := r.s.StatBlocks(ctx, key(1)); !ok || err != nil || n != spreadBlocks {
		t.Fatalf("StatBlocks = %d, %v, %v", n, ok, err)
	}
	if _, err := r.s.GetBlock(ctx, key(1), 0); err != nil {
		t.Fatal(err)
	}
	first, second := r.holders[0], r.holders[1]
	if first.others.Load() != 2 || first.blocks.Load() != 1 || second.others.Load()+second.blocks.Load() != 0 {
		t.Errorf("first holder saw %d+%d reads, second %d+%d; want 2+1 and none",
			first.others.Load(), first.blocks.Load(), second.others.Load(), second.blocks.Load())
	}
	if o, err := r.s.Get(ctx, key(1)); err != nil || len(o.Blocks) != spreadBlocks {
		t.Fatalf("Get = %d blocks, %v", len(o.Blocks), err)
	}
	half := int64(spreadBlocks / 2)
	if first.others.Load() != 3 || first.blocks.Load() != 1+half || second.others.Load() != 0 || second.blocks.Load() != half {
		t.Errorf("after Get: first holder saw %d+%d reads, second %d+%d; want 3+%d and 0+%d",
			first.others.Load(), first.blocks.Load(), second.others.Load(), second.blocks.Load(), 1+half, half)
	}
}

// TestUntrackedKeyStripesOverRanking: a fresh client (the restart case: an
// empty assignment map) deals an object's blocks over the top R of its HRW
// ranking, which is where an undisturbed writer put them.
func TestUntrackedKeyStripesOverRanking(t *testing.T) {
	r := newSpreadRig(t)
	fresh := spreadClient(t, r.members, r.reg)
	if fresh.replicasOf(key(1)) != nil {
		t.Fatal("fresh client tracks the key")
	}
	readAll(t, fresh, 1)
	if a, b, c := r.holders[0].blocks.Load(), r.holders[1].blocks.Load(), r.spare.blocks.Load(); a != 64 || b != 64 || c != 0 {
		t.Errorf("fresh client was served %d and %d blocks by the holders, %d by the spare; want 64, 64, 0", a, b, c)
	}
	r.expectClean(t)
}

// TestUntrackedKeyWrongGuessCostsAbsentAnswers: the writer placed around a
// backend that was down, so a fresh client's top-R guess includes a backend
// that never got the object. Every block still arrives, the blocks dealt to
// the wrong guess cost one honest "absent" and a failover each, and nobody
// is blamed for telling the truth.
func TestUntrackedKeyWrongGuessCostsAbsentAnswers(t *testing.T) {
	members, backs := dealtMembers(3)
	writer := spreadClient(t, members, metrics.NewRegistry())
	primary := writer.ranking(key(1))[0]
	writer.MarkUnhealthy(primary.name)
	for i := 0; i < spreadBlocks; i++ {
		if err := writer.PutBlock(context.Background(), key(1), iostore.Object{}, i, spreadBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	fresh := spreadClient(t, members, reg)
	readAll(t, fresh, 1)
	if got := backs[primary.name].blocks.Load(); got != 64 {
		t.Errorf("the wrong guess was dealt %d blocks, want every other one (64)", got)
	}
	expectReads(t, fresh, reg, 64, 0)
}

// TestHolderFailingMidRestoreCostsFailovers: a holder that dies mid-restore
// costs one failover per block dealt to it before the blame lands — for a
// sequential reader, one — and is dealt nothing afterwards.
func TestHolderFailingMidRestoreCostsFailovers(t *testing.T) {
	r := newSpreadRig(t)
	victim, survivor := r.holders[0], r.holders[1]
	for i := 0; i < spreadBlocks; i++ {
		if i == 10 {
			victim.down.Store(true)
		}
		blk, err := r.s.GetBlock(context.Background(), key(1), i)
		if err != nil || !bytes.Equal(blk, spreadBlock(i)) {
			t.Fatalf("GetBlock(%d) = %q, %v", i, blk, err)
		}
	}
	// Blocks 0–9 were shared; block 10 (even: the victim's turn) failed over;
	// everything after went to the survivor alone.
	if v, s := victim.blocks.Load(), survivor.blocks.Load(); v != 6 || s != spreadBlocks-5 {
		t.Errorf("victim was dealt %d blocks, survivor served %d; want 6 and %d", v, s, spreadBlocks-5)
	}
	expectReads(t, r.s, r.reg, 1, 1)
}

// TestTornHolderCostsFailoversNotTheRestore: one of the two holders died
// mid-window and came back with a gap (block 3) and a short tail (no last
// block). A sequential reader is dealt both of those blocks on the torn
// holder (the second: odd indexes). Its answers are "absent", not an empty
// block and not a fault: every block restores byte-identical, the two cost a
// failover each, nothing counts as a replica error and nobody loses health.
func TestTornHolderCostsFailoversNotTheRestore(t *testing.T) {
	r := newSpreadRig(t)
	ctx := context.Background()
	torn := r.holders[1].Backend
	if err := torn.Delete(ctx, key(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spreadBlocks-1; i++ {
		if i == 3 {
			continue
		}
		if err := torn.PutBlock(ctx, key(1), iostore.Object{}, i, spreadBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	readAll(t, r.s, 1)
	// A block no holder has is not found — unanimously, so without blame.
	if _, err := r.s.GetBlock(ctx, key(1), spreadBlocks); !errors.Is(err, iostore.ErrNotFound) {
		t.Errorf("GetBlock past the end = %v, want ErrNotFound", err)
	}
	expectReads(t, r.s, r.reg, 2, 0)
}

// TestGetBlockAllocBudget pins the per-block cost of the read path on a
// tracked key: the chooser allocates nothing and the failover tail is not
// ranked unless the holders fail, which leaves the per-call context and its
// timer (4 objects measured). The eager candidate list this replaced cost 14;
// ranking the tail on every block again would add 5.
func TestGetBlockAllocBudget(t *testing.T) {
	r := newSpreadRig(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.s.GetBlock(ctx, key(1), 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("GetBlock allocates %v objects per call, want at most 8", allocs)
	}
}
