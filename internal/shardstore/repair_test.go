package shardstore

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
)

// The tests below are about torn copies: what a replica holds after it failed
// mid-write and answered again (a healed partition). Such a copy is listed by
// Keys and answers Stat, so neither proves a replica; only a StatBlocks answer
// equal to the most complete one does. Everything is in-memory and asserted
// on counts and bytes, never on clocks.

const tornBlocks = 4

func tornBlock(id uint64, i int) []byte { return []byte(fmt.Sprintf("ckpt-%d-block-%d", id, i)) }

func tornMeta() iostore.Object {
	return iostore.Object{OrigSize: int64(tornBlocks * len(tornBlock(1, 0))), Meta: map[string]string{"step": "1"}}
}

// tornTier streams ids 1–8 as 4-block objects through a writer client over
// 3 backends, R=2. Each key's top-ranked replica fails after block 0 — the
// writer drops it and finishes on the survivor — and then answers again,
// holding block 0 alone (a short tail) or, with gap set, blocks 0, 2 and 3
// (full length, one block missing: windowed writes land out of order). It
// returns the backends for a fresh client, the raw stores, and which backend
// holds each key's torn copy.
func tornTier(t *testing.T, gap bool) ([]*flakyBackend, []*iostore.Store, map[uint64]int) {
	t.Helper()
	ctx := context.Background()
	writer, flakies, inners := rig(t, 3, Config{Replicas: 2})
	torn := make(map[uint64]int)
	for id := uint64(1); id <= 8; id++ {
		// Every key starts on an all-healthy tier: the blame a previous key's
		// failure left behind would place this one around its top home.
		for _, name := range writer.Members() {
			for !writer.Healthy(name) {
				writer.probe(ctx)
			}
		}
		top := writer.ranking(key(id))[0]
		for i, name := range writer.Members() {
			if name == top.name {
				torn[id] = i
			}
		}
		for i := 0; i < tornBlocks; i++ {
			flakies[torn[id]].down.Store(i > 0)
			if err := writer.PutBlock(ctx, key(id), tornMeta(), i, tornBlock(id, i)); err != nil {
				t.Fatal(err)
			}
		}
		flakies[torn[id]].down.Store(false)
		if gap {
			for _, i := range []int{2, 3} {
				if err := inners[torn[id]].PutBlock(ctx, key(id), tornMeta(), i, tornBlock(id, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := writer.replicasOf(key(id)); len(got) != 1 || got[0] == top {
			t.Fatalf("writer's set for %d after the failure = %v, want the survivor alone", id, got)
		}
	}
	writer.Close()
	return flakies, inners, torn
}

// wholeCopies counts the stores holding every block of id byte-identical, and
// fails the test for a store that holds the key in any other shape.
func wholeCopies(t *testing.T, inners []*iostore.Store, id uint64) int {
	t.Helper()
	whole := 0
	for b, inner := range inners {
		if _, ok, _ := inner.Stat(context.Background(), key(id)); !ok {
			continue
		}
		whole++
		for i := 0; i < tornBlocks; i++ {
			blk, err := inner.GetBlock(context.Background(), key(id), i)
			if err != nil || !bytes.Equal(blk, tornBlock(id, i)) {
				t.Errorf("backend %d holds a torn copy of %d: block %d = %q, %v", b, id, i, blk, err)
				whole--
				break
			}
		}
	}
	return whole
}

// TestFreshClientRestoresPastTornCopy: a restarted gateway restores a key it
// never wrote. The key's top-ranked home holds a torn copy; a restore sized
// from it is short (or hits the gap) while a whole replica sits one backend
// over. StatBlocks must answer from the most complete copy and deal the block
// reads that follow to whole holders only.
func TestFreshClientRestoresPastTornCopy(t *testing.T) {
	for _, gap := range []bool{false, true} {
		t.Run(fmt.Sprintf("gap=%v", gap), func(t *testing.T) {
			flakies, _, torn := tornTier(t, gap)
			fresh := clientOver(t, flakies, Config{Replicas: 2})
			ctx := context.Background()
			for id := uint64(1); id <= 8; id++ {
				meta, n, ok, err := fresh.StatBlocks(ctx, key(id))
				if err != nil || !ok || n != tornBlocks || meta.OrigSize != tornMeta().OrigSize {
					t.Fatalf("StatBlocks(%d) = %d blocks, size %d, %v, %v; want %d whole", id, n, meta.OrigSize, ok, err, tornBlocks)
				}
				before := flakies[torn[id]].calls.Load()
				for i := 0; i < n; i++ {
					blk, err := fresh.GetBlock(ctx, key(id), i)
					if err != nil || !bytes.Equal(blk, tornBlock(id, i)) {
						t.Fatalf("GetBlock(%d, %d) = %q, %v", id, i, blk, err)
					}
				}
				if dealt := flakies[torn[id]].calls.Load() - before; dealt != 0 {
					t.Errorf("the torn holder of %d was dealt %d block reads", id, dealt)
				}
			}
		})
	}
}

// TestTrackedRestoreIsOneStatCall: on a key this client tracks the describe
// step of a restore stays one backend call, and the blocks one call each.
func TestTrackedRestoreIsOneStatCall(t *testing.T) {
	s, flakies, _ := rig(t, 3, Config{Replicas: 2})
	ctx := context.Background()
	for i := 0; i < tornBlocks; i++ {
		if err := s.PutBlock(ctx, key(1), tornMeta(), i, tornBlock(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range flakies {
		f.calls.Store(0)
		f.stats.Store(0)
	}
	if _, n, ok, err := s.StatBlocks(ctx, key(1)); err != nil || !ok || n != tornBlocks {
		t.Fatalf("StatBlocks = %d, %v, %v", n, ok, err)
	}
	for i := 0; i < tornBlocks; i++ {
		if _, err := s.GetBlock(ctx, key(1), i); err != nil {
			t.Fatal(err)
		}
	}
	var calls, stats int64
	for _, f := range flakies {
		calls += f.calls.Load()
		stats += f.stats.Load()
	}
	if stats != 1 || calls != 1+tornBlocks {
		t.Errorf("a tracked restore cost %d StatBlocks and %d calls in all, want 1 and %d", stats, calls, 1+tornBlocks)
	}
}

// TestFreshClientRepairsTornCopy: RepairInventory on a fresh client must not
// take the listed torn copy for a replica. The torn copy sits on a desired
// home, so it is completed in place; afterwards every key is on R whole
// holders and no store holds anything less.
func TestFreshClientRepairsTornCopy(t *testing.T) {
	for _, gap := range []bool{false, true} {
		t.Run(fmt.Sprintf("gap=%v", gap), func(t *testing.T) {
			flakies, inners, _ := tornTier(t, gap)
			fresh := clientOver(t, flakies, Config{Replicas: 2})
			ctx := context.Background()
			if n := fresh.ReplicaCount(ctx, key(1)); n != 1 {
				t.Fatalf("whole replicas of 1 before repair = %d, want 1 (the torn copy is not one)", n)
			}
			moved, err := fresh.RepairInventory(ctx)
			if err != nil || moved != 8 {
				t.Fatalf("RepairInventory = %d copies, %v; want 8", moved, err)
			}
			for id := uint64(1); id <= 8; id++ {
				if n := wholeCopies(t, inners, id); n != 2 {
					t.Errorf("object %d on %d whole copies after repair, want 2", id, n)
				}
				if n := fresh.ReplicaCount(ctx, key(id)); n != 2 {
					t.Errorf("ReplicaCount(%d) = %d after repair, want 2", id, n)
				}
			}
			// What the pass verified is installed: the next one lists, finds
			// every sticky set as listed, and asks nothing more.
			for _, f := range flakies {
				f.stats.Store(0)
			}
			if moved, err := fresh.RepairInventory(ctx); err != nil || moved != 0 {
				t.Errorf("second pass = %d copies, %v; want idle", moved, err)
			}
			for i, f := range flakies {
				if n := f.stats.Load(); n != 0 {
					t.Errorf("backend %d was re-statted %d times by a pass over verified keys", i, n)
				}
			}
		})
	}
}

// TestStrayTornCopyIsDropped: a torn copy on a backend that is not one of the
// key's desired homes is garbage once R whole copies are confirmed.
func TestStrayTornCopyIsDropped(t *testing.T) {
	s, flakies, inners := rig(t, 3, Config{Replicas: 2})
	ctx := context.Background()
	for i := 0; i < tornBlocks; i++ {
		if err := s.PutBlock(ctx, key(1), tornMeta(), i, tornBlock(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	stray := -1
	for i, inner := range inners {
		if _, ok, _ := inner.Stat(ctx, key(1)); !ok {
			stray = i
		}
	}
	if err := inners[stray].PutBlock(ctx, key(1), tornMeta(), 0, tornBlock(1, 0)); err != nil {
		t.Fatal(err)
	}
	fresh := clientOver(t, flakies, Config{Replicas: 2})
	if moved, err := fresh.RepairInventory(ctx); err != nil || moved != 0 {
		t.Fatalf("RepairInventory = %d copies, %v; want none", moved, err)
	}
	if _, ok, _ := inners[stray].Stat(ctx, key(1)); ok {
		t.Error("the stray torn copy survived a pass that confirmed R whole copies")
	}
	if n := wholeCopies(t, inners, 1); n != 2 {
		t.Errorf("object on %d whole copies after the drop, want 2", n)
	}
}

// moverRig is one 4-block object on three hand-filled stores — backend 0 torn
// (blocks 0, 2, 3), backend 1 whole, backend 2 as the test leaves it — under
// a client that plans nothing on its own, so tests hand moveKey its plan.
func moverRig(t *testing.T) (*Store, []*backend, []*iostore.Store, keyPlan) {
	t.Helper()
	s, _, inners := rig(t, 3, Config{Replicas: 2})
	ctx := context.Background()
	for i := 0; i < tornBlocks; i++ {
		if err := inners[1].PutBlock(ctx, key(1), tornMeta(), i, tornBlock(1, i)); err != nil {
			t.Fatal(err)
		}
		if i != 1 {
			if err := inners[0].PutBlock(ctx, key(1), tornMeta(), i, tornBlock(1, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	meta, n, _, _ := inners[1].StatBlocks(ctx, key(1))
	return s, s.snapshot(), inners, keyPlan{key: key(1), meta: meta, blocks: n}
}

// TestMoverRefusesTornSource: offered a torn source first the mover carries on
// from the whole one; offered only torn sources it fails the move and leaves
// the target as it found it — empty stays empty, a torn copy stays.
func TestMoverRefusesTornSource(t *testing.T) {
	ctx := context.Background()
	s, b, inners, kp := moverRig(t)
	kp.sources, kp.adds = []*backend{b[0], b[1]}, []*backend{b[2]}
	if moved, _, err := s.moveKey(ctx, kp); err != nil || moved != 1 {
		t.Fatalf("move with a torn source first = %d, %v; want 1 copy from the whole one", moved, err)
	}
	if n := wholeCopies(t, inners[1:], 1); n != 2 {
		t.Errorf("%d whole copies after the move, want source and target", n)
	}
	if got := s.replicasOf(key(1)); len(got) != 2 || slices.Contains(got, b[0]) {
		t.Errorf("installed set %v includes the source that turned out torn", got)
	}

	s, b, inners, kp = moverRig(t)
	kp.sources, kp.adds = []*backend{b[0]}, []*backend{b[2]}
	if moved, _, err := s.moveKey(ctx, kp); err == nil || moved != 0 {
		t.Fatalf("move from a torn source alone = %d, %v; want a failed move", moved, err)
	}
	if _, ok, _ := inners[2].Stat(ctx, key(1)); ok {
		t.Error("a failed move left the partial copy it created on the target")
	}
	if s.replicasOf(key(1)) != nil {
		t.Error("a failed move installed an assignment")
	}

	s, b, inners, kp = moverRig(t)
	if err := inners[2].PutBlock(ctx, key(1), tornMeta(), 3, tornBlock(1, 3)); err != nil {
		t.Fatal(err)
	}
	kp.sources, kp.adds, kp.torn = []*backend{b[0]}, []*backend{b[2]}, []*backend{b[2]}
	if _, _, err := s.moveKey(ctx, kp); err == nil {
		t.Fatal("move from a torn source alone succeeded")
	}
	if blk, err := inners[2].GetBlock(ctx, key(1), 3); err != nil || !bytes.Equal(blk, tornBlock(1, 3)) {
		t.Errorf("a failed move deleted the torn copy the target already held: block 3 = %q, %v", blk, err)
	}
}

// raceBackend runs hook once, inside its first GetBlock: the deterministic
// stand-in for a writer whose block lands while the mover is copying.
type raceBackend struct {
	iostore.Backend
	once sync.Once
	hook func()
}

func (r *raceBackend) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	r.once.Do(r.hook)
	return r.Backend.GetBlock(ctx, key, index)
}

// TestVoidedMoveKeepsPreexistingCopy: a writer races the copy, so the move is
// voided. The copy it was completing existed before the move — it may be
// another process's in-flight stream — and must still be there afterwards,
// while a copy the move created is deleted.
func TestVoidedMoveKeepsPreexistingCopy(t *testing.T) {
	ctx := context.Background()
	s, _, _ := rig(t, 4, Config{Replicas: 2})
	for i := 0; i < tornBlocks; i++ {
		if err := s.PutBlock(ctx, key(1), tornMeta(), i, tornBlock(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The copy source is the first holder, wrapped so that a block of the
	// same object is rewritten through the client mid-copy.
	holders := s.replicasOf(key(1))
	src := holders[0]
	src.store = &raceBackend{Backend: src.store, hook: func() {
		if err := s.PutBlock(ctx, key(1), tornMeta(), 0, tornBlock(1, 0)); err != nil {
			t.Error(err)
		}
	}}
	var spare []*backend
	for _, b := range s.snapshot() {
		if !slices.Contains(holders, b) {
			spare = append(spare, b)
		}
	}
	existing, created := spare[0], spare[1]
	if err := existing.store.PutBlock(ctx, key(1), tornMeta(), 0, tornBlock(1, 0)); err != nil {
		t.Fatal(err)
	}
	meta, n, _, _ := holders[1].store.StatBlocks(ctx, key(1))
	kp := keyPlan{
		key: key(1), meta: meta, blocks: n,
		sources: []*backend{src},
		adds:    []*backend{existing, created},
		torn:    []*backend{existing},
	}
	if moved, _, err := s.moveKey(ctx, kp); err == nil || moved != 0 || !strings.Contains(err.Error(), "raced") {
		t.Fatalf("move raced by a writer = %d, %v; want it voided", moved, err)
	}
	if _, ok, _ := existing.store.Stat(ctx, key(1)); !ok {
		t.Error("the voided move deleted a copy that existed before it")
	}
	if _, ok, _ := created.store.Stat(ctx, key(1)); ok {
		t.Error("the voided move left the copy it created")
	}
	if got := s.replicasOf(key(1)); !sameSet(got, holders) {
		t.Errorf("the voided move changed the assignment to %v", got)
	}
}

// TestProbeTickHealsDroppedReplica: a replica dropped mid-write leaves a key
// this client tracks short of R; the probe tick repairs exactly that key, from
// StatBlocks answers, without listing anybody's inventory.
func TestProbeTickHealsDroppedReplica(t *testing.T) {
	s, flakies, inners := rig(t, 3, Config{Replicas: 2})
	ctx := context.Background()
	if err := s.Put(ctx, obj(9, "bystander")); err != nil {
		t.Fatal(err)
	}
	victim := s.ranking(key(1))[0]
	for i := 0; i < tornBlocks; i++ {
		for b, name := range s.Members() {
			flakies[b].down.Store(name == victim.name && i > 0)
		}
		if err := s.PutBlock(ctx, key(1), tornMeta(), i, tornBlock(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.ReplicaCount(ctx, key(1)); n != 1 {
		t.Fatalf("whole replicas after the mid-write death = %d, want 1", n)
	}
	s.probeTick(ctx)
	var live []*iostore.Store // the victim is still down, its torn copy out of reach
	for b, name := range s.Members() {
		if name != victim.name {
			live = append(live, inners[b])
		}
	}
	if n := wholeCopies(t, live, 1); n != 2 {
		t.Errorf("object on %d whole copies after the probe tick, want 2", n)
	}
	if got := s.replicasOf(key(1)); len(got) != 2 {
		t.Errorf("sticky set after the probe tick = %v, want 2 holders", got)
	}
	for i, f := range flakies {
		if n := f.lists.Load(); n != 0 {
			t.Errorf("backend %d was listed %d times by a probe tick", i, n)
		}
	}
	// Healed: the next tick finds no suspect key and asks nothing but the
	// victim's probe.
	for _, f := range flakies {
		f.stats.Store(0)
	}
	s.probeTick(ctx)
	for i, f := range flakies {
		if n := f.stats.Load(); n != 0 {
			t.Errorf("backend %d was statted %d times by a tick with nothing to heal", i, n)
		}
	}
}

// TestControllerIsOneIdleGoroutine: New starts exactly one goroutine, Close
// joins it, and with Probe < 0 and no membership kick it never calls a backend.
func TestControllerIsOneIdleGoroutine(t *testing.T) {
	started := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by ndpcr/internal/shardstore.New")
	}
	if n := started(); n != 0 {
		t.Fatalf("%d goroutines of earlier clients still running", n)
	}
	for _, probe := range []time.Duration{-1, time.Hour} {
		flakies := newFlakies(3)
		s := clientOver(t, flakies, Config{Replicas: 2, Probe: probe})
		if n := started(); n != 1 {
			t.Errorf("Probe %v: New started %d goroutines, want 1", probe, n)
		}
		s.Close()
		if n := started(); n != 0 {
			t.Errorf("Probe %v: %d goroutines outlived Close", probe, n)
		}
		for i, f := range flakies {
			if n := f.calls.Load(); n != 0 {
				t.Errorf("Probe %v: an idle controller handed backend %d %d calls", probe, i, n)
			}
		}
	}
}
