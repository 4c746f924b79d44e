package shardstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/faultinject"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// activations delivers the name of every backend s activates, after
// whatever OnEvent hook s already has. Install it before the AddBackend
// whose activation it waits on.
func activations(s *Store) <-chan string {
	ch := make(chan string, 8) // more than any test activates
	next := s.cfg.OnEvent
	s.cfg.OnEvent = func(ev Event) {
		if next != nil {
			next(ev)
		}
		if ev.Kind == EventActivated {
			select {
			case ch <- ev.Backend:
			default: // never block the watcher
			}
		}
	}
	return ch
}

// waitState waits for name's activation on activated, then checks that
// name is in state want.
func waitState(t *testing.T, s *Store, activated <-chan string, name string, want MemberState) {
	t.Helper()
	timeout := time.After(5 * time.Second)
wait:
	for {
		select {
		case got := <-activated:
			if got == name {
				break wait
			}
		case <-timeout:
			break wait
		}
	}
	if st, ok := s.MemberState(name); !ok || st != want {
		t.Fatalf("backend %s never reached %s (state %s, present %v)", name, want, st, ok)
	}
}

func TestAddBackendBackfillsAndActivates(t *testing.T) {
	s, _, inners := rig(t, 3, Config{Replicas: 2})
	var events []Event
	var evMu sync.Mutex
	s.cfg.OnEvent = func(ev Event) {
		evMu.Lock()
		events = append(events, ev)
		evMu.Unlock()
	}
	activated := activations(s)
	for id := uint64(1); id <= 24; id++ {
		if err := s.Put(context.Background(), obj(id, "spread-me")); err != nil {
			t.Fatal(err)
		}
	}
	joiner := iostore.New(nvm.Pacer{})
	if err := s.AddBackend(Member{Name: "iod-new", Store: joiner}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddBackend(Member{Name: "iod-new", Store: joiner}); err == nil {
		t.Error("duplicate AddBackend accepted")
	}
	waitState(t, s, activated, "iod-new", StateActive)

	// The joiner must have been backfilled with exactly the keys it now
	// wins under HRW: over 24 keys and 4 backends some reshuffle onto it.
	keys, err := joiner.Keys(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("activated joiner holds nothing: backfill did not run")
	}
	for _, k := range keys {
		inDesired := false
		for _, b := range s.ranking(k)[:2] {
			if b.name == "iod-new" {
				inDesired = true
			}
		}
		if !inDesired {
			t.Errorf("joiner holds %s which it does not win under HRW", k)
		}
	}
	// Every object still has R copies, counting all four backends.
	for id := uint64(1); id <= 24; id++ {
		if n := s.ReplicaCount(context.Background(), key(id)); n < 2 {
			t.Errorf("object %d has %d replicas after join, want >= 2", id, n)
		}
	}
	_ = inners
	evMu.Lock()
	defer evMu.Unlock()
	kinds := map[EventKind]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, want := range []EventKind{EventJoined, EventRebalanced, EventActivated} {
		if !kinds[want] {
			t.Errorf("no %s event emitted (got %+v)", want, events)
		}
	}
}

func TestDecommissionDrainsAndRemoves(t *testing.T) {
	s, _, inners := rig(t, 4, Config{Replicas: 2})
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	for id := uint64(1); id <= 30; id++ {
		if err := s.Put(context.Background(), obj(id, "survive-the-drain")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Decommission("iod-3"); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.MemberState("iod-3"); st != StateDraining && st != StateDrained {
		// It may already be gone if the drain raced ahead; present-but-not
		// -draining is the bug.
		if _, ok := s.MemberState("iod-3"); ok {
			t.Fatalf("decommissioned backend in state %s", st)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitDecommissioned(ctx, "iod-3"); err != nil {
		t.Fatal(err)
	}
	// Gone from the member set, and its store is empty.
	for _, name := range s.Members() {
		if name == "iod-3" {
			t.Error("decommissioned backend still a member")
		}
	}
	keys, err := inners[3].Keys(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("decommissioned backend still holds %d objects", len(keys))
	}
	// Every object has R copies on the survivors and still reads back.
	for id := uint64(1); id <= 30; id++ {
		n := 0
		for i := 0; i < 3; i++ {
			if _, ok, _ := inners[i].Stat(context.Background(), key(id)); ok {
				n++
			}
		}
		if n != 2 {
			t.Errorf("object %d has %d replicas on survivors, want 2", id, n)
		}
		got, err := s.Get(context.Background(), key(id))
		if err != nil || !bytes.Equal(got.Blocks[0], []byte("survive-the-drain")) {
			t.Fatalf("read %d after drain: %v", id, err)
		}
	}
	if v := reg.Counter("ndpcr_shardstore_rebalance_moved_total", "").Value(); v == 0 {
		t.Error("drain moved objects without counting them")
	}
	if v := reg.Counter("ndpcr_shardstore_rebalance_dropped_total", "").Value(); v == 0 {
		t.Error("drain dropped replicas without counting them")
	}
}

func TestDecommissionRefusesBelowReplicationFactor(t *testing.T) {
	s, _, _ := rig(t, 2, Config{Replicas: 2})
	if err := s.Decommission("iod-0"); err == nil {
		t.Fatal("decommission below R eligible backends accepted")
	}
	if err := s.Decommission("iod-9"); err == nil {
		t.Fatal("decommission of unknown backend accepted")
	}
}

func TestNewWritesAvoidDrainingBackend(t *testing.T) {
	s, _, inners := rig(t, 3, Config{Replicas: 2})
	// Park iod-2 in draining by hand (no watcher race: no kick issued).
	s.mu.Lock()
	s.backends[2].state.Store(int32(StateDraining))
	s.mu.Unlock()
	for id := uint64(1); id <= 16; id++ {
		if err := s.Put(context.Background(), obj(id, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if keys, _ := inners[2].Keys(context.Background()); len(keys) != 0 {
		t.Errorf("draining backend took %d new objects", len(keys))
	}
}

// TestRestartBlindRepair is the regression for the standing gap the
// planner closes: a fresh client (empty sticky-assignment map) must
// discover and re-replicate under-replicated objects written by a previous
// process — RepairInventory asks the stores — while its background pass,
// which is scoped to the keys the client tracks, must leave them alone.
func TestRestartBlindRepair(t *testing.T) {
	writer, flakies, inners := rig(t, 3, Config{Replicas: 2})
	for id := uint64(1); id <= 12; id++ {
		if err := writer.Put(context.Background(), obj(id, "from-the-past")); err != nil {
			t.Fatal(err)
		}
	}
	writer.Close()

	// Lose one replica of every object behind the clients' backs.
	damaged := 0
	for id := uint64(1); id <= 12; id++ {
		for _, inner := range inners {
			if _, ok, _ := inner.Stat(context.Background(), key(id)); ok {
				if err := inner.Delete(context.Background(), key(id)); err != nil {
					t.Fatal(err)
				}
				damaged++
				break
			}
		}
	}
	if damaged != 12 {
		t.Fatalf("damaged %d/12 objects", damaged)
	}

	fresh := clientOver(t, flakies, Config{Replicas: 2})
	// A probe-tick pass on a client that tracks nothing lists no inventory
	// (and asks nobody anything): every rank runs a client over the same
	// stores, and they must not all repair each other's objects in the
	// background.
	for _, f := range flakies {
		f.calls.Store(0)
	}
	fresh.probeTick(context.Background())
	for i, f := range flakies {
		if n := f.calls.Load(); n != 0 {
			t.Errorf("backend %d was handed %d calls by a probe tick that tracks no key (%d listings)", i, n, f.lists.Load())
		}
	}
	if n := fresh.ReplicaCount(context.Background(), key(1)); n != 1 {
		t.Fatalf("precondition: object 1 has %d replicas, want 1", n)
	}
	// The inventory-driven planner sees and fixes all of it.
	moved, err := fresh.RepairInventory(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if moved != 12 {
		t.Errorf("RepairInventory moved %d copies, want 12", moved)
	}
	for id := uint64(1); id <= 12; id++ {
		if n := fresh.ReplicaCount(context.Background(), key(id)); n != 2 {
			t.Errorf("object %d has %d replicas after inventory repair, want 2", id, n)
		}
		got, err := fresh.Get(context.Background(), key(id))
		if err != nil || !bytes.Equal(got.Blocks[0], []byte("from-the-past")) {
			t.Fatalf("read %d after repair: %v", id, err)
		}
	}
	// And a second pass finds nothing to do.
	if moved, err := fresh.RepairInventory(context.Background()); err != nil || moved != 0 {
		t.Errorf("second repair pass moved %d, %v; want idle", moved, err)
	}
}

// TestDropReplicaSurvivesReassignment is the regression for the stale
// *objState bug: fanOutWrite could delete and recreate a key's assignment
// while a concurrent writer still held the old pointer, and the old
// dropReplica mutated the orphan — the fresh assignment kept crediting a
// replica that had just failed.
func TestDropReplicaSurvivesReassignment(t *testing.T) {
	s, _, _ := rig(t, 3, Config{Replicas: 2})
	k := key(1)
	if err := s.Put(context.Background(), obj(1, "x")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	stale := s.objs[k]
	s.mu.Unlock()
	staleLen := len(stale.replicas)

	// The reassignment path runs under a concurrent writer's feet.
	s.mu.Lock()
	delete(s.objs, k)
	s.mu.Unlock()
	s.assignment(k)

	// The stale-pointer holder reports a failure on a replica of the NEW
	// assignment. The drop must land in the live state...
	victim := s.replicasOf(k)[0]
	s.dropReplica(k, victim)
	for _, b := range s.replicasOf(k) {
		if b == victim {
			t.Fatal("dropped replica still credited in the live assignment")
		}
	}
	// ...and the orphaned state must be left alone (mutating it is how the
	// old bug corrupted whichever writer still held it).
	if len(stale.replicas) != staleLen {
		t.Errorf("drop mutated the orphaned objState (len %d -> %d)", staleLen, len(stale.replicas))
	}
	// A drop for a key that lost its assignment entirely is a no-op, not a
	// panic.
	s.mu.Lock()
	delete(s.objs, k)
	s.mu.Unlock()
	s.dropReplica(k, victim)
}

// halfUpBackend answers reads and inventory but fails every write: the
// probe's cheap IDs call looks fine while the backend is still broken.
type halfUpBackend struct {
	iostore.Backend
	failWrites bool
}

var errWriteBroken = errors.New("halfup: write path broken")

func (h *halfUpBackend) Put(ctx context.Context, o iostore.Object) error {
	if h.failWrites {
		return errWriteBroken
	}
	return h.Backend.Put(ctx, o)
}

func (h *halfUpBackend) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	if h.failWrites {
		return errWriteBroken
	}
	return h.Backend.PutBlock(ctx, key, meta, index, block)
}

func TestProbeFlapDampingCountsFlaps(t *testing.T) {
	half := &halfUpBackend{Backend: iostore.New(nvm.Pacer{}), failWrites: true}
	members := []Member{
		{Name: "iod-half", Store: half},
		{Name: "iod-ok", Store: iostore.New(nvm.Pacer{})},
		{Name: "iod-ok2", Store: iostore.New(nvm.Pacer{})},
	}
	s, err := New(members, Config{Replicas: 2, Probe: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := metrics.NewRegistry()
	s.Instrument(reg)

	// Writes land despite the broken backend; it gets blamed unhealthy.
	for id := uint64(1); id <= 6; id++ {
		if err := s.Put(context.Background(), obj(id, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Healthy("iod-half") {
		t.Fatal("write-broken backend still healthy")
	}
	// Its IDs path answers, so probes succeed — but damping holds it out
	// until rejoinProbes consecutive successes.
	if n := s.probe(context.Background()); n != 0 {
		t.Fatalf("first probe re-admitted %d backends", n)
	}
	if n := s.probe(context.Background()); n != 0 {
		t.Fatalf("second probe re-admitted %d backends", n)
	}
	if n := s.probe(context.Background()); n != 1 {
		t.Fatalf("third probe re-admitted %d backends, want 1", n)
	}
	// Re-admitted and still broken: the next write flaps it back out, and
	// the flap is counted.
	if err := s.Put(context.Background(), obj(7, "x")); err != nil {
		t.Fatal(err)
	}
	if s.Healthy("iod-half") {
		t.Error("broken backend survived a failed write after rejoin")
	}
	if v := reg.Counter("ndpcr_shardstore_backend_flaps_total", "").Value(); v != 1 {
		t.Errorf("flaps counted = %d, want 1", v)
	}
	// A failed probe resets the streak: two successes, one failure, two
	// more successes must NOT re-admit.
	half.failWrites = false // heal the writes; break the probe instead
	s.probe(context.Background())
	s.probe(context.Background())
	s.MarkUnhealthy("iod-half") // stand-in for a failed probe resetting state
	if st, _ := s.MemberState("iod-half"); st != StateActive {
		t.Fatalf("membership state drifted to %s", st)
	}
}

func TestRebalanceMoverFaultsAreRetried(t *testing.T) {
	in := faultinject.New(7, faultinject.Rule{
		Site: faultinject.SiteShardMove, Rank: faultinject.AnyRank,
		Count: 3, Mode: faultinject.ModeErr,
	})
	inners := make([]*iostore.Store, 3)
	members := make([]Member, 3)
	for i := range inners {
		inners[i] = iostore.New(nvm.Pacer{})
		members[i] = Member{Name: fmt.Sprintf("iod-%d", i), Store: inners[i]}
	}
	s, err := New(members, Config{Replicas: 2, Probe: -1, MoveFault: in.ShardMoveHook()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	for id := uint64(1); id <= 10; id++ {
		if err := s.Put(context.Background(), obj(id, "x")); err != nil {
			t.Fatal(err)
		}
	}
	activated := activations(s)
	joiner := iostore.New(nvm.Pacer{})
	if err := s.AddBackend(Member{Name: "iod-new", Store: joiner}); err != nil {
		t.Fatal(err)
	}
	// The first 3 moves fail injected; the watcher's retry passes finish
	// the backfill anyway.
	waitState(t, s, activated, "iod-new", StateActive)
	if got := in.Fired()[faultinject.SiteShardMove]; got != 3 {
		t.Errorf("injected %d move faults, want 3", got)
	}
	if v := reg.Counter("ndpcr_shardstore_rebalance_errors_total", "").Value(); v == 0 {
		t.Error("failed moves not counted")
	}
	for id := uint64(1); id <= 10; id++ {
		if n := s.ReplicaCount(context.Background(), key(id)); n < 2 {
			t.Errorf("object %d has %d replicas after faulty rebalance", id, n)
		}
	}
}

func TestShardKeysMergesAcrossBackends(t *testing.T) {
	s, flakies, _ := rig(t, 3, Config{Replicas: 2})
	for id := uint64(1); id <= 8; id++ {
		if err := s.Put(context.Background(), obj(id, "x")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 8 {
		t.Fatalf("merged Keys = %d entries, want 8 (replicas deduplicated)", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1].ID >= keys[i].ID {
			t.Fatalf("Keys not sorted: %v", keys)
		}
	}
	// One backend down (< R): union still complete.
	flakies[0].down.Store(true)
	keys, err = s.Keys(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 8 {
		t.Errorf("degraded Keys = %d entries, want 8", len(keys))
	}
	// R backends down: refuse rather than under-report.
	flakies[1].down.Store(true)
	if _, err := s.Keys(context.Background()); err == nil {
		t.Error("Keys succeeded with R backends unreachable")
	}
}
