package shardstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/faultinject"
	"ndpcr/internal/iod"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// flakyBackend wraps an in-process store with a kill switch: while down,
// every call fails with a transport-style error — the in-process stand-in
// for an ndpcr-iod whose TCP connection died. It also counts what it is
// asked, so tests can assert on calls instead of clocks.
type flakyBackend struct {
	inner iostore.Backend
	down  atomic.Bool
	calls atomic.Int64 // every call, whatever the method
	lists atomic.Int64 // Keys calls
	stats atomic.Int64 // StatBlocks calls
}

var errDown = errors.New("flaky: connection refused")

func (f *flakyBackend) guard() error {
	f.calls.Add(1)
	if f.down.Load() {
		return errDown
	}
	return nil
}

func (f *flakyBackend) Put(ctx context.Context, o iostore.Object) error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.Put(ctx, o)
}

func (f *flakyBackend) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.PutBlock(ctx, key, meta, index, block)
}

func (f *flakyBackend) Delete(ctx context.Context, key iostore.Key) error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.Delete(ctx, key)
}

func (f *flakyBackend) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	if err := f.guard(); err != nil {
		return iostore.Object{}, err
	}
	return f.inner.Get(ctx, key)
}

func (f *flakyBackend) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	if err := f.guard(); err != nil {
		return iostore.Object{}, false, err
	}
	return f.inner.Stat(ctx, key)
}

func (f *flakyBackend) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	return f.inner.IDs(ctx, job, rank)
}

func (f *flakyBackend) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	if err := f.guard(); err != nil {
		return 0, false, err
	}
	return f.inner.Latest(ctx, job, rank)
}

func (f *flakyBackend) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	f.stats.Add(1)
	if err := f.guard(); err != nil {
		return iostore.Object{}, 0, false, err
	}
	return f.inner.StatBlocks(ctx, key)
}

func (f *flakyBackend) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	if err := f.guard(); err != nil {
		return nil, err
	}
	return f.inner.GetBlock(ctx, key, index)
}

func (f *flakyBackend) Keys(ctx context.Context) ([]iostore.Key, error) {
	f.lists.Add(1)
	if err := f.guard(); err != nil {
		return nil, err
	}
	return f.inner.Keys(ctx)
}

// rig builds a shard client over n in-process flaky backends with the
// controller's probe tick disabled (tests drive RepairInventory and
// probeTick explicitly).
func rig(t *testing.T, n int, cfg Config) (*Store, []*flakyBackend, []*iostore.Store) {
	t.Helper()
	flakies := newFlakies(n)
	inners := make([]*iostore.Store, n)
	for i, f := range flakies {
		inners[i] = f.inner.(*iostore.Store)
	}
	return clientOver(t, flakies, cfg), flakies, inners
}

func newFlakies(n int) []*flakyBackend {
	flakies := make([]*flakyBackend, n)
	for i := range flakies {
		flakies[i] = &flakyBackend{inner: iostore.New(nvm.Pacer{})}
	}
	return flakies
}

// clientOver opens a shard client over existing backends. A second client
// over the same backends is a restarted process: it tracks no key.
func clientOver(t *testing.T, flakies []*flakyBackend, cfg Config) *Store {
	t.Helper()
	if cfg.Probe == 0 {
		cfg.Probe = -1
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 500 * time.Millisecond
	}
	members := make([]Member, len(flakies))
	for i, f := range flakies {
		members[i] = Member{Name: fmt.Sprintf("iod-%d", i), Store: f}
	}
	s, err := New(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func key(id uint64) iostore.Key { return iostore.Key{Job: "j", Rank: 0, ID: id} }

func obj(id uint64, payload string) iostore.Object {
	return iostore.Object{
		Key:      key(id),
		OrigSize: int64(len(payload)),
		Blocks:   [][]byte{[]byte(payload)},
		Meta:     map[string]string{"step": "1"},
	}
}

func TestPutPlacesRReplicas(t *testing.T) {
	s, _, inners := rig(t, 3, Config{Replicas: 2})
	for id := uint64(1); id <= 20; id++ {
		if err := s.Put(context.Background(), obj(id, "payload")); err != nil {
			t.Fatal(err)
		}
		if n := s.ReplicaCount(context.Background(), key(id)); n != 2 {
			t.Fatalf("object %d on %d backends, want 2", id, n)
		}
	}
	// With 20 objects over 3 backends, HRW must spread the load: no
	// backend may be empty and no backend may hold everything.
	for i, inner := range inners {
		ids, err := inner.IDs(context.Background(), "j", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 || len(ids) == 20 {
			t.Errorf("backend %d holds %d/20 objects: placement is not spreading", i, len(ids))
		}
	}
	got, err := s.Get(context.Background(), key(7))
	if err != nil || !bytes.Equal(got.Blocks[0], []byte("payload")) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
}

func TestPlacementIsDeterministic(t *testing.T) {
	// Two independent clients over same-named backends must agree on
	// placement (a restarted writer finds its own objects).
	a, _, _ := rig(t, 4, Config{Replicas: 2})
	b, _, _ := rig(t, 4, Config{Replicas: 2})
	for id := uint64(1); id <= 10; id++ {
		ra, rb := a.ranking(key(id)), b.ranking(key(id))
		for i := range ra {
			if ra[i].name != rb[i].name {
				t.Fatalf("object %d ranked differently: %s vs %s at %d", id, ra[i].name, rb[i].name, i)
			}
		}
	}
}

func TestStickyAssignmentAcrossBlocks(t *testing.T) {
	s, _, inners := rig(t, 4, Config{Replicas: 2})
	k := key(1)
	meta := iostore.Object{OrigSize: 12}
	for i := 0; i < 3; i++ {
		if err := s.PutBlock(context.Background(), k, meta, i, []byte("blk0")); err != nil {
			t.Fatal(err)
		}
	}
	// Every backend that holds the object must hold all three blocks: a
	// scattered multi-block object would be torn everywhere.
	holders := 0
	for i, inner := range inners {
		if _, n, ok, _ := inner.StatBlocks(context.Background(), k); ok {
			holders++
			if n != 3 {
				t.Errorf("backend %d holds %d/3 blocks: object scattered", i, n)
			}
		}
	}
	if holders != 2 {
		t.Errorf("object on %d backends, want 2", holders)
	}
}

func TestWriteSurvivesReplicaDeathMidStream(t *testing.T) {
	s, flakies, _ := rig(t, 3, Config{Replicas: 2})
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	k := key(1)
	meta := iostore.Object{OrigSize: 40}
	if err := s.PutBlock(context.Background(), k, meta, 0, []byte("block-0000")); err != nil {
		t.Fatal(err)
	}
	// One of the two assigned replicas dies mid-object.
	victim := s.replicasOf(k)[0]
	for i, f := range flakies {
		if fmt.Sprintf("iod-%d", i) == victim.name {
			f.down.Store(true)
		}
	}
	for i := 1; i < 4; i++ {
		if err := s.PutBlock(context.Background(), k, meta, i, []byte("block-0000")); err != nil {
			t.Fatalf("block %d after replica death: %v", i, err)
		}
	}
	// The survivor holds the whole object; the victim was dropped.
	if got := s.replicasOf(k); len(got) != 1 || got[0] == victim {
		t.Fatalf("replica set after death = %v", got)
	}
	if v := reg.Counter("ndpcr_shardstore_replicas_dropped_total", "").Value(); v == 0 {
		t.Error("mid-stream death did not count a dropped replica")
	}
	got, err := s.Get(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != 4 {
		t.Fatalf("survivor holds %d/4 blocks", len(got.Blocks))
	}

	// Nothing kicks a repair: the key stays on one whole copy — the victim's
	// block 0, once it answers again, is a torn copy and does not count —
	// until a pass runs.
	for _, f := range flakies {
		f.down.Store(false)
	}
	if n := s.ReplicaCount(context.Background(), k); n != 1 {
		t.Fatalf("whole replicas before repair = %d, want 1", n)
	}
	// The repair pass copies the object back up to R (the victim is still
	// marked unhealthy — one probe does not rejoin it — so the third backend
	// takes over).
	moved, err := s.RepairInventory(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Errorf("repair created %d copies, want 1", moved)
	}
	if n := s.ReplicaCount(context.Background(), k); n != 2 {
		t.Errorf("whole replicas after repair = %d, want 2", n)
	}
}

func TestReadFailsOverToSurvivingReplica(t *testing.T) {
	s, flakies, _ := rig(t, 3, Config{Replicas: 2})
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	k := key(9)
	if err := s.Put(context.Background(), obj(9, "precious")); err != nil {
		t.Fatal(err)
	}
	// Kill the replica the read would be dealt to.
	order, _ := s.readOrder(k, 0, nil)
	first := order[0]
	for i, f := range flakies {
		if fmt.Sprintf("iod-%d", i) == first.name {
			f.down.Store(true)
		}
	}
	got, err := s.Get(context.Background(), k)
	if err != nil || !bytes.Equal(got.Blocks[0], []byte("precious")) {
		t.Fatalf("failover read: %v", err)
	}
	if v := reg.Counter("ndpcr_shardstore_read_failovers_total", "").Value(); v == 0 {
		t.Error("failover read not counted")
	}
	if s.Healthy(first.name) {
		t.Error("erroring backend still marked healthy")
	}
}

func TestNotFoundRequiresUnanimity(t *testing.T) {
	s, flakies, _ := rig(t, 3, Config{Replicas: 2})
	// All reachable and empty: honest not-found.
	if _, err := s.Get(context.Background(), key(404)); !errors.Is(err, iostore.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	// One backend unreachable: a missing answer proves nothing — the
	// object could live exactly there. The error must be the transport
	// failure, not not-found.
	flakies[0].down.Store(true)
	if _, err := s.Get(context.Background(), key(404)); errors.Is(err, iostore.ErrNotFound) {
		t.Fatal("not-found reported while a backend was unreachable")
	}
}

func TestInventoryToleratesFewerThanRUnreachable(t *testing.T) {
	s, flakies, _ := rig(t, 3, Config{Replicas: 2})
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	for id := uint64(1); id <= 6; id++ {
		if err := s.Put(context.Background(), obj(id, "x")); err != nil {
			t.Fatal(err)
		}
	}
	// One of 3 backends down (< R=2): every object still has a reachable
	// replica, so the union is complete and the planner sees all IDs.
	flakies[2].down.Store(true)
	ids, err := s.IDs(context.Background(), "j", 0)
	if err != nil {
		t.Fatalf("inventory with one backend down: %v", err)
	}
	if len(ids) != 6 {
		t.Errorf("degraded inventory = %v, want all 6", ids)
	}
	if v := reg.Counter("ndpcr_shardstore_degraded_inventories_total", "").Value(); v == 0 {
		t.Error("degraded merge not counted")
	}
	if latest, ok, err := s.Latest(context.Background(), "j", 0); err != nil || !ok || latest != 6 {
		t.Errorf("Latest degraded = %d, %v, %v", latest, ok, err)
	}
	// R backends down: some replica set may be fully unreachable — the
	// merge must refuse rather than under-report.
	flakies[1].down.Store(true)
	if _, err := s.IDs(context.Background(), "j", 0); err == nil {
		t.Error("inventory succeeded with R backends unreachable")
	}
	if _, _, err := s.Latest(context.Background(), "j", 0); err == nil {
		t.Error("Latest succeeded with R backends unreachable")
	}
}

func TestRepairAfterBackendDeath(t *testing.T) {
	s, flakies, inners := rig(t, 3, Config{Replicas: 2})
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	for id := uint64(1); id <= 12; id++ {
		if err := s.Put(context.Background(), obj(id, "data")); err != nil {
			t.Fatal(err)
		}
	}
	// Backend 0 dies for good: every object it held is down to one copy.
	flakies[0].down.Store(true)
	s.MarkUnhealthy("iod-0")
	if _, err := s.RepairInventory(context.Background()); err != nil {
		t.Fatalf("repair: %v", err)
	}
	for id := uint64(1); id <= 12; id++ {
		n := 0
		for i, inner := range inners {
			if i == 0 {
				continue // dead; its copies don't count
			}
			if _, ok, _ := inner.Stat(context.Background(), key(id)); ok {
				n++
			}
		}
		if n != 2 {
			t.Errorf("object %d has %d live replicas after repair, want 2", id, n)
		}
	}
	if v := reg.Counter("ndpcr_shardstore_rebalance_moved_total", "").Value(); v == 0 {
		t.Error("repairs not counted")
	}
}

func TestProbeRejoinsRecoveredBackend(t *testing.T) {
	s, flakies, _ := rig(t, 2, Config{Replicas: 2})
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	flakies[1].down.Store(true)
	if err := s.Put(context.Background(), obj(1, "x")); err != nil {
		t.Fatal(err) // lands on the survivor
	}
	if s.Healthy("iod-1") {
		t.Fatal("dead backend still healthy after failed write")
	}
	// The backend comes back. Re-admission is damped: the first
	// rejoinProbes-1 passes must NOT rejoin it (and copy nothing — with only
	// one healthy backend there is nowhere to restore R=2); the
	// rejoinProbes-th pass does, and repairs in the same breath.
	flakies[1].down.Store(false)
	for i := 1; i < rejoinProbes; i++ {
		if moved, err := s.RepairInventory(context.Background()); err != nil || moved != 0 {
			t.Fatalf("pass %d = %d copies, %v; want none yet", i, moved, err)
		}
		if s.Healthy("iod-1") {
			t.Fatalf("backend re-admitted after %d probes, want damping to %d", i, rejoinProbes)
		}
	}
	if _, err := s.RepairInventory(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.Healthy("iod-1") {
		t.Error("recovered backend not re-admitted")
	}
	if v := reg.Counter("ndpcr_shardstore_backend_rejoins_total", "").Value(); v == 0 {
		t.Error("rejoin not counted")
	}
	if n := s.ReplicaCount(context.Background(), key(1)); n != 2 {
		t.Errorf("replicas after rejoin = %d, want 2", n)
	}
}

func TestDeleteFansOutAndReportsErrors(t *testing.T) {
	s, flakies, inners := rig(t, 3, Config{Replicas: 2})
	if err := s.Put(context.Background(), obj(1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), key(1)); err != nil {
		t.Fatalf("clean delete: %v", err)
	}
	for i, inner := range inners {
		if _, ok, _ := inner.Stat(context.Background(), key(1)); ok {
			t.Errorf("backend %d still holds the deleted object", i)
		}
	}
	// A delete that cannot reach a backend is a visible error, not a
	// silent leak.
	if err := s.Put(context.Background(), obj(2, "x")); err != nil {
		t.Fatal(err)
	}
	flakies[0].down.Store(true)
	if err := s.Delete(context.Background(), key(2)); err == nil {
		t.Error("delete with an unreachable backend reported success")
	}
}

func TestStreamedRestoreSurfaceFailsOver(t *testing.T) {
	s, flakies, _ := rig(t, 3, Config{Replicas: 2})
	k := key(5)
	meta := iostore.Object{Codec: "gzip", CodecLevel: 1, OrigSize: 8}
	for i := 0; i < 2; i++ {
		if err := s.PutBlock(context.Background(), k, meta, i, []byte("cccc")); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one replica mid-restore: StatBlocks and every GetBlock must
	// fail over to the survivor.
	victim := s.replicasOf(k)[0]
	for i, f := range flakies {
		if fmt.Sprintf("iod-%d", i) == victim.name {
			f.down.Store(true)
		}
	}
	m, n, ok, err := s.StatBlocks(context.Background(), k)
	if err != nil || !ok || n != 2 || m.Codec != "gzip" {
		t.Fatalf("StatBlocks after replica death = %+v, %d, %v, %v", m, n, ok, err)
	}
	for i := 0; i < 2; i++ {
		blk, err := s.GetBlock(context.Background(), k, i)
		if err != nil || !bytes.Equal(blk, []byte("cccc")) {
			t.Fatalf("GetBlock(%d) after replica death: %q, %v", i, blk, err)
		}
	}
}

func TestStatBlocksAbsenceVersusDeadTier(t *testing.T) {
	// The restore path has no second read to produce "the real error":
	// every replica answering "no such object" is absence (ok=false, nil),
	// every replica down is the transport failure.
	s, flakies, _ := rig(t, 3, Config{Replicas: 2})
	if _, _, ok, err := s.StatBlocks(context.Background(), key(404)); ok || err != nil {
		t.Fatalf("StatBlocks of an absent key = %v, %v; want false, nil", ok, err)
	}
	for _, f := range flakies {
		f.down.Store(true)
	}
	if _, _, ok, err := s.StatBlocks(context.Background(), key(404)); ok || !errors.Is(err, errDown) {
		t.Fatalf("StatBlocks with every replica down = %v, %v; want false, %v", ok, err, errDown)
	}
}

// TestAbsentAnswerBlamesNobody: a replica that truthfully answers "no such
// object" to Stat or StatBlocks has not failed. The gateway issues exactly
// this call whenever a client polls the durability of an ID that has not
// drained yet; blaming the replicas for it marked the whole tier unhealthy.
func TestAbsentAnswerBlamesNobody(t *testing.T) {
	s, _, _ := rig(t, 3, Config{Replicas: 2})
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	if _, ok, err := s.Stat(context.Background(), key(404)); ok || err != nil {
		t.Fatalf("Stat of an absent key = %v, %v; want false, nil", ok, err)
	}
	if _, _, ok, err := s.StatBlocks(context.Background(), key(404)); ok || err != nil {
		t.Fatalf("StatBlocks of an absent key = %v, %v; want false, nil", ok, err)
	}
	for _, name := range s.Members() {
		if !s.Healthy(name) {
			t.Errorf("backend %s marked unhealthy for answering \"absent\"", name)
		}
	}
	if v := reg.Counter("ndpcr_shardstore_replica_errors_total", "").Value(); v != 0 {
		t.Errorf("replica_errors_total = %d after honest absences, want 0", v)
	}
}

func TestChaosStalledReplicaDoesNotBlockReads(t *testing.T) {
	// Exactly one backend stalls on every read (faultinject ModeStall).
	// CallTimeout bounds the damage: reads fail over to a prompt replica
	// instead of inheriting the stall.
	const stall = 2 * time.Second
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteStoreGet, Rank: faultinject.AnyRank,
		Mode: faultinject.ModeStall, Delay: stall,
	})
	slow := faultinject.WrapStore(iostore.New(nvm.Pacer{}), in)
	members := []Member{
		{Name: "iod-slow", Store: slow},
		{Name: "iod-b", Store: iostore.New(nvm.Pacer{})},
		{Name: "iod-c", Store: iostore.New(nvm.Pacer{})},
	}
	s, err := New(members, Config{Replicas: 2, CallTimeout: 100 * time.Millisecond, Probe: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := uint64(1); id <= 8; id++ {
		if err := s.Put(context.Background(), obj(id, "steady")); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for id := uint64(1); id <= 8; id++ {
		got, err := s.Get(context.Background(), key(id))
		if err != nil || !bytes.Equal(got.Blocks[0], []byte("steady")) {
			t.Fatalf("read %d under stall: %v", id, err)
		}
	}
	// 8 reads, each at most one CallTimeout of stall exposure; well under
	// a single full stall had the slow replica been waited out.
	if elapsed := time.Since(start); elapsed >= stall {
		t.Errorf("reads took %v: the stalled replica was waited out", elapsed)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("empty member set accepted")
	}
	if _, err := New([]Member{{Name: "", Store: iostore.New(nvm.Pacer{})}}, Config{}); err == nil {
		t.Error("unnamed member accepted")
	}
	dup := []Member{
		{Name: "a", Store: iostore.New(nvm.Pacer{})},
		{Name: "a", Store: iostore.New(nvm.Pacer{})},
	}
	if _, err := New(dup, Config{}); err == nil {
		t.Error("duplicate backend name accepted")
	}
	// R is capped at the backend count.
	s, err := New([]Member{{Name: "only", Store: iostore.New(nvm.Pacer{})}}, Config{Replicas: 5, Probe: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.Replicas != 1 {
		t.Errorf("replicas = %d, want capped to 1", s.cfg.Replicas)
	}
}

func TestClosedStoreRefuses(t *testing.T) {
	s, _, _ := rig(t, 2, Config{})
	s.Close()
	if err := s.Put(context.Background(), obj(1, "x")); err == nil {
		t.Error("Put on closed store succeeded")
	}
	if _, err := s.IDs(context.Background(), "j", 0); err == nil {
		t.Error("IDs on closed store succeeded")
	}
	s.Close() // idempotent
}

// TestFetchedBlockIsTheCallers: the shard tier passes a member's block on
// with its ownership. Scribbling on it and releasing it, as a restore does,
// changes what no holder serves next — whichever replica the read is dealt.
func TestFetchedBlockIsTheCallers(t *testing.T) {
	s, _, _ := rig(t, 3, Config{Replicas: 2})
	ctx := context.Background()
	want := bytes.Repeat([]byte("ndp!"), 256) // 1 KiB: a pool class
	for i := 0; i < 2; i++ {
		if err := s.PutBlock(ctx, key(1), iostore.Object{OrigSize: 2048}, i, want); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 6; round++ { // both holders get asked, more than once
		b, err := s.GetBlock(ctx, key(1), round%2)
		if err != nil || !bytes.Equal(b, want) {
			t.Fatalf("round %d: GetBlock = %d bytes, %v; a caller's scribble reached a holder", round, len(b), err)
		}
		for i := range b {
			b[i] = 0xEE
		}
		blockpool.Put(b)
	}
	o, err := s.Get(ctx, key(1))
	if err != nil || len(o.Blocks) != 2 || !bytes.Equal(o.Blocks[0], want) || !bytes.Equal(o.Blocks[1], want) {
		t.Errorf("Get after scribbling on fetched blocks: %v, blocks changed", err)
	}
}

// TestInstrumentCoversIodMembers: a tier over three loopback iod servers of
// two lanes each exports its members' client series through its own
// Instrument, a member added after it included, and ndpcr_iod_lanes sums
// the pools once per registry however often a client is instrumented on it.
func TestInstrumentCoversIodMembers(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		srv, err := iod.NewServer(iostore.New(nvm.Pacer{}))
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	s, err := Dial(addrs[:2], 2, Config{Replicas: 2, Probe: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	reg := metrics.NewRegistry()
	s.Instrument(reg)
	s.Instrument(reg)
	if err := s.AddBackendAddr(addrs[2], 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(context.Background(), obj(1, "instrumented")); err != nil {
		t.Fatal(err)
	}
	lanes := reg.Gauge("ndpcr_iod_lanes", "")
	if got := lanes.Value(); got != 6 {
		t.Errorf("ndpcr_iod_lanes = %d, want 6 (three pools of 2)", got)
	}
	if n := reg.Histogram("ndpcr_iod_call_seconds", "", metrics.UnitSeconds).Count(); n == 0 {
		t.Error("ndpcr_iod_call_seconds counted no call of the tier's members")
	}
	s.Close()
	if got := lanes.Value(); got != 0 {
		t.Errorf("ndpcr_iod_lanes = %d once the tier closed its members, want 0", got)
	}
}
