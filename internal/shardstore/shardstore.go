// Package shardstore implements the sharded, replicated global-store tier:
// one iostore.Backend client that spreads checkpoint objects across N
// ndpcr-iod backends and keeps R copies of each, so losing one I/O node
// degrades aggregate bandwidth instead of availability (VELOC's multi-
// backend async tier; JASS's flexible placement over NVM-backed stores).
//
// Placement is rendezvous (HRW) hashing: every backend is scored against
// the object key and the top R healthy backends hold the replicas. HRW
// gives minimal disruption — a dead backend reshuffles only the objects it
// held, and a (re)joining backend claims only the keys it now wins —
// without any central placement table.
//
// Replica sets are sticky per key: the first write pins the set, and every
// subsequent block of that object lands on the same replicas, so a
// multi-block drain never scatters an object. A replica that fails
// mid-object is dropped from the set (the write continues on the
// survivors) and the key is left short of R; the repair pass (planner.go)
// copies the object back up to R whole replicas once a healthy backend is
// available.
//
// Reads are dealt across the key's read set — the healthy members of its
// sticky assignment, or of its top-R HRW ranking when this client never
// wrote the key — to the member with the fewest calls in flight (ties go to
// block index mod set size), so a block-streamed restore uses every healthy
// holder's lanes. Behind that first choice a read fails over down the rest
// of the set, the unhealthy holders and every other backend on transport
// errors and on "absent" answers; "not found" is reported only when every
// reachable candidate agrees.
package shardstore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ndpcr/internal/iod"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// Config parameterizes the shard client.
type Config struct {
	// Replicas is the copy count R per object (default 2, capped at the
	// backend count).
	Replicas int
	// CallTimeout bounds every per-replica call (default 3s; zero keeps
	// the default). Failover latency is one CallTimeout, not the backend
	// client's full reconnect schedule — the retry loops inside iod.Client
	// select on this deadline and abort early.
	CallTimeout time.Duration
	// Probe is the interval at which the controller probes unhealthy
	// backends and repairs the keys this client tracks that are short of R
	// (default 2s; negative disables every time-triggered pass — membership
	// changes and RepairInventory still run theirs).
	Probe time.Duration
	// MoveFault, when non-nil, is consulted before every object move
	// (faultinject.Injector.ShardMoveHook wires the shard.move site here).
	// A returned error fails that move; the controller counts it and
	// retries on its next pass.
	MoveFault func(key iostore.Key) error
	// OnEvent, when non-nil, receives membership and rebalance progress
	// events. It is called synchronously from the drain controller (and
	// from AddBackend/Decommission), so it must not block for long and
	// must not call back into membership methods.
	OnEvent func(Event)
}

func (cfg *Config) fill(n int) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > n {
		cfg.Replicas = n
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 3 * time.Second
	}
	if cfg.Probe == 0 {
		cfg.Probe = 2 * time.Second
	}
}

const (
	// rejoinProbes is how many *consecutive* successful probes an unhealthy
	// backend must answer before it is re-admitted. One lucky inventory call
	// must not rejoin a backend that still fails writes — without damping
	// such a backend flaps healthy/unhealthy on every probe tick and every
	// flap re-routes placement.
	rejoinProbes = 3
	// moverBudget caps concurrent object copies in one repair pass. The
	// mover shares backend bandwidth with live drains, so the budget is the
	// throttle that keeps a rebalance from starving checkpoint traffic.
	moverBudget = 2
)

// Member is one backend of the shard set.
type Member struct {
	// Name must be unique and stable: it seeds the HRW score, so renaming
	// a backend reshuffles its placement.
	Name string
	// Store is the backend's store surface (an iod.Client, an in-process
	// iostore.Store in tests, or a faultinject wrapper for chaos runs).
	Store iostore.Backend
	// Close, when non-nil, is called by Store.Close (connection teardown
	// for dialed backends).
	Close func() error
}

// backend is one member plus its health/load/membership state.
type backend struct {
	name  string
	store iostore.Backend
	close func() error
	hash  uint64 // fnv64a(name), mixed per-key for HRW scoring

	healthy atomic.Bool
	// state is the backend's membership state (MemberState). Joining and
	// Active backends take new assignments; Draining ones serve reads and
	// in-flight sticky writes while the controller migrates their replica
	// sets off.
	state atomic.Int32
	// probeStreak counts consecutive successful probes while unhealthy;
	// re-admission requires rejoinProbes in a row (flap damping).
	probeStreak atomic.Int32
	// everRejoined marks a backend that has been probed back to healthy
	// at least once: a later health loss on such a backend is a flap.
	everRejoined atomic.Bool
	// inflight counts this client's read and write calls outstanding against
	// the backend; a read goes to the healthy holder with the fewest. A count
	// reacts within one call, and a holder that stops being chosen drains to
	// zero and is chosen again — an average of observed latency that orders
	// reads starves the slow replica of the samples it needs to recover.
	inflight atomic.Int32
}

func (b *backend) memberState() MemberState { return MemberState(b.state.Load()) }

// eligible reports whether new replica assignments may target b: joining
// and active members take new writes; draining and drained ones are being
// emptied and must not accumulate new objects.
func (b *backend) eligible() bool {
	st := b.memberState()
	return st == StateJoining || st == StateActive
}

// objState is the sticky replica assignment of one object.
type objState struct {
	// replicas are the backends this client knows to hold the object whole:
	// the ones that acknowledged every write of it, or the holders a repair
	// pass verified. Fewer than R (a replica died mid-write, or placement
	// found too few healthy backends) marks the key for the next repair pass.
	replicas []*backend
	// gen counts write snapshots taken against this assignment, and
	// writers counts writes currently in flight. Together they serialise
	// the rebalance mover against the drain stream: the mover refuses to
	// start while writers > 0, records gen, and installs the moved
	// assignment only if gen is unchanged and writers is still zero. A
	// violated check means some block write overlapped the copy against
	// the old replica set — the copy may be a silent prefix, or worse a
	// nil-padded gap (the NDP sender's windowed writes land out of
	// order) — so the move is voided and retried after the stream ends.
	gen     uint64
	writers int
}

// Store is the sharded, replicated store client. It satisfies
// iostore.Backend, so the node runtime, NDP drain engine, and cluster
// restart-line planner use it exactly like a single store.
type Store struct {
	cfg Config

	// mu guards both the sticky-assignment map and the member set; the
	// backends slice is mutable at runtime (AddBackend/Decommission) and
	// must be read through snapshot() outside the lock.
	mu       sync.Mutex
	backends []*backend
	objs     map[iostore.Key]*objState

	// Controller plumbing (watcher, membership.go): kicks wake it, runCtx
	// stops it — and cancels its in-flight pass — on Close.
	memberKick  chan struct{}
	watcherDone chan struct{}
	runCtx      context.Context
	runCancel   context.CancelFunc

	closed atomic.Bool

	// reg is the registry Instrument was given (nil before): AddBackend
	// instruments a new member on it.
	reg atomic.Pointer[metrics.Registry]

	// Metrics (nil until Instrument is called).
	mPuts         *metrics.Counter
	mReads        *metrics.Counter
	mFailovers    *metrics.Counter
	mReplicaErrs  *metrics.Counter
	mDropped      *metrics.Counter
	mRejoins      *metrics.Counter
	mInvDegraded  *metrics.Counter
	mFlaps        *metrics.Counter
	mMoved        *metrics.Counter
	mRebalDropped *metrics.Counter
	mMoveErrs     *metrics.Counter
	mDrainRemain  *metrics.Gauge
	mCallSecs     *metrics.Histogram
}

// snapshot copies the current member set out from under the lock: every
// iteration outside s.mu must use it, because AddBackend and the drain
// controller mutate the slice at runtime.
func (s *Store) snapshot() []*backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*backend(nil), s.backends...)
}

// New assembles a shard client over pre-built members (tests compose
// in-process stores or faultinject wrappers; Dial composes iod clients).
// Member names must be unique.
func New(members []Member, cfg Config) (*Store, error) {
	if len(members) == 0 {
		return nil, errors.New("shardstore: at least one backend is required")
	}
	seen := make(map[string]bool, len(members))
	cfg.fill(len(members))
	s := &Store{
		cfg:         cfg,
		objs:        make(map[iostore.Key]*objState),
		memberKick:  make(chan struct{}, 1),
		watcherDone: make(chan struct{}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	for _, m := range members {
		if m.Name == "" || m.Store == nil {
			return nil, errors.New("shardstore: member needs a name and a store")
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("shardstore: duplicate backend name %q", m.Name)
		}
		seen[m.Name] = true
		h := fnv.New64a()
		h.Write([]byte(m.Name))
		b := &backend{name: m.Name, store: m.Store, close: m.Close, hash: h.Sum64()}
		b.healthy.Store(true)
		s.backends = append(s.backends, b)
	}
	// The controller runs even with Probe < 0 (it then never wakes on its
	// own): AddBackend/Decommission must make progress in such test rigs.
	go s.watcher()
	return s, nil
}

// Dial connects to every address with a pooled iod client and assembles a
// shard client over them. The address string is each backend's name, so a
// restarted process scores placement identically.
func Dial(addrs []string, lanes int, cfg Config) (*Store, error) {
	members := make([]Member, 0, len(addrs))
	fail := func(err error) (*Store, error) {
		for _, m := range members {
			m.Close()
		}
		return nil, err
	}
	for _, addr := range addrs {
		c, err := iod.DialPool(addr, lanes)
		if err != nil {
			return fail(fmt.Errorf("shardstore: backend %s: %w", addr, err))
		}
		members = append(members, Member{Name: addr, Store: c, Close: c.Close})
	}
	s, err := New(members, cfg)
	if err != nil {
		return fail(err)
	}
	return s, nil
}

var _ iostore.Backend = (*Store)(nil)

// Instrument registers the shard tier's placement/failover/repair
// metrics with r, and every member's own (an iod client's calls, retries
// and lanes); a member AddBackend adds later is instrumented on r before it
// takes traffic. Call it once, before traffic (see iostore.Instrument): it
// assigns the counters the write and read paths bump.
func (s *Store) Instrument(r *metrics.Registry) {
	s.reg.Store(r)
	for _, b := range s.snapshot() {
		iostore.Instrument(b.store, r)
	}
	r.GaugeFunc("ndpcr_shardstore_backends", "I/O backends in the shard set", func() float64 {
		return float64(len(s.snapshot()))
	})
	r.GaugeFunc("ndpcr_shardstore_healthy_backends", "backends currently believed healthy", func() float64 {
		n := 0
		for _, b := range s.snapshot() {
			if b.healthy.Load() {
				n++
			}
		}
		return float64(n)
	})
	for _, ms := range []MemberState{StateActive, StateJoining, StateDraining, StateDrained} {
		ms := ms
		r.GaugeFunc(fmt.Sprintf("ndpcr_shardstore_membership_state{state=%q}", ms),
			"backends currently in this membership state", func() float64 {
				n := 0
				for _, b := range s.snapshot() {
					if b.memberState() == ms {
						n++
					}
				}
				return float64(n)
			})
	}
	r.GaugeFunc("ndpcr_shardstore_underreplicated_objects",
		"tracked objects currently holding fewer than R replicas", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, st := range s.objs {
				if len(st.replicas) < s.cfg.Replicas {
					n++
				}
			}
			return float64(n)
		})
	s.mPuts = r.Counter("ndpcr_shardstore_writes_total", "object/block writes fanned to replicas")
	s.mReads = r.Counter("ndpcr_shardstore_reads_total", "reads served by some replica")
	s.mFailovers = r.Counter("ndpcr_shardstore_read_failovers_total",
		"reads served only after failing over past an unhealthy or erroring replica")
	s.mReplicaErrs = r.Counter("ndpcr_shardstore_replica_errors_total",
		"per-replica calls that failed (transport errors, timeouts)")
	s.mDropped = r.Counter("ndpcr_shardstore_replicas_dropped_total",
		"replicas dropped from an object's set after a mid-write failure")
	s.mRejoins = r.Counter("ndpcr_shardstore_backend_rejoins_total",
		"backends probed back to healthy after an outage")
	s.mInvDegraded = r.Counter("ndpcr_shardstore_degraded_inventories_total",
		"inventory merges that ran with some backends unreachable (but < R, so the merge is complete)")
	s.mFlaps = r.Counter("ndpcr_shardstore_backend_flaps_total",
		"backends that lost health again after being probed back in (rejoin flaps)")
	s.mMoved = r.Counter("ndpcr_shardstore_rebalance_moved_total",
		"object copies created by the repair pass (re-replication, join backfill, drain-off)")
	s.mRebalDropped = r.Counter("ndpcr_shardstore_rebalance_dropped_total",
		"copies deleted after R whole ones were confirmed elsewhere (draining holders, stray torn copies)")
	s.mMoveErrs = r.Counter("ndpcr_shardstore_rebalance_errors_total",
		"object moves that failed (retried on the controller's next pass)")
	s.mDrainRemain = r.Gauge("ndpcr_shardstore_drain_remaining_objects",
		"objects still to migrate off draining backends (0 when no drain is active)")
	s.mCallSecs = r.Histogram("ndpcr_shardstore_call_seconds", "per-replica call latency", metrics.UnitSeconds)
}

func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// splitmix64 is the HRW mixing function: cheap, well-distributed, and
// stable across runs (placement must not depend on process state).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func keyHash(key iostore.Key) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key.Job))
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(key.Rank) >> (8 * i))
		buf[8+i] = byte(key.ID >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// ranking returns every backend ordered by descending HRW score for key:
// index 0 is the key's primary home, and a dead backend's keys fall to
// their next-ranked survivor without moving anyone else's.
func (s *Store) ranking(key iostore.Key) []*backend {
	return rankingOf(s.snapshot(), key)
}

// rankingOf is the pure HRW ordering over an explicit member snapshot, so
// assignment (already holding s.mu) and the planner (working from one
// consistent snapshot) can rank without re-locking.
func rankingOf(backends []*backend, key iostore.Key) []*backend {
	kh := keyHash(key)
	type scored struct {
		b     *backend
		score uint64
	}
	sc := make([]scored, len(backends))
	for i, b := range backends {
		sc[i] = scored{b, splitmix64(b.hash ^ kh)}
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].score > sc[j].score })
	out := make([]*backend, len(sc))
	for i, x := range sc {
		out[i] = x.b
	}
	return out
}

// callCtx derives the per-replica call context: the caller's deadline
// intersected with CallTimeout, so one slow or dead replica costs at most
// CallTimeout before failover moves on.
func (s *Store) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, s.cfg.CallTimeout)
}

// call runs one read or write against b under callCtx, counted in b's
// in-flight total while it lasts.
func (s *Store) call(ctx context.Context, b *backend, op func(ctx context.Context, b *backend) error) error {
	cctx, cancel := s.callCtx(ctx)
	defer cancel()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	t0 := time.Now()
	err := op(cctx, b)
	if err == nil && s.mCallSecs != nil {
		s.mCallSecs.ObserveSince(t0)
	}
	return err
}

// blame marks b unhealthy after a failed call — unless the caller's own
// context ended, in which case the failure proves nothing about b. A
// backend that loses health after having been probed back in is a flap:
// counted, and its probe streak restarts from zero.
func (s *Store) blame(ctx context.Context, b *backend) {
	inc(s.mReplicaErrs)
	if ctx.Err() != nil {
		return
	}
	b.probeStreak.Store(0)
	if b.healthy.Swap(false) && b.everRejoined.Load() {
		inc(s.mFlaps)
	}
}

// assignment returns the sticky replica set for key, creating it on first
// write from the top R healthy *eligible* backends in HRW order (falling
// back to unhealthy eligible ones only when fewer than R healthy exist, so
// a degraded cluster still lands writes somewhere). Draining backends are
// never assigned: they are being emptied, and every object landed on one
// is an object the drain controller must move again.
func (s *Store) assignment(key iostore.Key) *objState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.assignLocked(key)
}

// assignLocked is assignment with s.mu already held.
func (s *Store) assignLocked(key iostore.Key) *objState {
	if st, ok := s.objs[key]; ok {
		return st
	}
	rank := rankingOf(s.backends, key)
	st := &objState{}
	for _, b := range rank {
		if len(st.replicas) >= s.cfg.Replicas {
			break
		}
		if b.eligible() && b.healthy.Load() {
			st.replicas = append(st.replicas, b)
		}
	}
	for _, b := range rank {
		if len(st.replicas) >= s.cfg.Replicas {
			break
		}
		if b.eligible() && !b.healthy.Load() {
			st.replicas = append(st.replicas, b)
		}
	}
	s.objs[key] = st
	return st
}

// dropReplica removes b from key's *current* replica set after a mid-write
// failure, which leaves the key short of R. The objState is looked up
// by key under the lock, never taken from the caller: fanOutWrite's
// reassignment path (and the planner's installAssignment) can replace the
// key's objState while a concurrent writer still holds a pointer to the
// old one, and mutating the orphaned state would silently lose the drop —
// the fresh assignment keeps crediting a replica that just failed.
func (s *Store) dropReplica(key iostore.Key, b *backend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.objs[key]
	if !ok {
		return
	}
	kept := st.replicas[:0]
	for _, r := range st.replicas {
		if r != b {
			kept = append(kept, r)
		}
	}
	if len(kept) < len(st.replicas) {
		inc(s.mDropped)
	}
	st.replicas = kept
}

// writeSnapshot atomically takes key's assignment for one write: it
// creates the assignment if missing, bumps the write generation, and
// returns a private copy of the replica set. The generation bump is what
// serialises writers against the rebalance mover — the mover records the
// generation before copying and refuses to install the moved assignment
// if it changed, because a bumped generation means some block of this
// write went to the pre-move replica set and the mover's copy may be a
// silent prefix of the object.
func (s *Store) writeSnapshot(key iostore.Key) []*backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.assignLocked(key)
	st.gen++
	st.writers++
	return append([]*backend(nil), st.replicas...)
}

// writeDone retires one in-flight write taken with writeSnapshot. The
// floor guards the reassignment path, which can replace a key's objState
// (and so lose its writer count) while older writers are still in flight.
func (s *Store) writeDone(key iostore.Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.objs[key]; ok && st.writers > 0 {
		st.writers--
	}
}

// replicasOf snapshots key's current replica set (nil when untracked).
func (s *Store) replicasOf(key iostore.Key) []*backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.objs[key]
	if !ok {
		return nil
	}
	return append([]*backend(nil), st.replicas...)
}

// fanOutWrite runs write against every replica of key's assignment in
// parallel. Failed replicas are dropped from the set (and their backends
// marked unhealthy); the write succeeds if at least one replica holds it.
func (s *Store) fanOutWrite(ctx context.Context, key iostore.Key,
	write func(ctx context.Context, b *backend) error) error {
	if s.closed.Load() {
		return errors.New("shardstore: closed")
	}
	inc(s.mPuts)
	replicas := s.writeSnapshot(key)
	defer s.writeDone(key)
	if len(replicas) == 0 {
		// Every assigned replica was dropped earlier in this object's
		// life; reassign from scratch (the healthy set may have changed).
		s.mu.Lock()
		delete(s.objs, key)
		s.mu.Unlock()
		replicas = s.writeSnapshot(key)
		if len(replicas) == 0 {
			return errors.New("shardstore: no backends available")
		}
	}
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, b := range replicas {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			if err := s.call(ctx, b, write); err != nil {
				errs[i] = err
				s.blame(ctx, b)
			}
		}(i, b)
	}
	wg.Wait()
	survivors := 0
	var firstErr error
	for i, err := range errs {
		if err == nil {
			survivors++
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		s.dropReplica(key, replicas[i])
	}
	if survivors == 0 {
		return fmt.Errorf("shardstore: write %s lost on all %d replicas: %w", key, len(replicas), firstErr)
	}
	return nil
}

// Put implements iostore.Backend: the object lands on R replicas (or as
// many as survive the write — the repair pass restores R later), each a
// member Put. It is not iostore.Put over the tier: that opens with a Delete,
// which fans to every member and fails while any is unreachable, so one dead
// member would fail every whole-object write.
func (s *Store) Put(ctx context.Context, o iostore.Object) error {
	return s.fanOutWrite(ctx, o.Key, func(ctx context.Context, b *backend) error {
		return b.store.Put(ctx, o)
	})
}

// PutBlock implements iostore.Backend: every block of an object streams to
// the same sticky replica set, so a windowed NDP drain builds R identical
// copies block by block. A replica failing mid-stream is dropped — blocks
// it already holds are torn, but the survivors hold the full object and the
// repair pass copies it back to R once the stream commits.
func (s *Store) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	return s.fanOutWrite(ctx, key, func(ctx context.Context, b *backend) error {
		return b.store.PutBlock(ctx, key, meta, index, block)
	})
}

// readOrder starts the candidate list of a read of key with the key's
// holders: the sticky assignment when this client has one, otherwise the top
// R of the key's HRW ranking — where the writer put it unless a backend was
// down or the membership has changed since, and a wrong guess costs that
// read one "absent" round trip. The healthy holders are the read set and
// lead the list, the one with the fewest calls in flight first; ties go to
// index mod the set's size, so the blocks of a streamed restore that starts
// cold are dealt round-robin. An untracked key's list is already complete
// (full): the rest of its ranking follows the holders. A tracked key's is
// not: the other backends are ranked by readFrom, and only once every holder
// has failed. buf is the caller's stack space for the common case.
func (s *Store) readOrder(key iostore.Key, index int, buf []*backend) (cands []*backend, full bool) {
	s.mu.Lock()
	st, tracked := s.objs[key]
	if tracked {
		cands = append(buf, st.replicas...)
	}
	s.mu.Unlock()
	holders := len(cands)
	if !tracked {
		cands, full = s.ranking(key), true
		holders = min(s.cfg.Replicas, len(cands))
	}
	healthy := 0
	for i, b := range cands[:holders] { // stable partition, healthy first
		if b.healthy.Load() {
			copy(cands[healthy+1:i+1], cands[healthy:i])
			cands[healthy] = b
			healthy++
		}
	}
	if healthy > 1 {
		best := int(uint(index) % uint(healthy))
		for j := 1; j < healthy; j++ {
			k := int(uint(index+j) % uint(healthy))
			if cands[k].inflight.Load() < cands[best].inflight.Load() {
				best = k
			}
		}
		cands[0], cands[best] = cands[best], cands[0]
	}
	return cands, full
}

// appendOthers completes a tracked key's candidate list: every backend not
// already on it, in HRW order (re-replication or a rebalance by another
// client may have moved the object).
func (s *Store) appendOthers(cands []*backend, key iostore.Key) []*backend {
	holders := cands
ranked:
	for _, b := range s.ranking(key) {
		for _, h := range holders {
			if h == b {
				continue ranked
			}
		}
		cands = append(cands, b)
	}
	return cands
}

// readFrom deals one read of key to the least busy member of its read set
// (readOrder; index is the block for GetBlock, 0 for StatBlocks), so every
// healthy holder's lanes carry a streamed restore. Behind that choice the read
// fails over, one CallTimeout each at most, to the rest of the read set, then
// the unhealthy holders, then every other backend in HRW order. Transport
// errors blame the candidate; "not found" answers (a replica that never got
// the object, or lacks this block of it) do not, and are reported only when no
// candidate errored — a replica that is missing the object while another is
// unreachable proves nothing.
func (s *Store) readFrom(ctx context.Context, key iostore.Key, index int,
	read func(ctx context.Context, b *backend) error) error {
	if s.closed.Load() {
		return errors.New("shardstore: closed")
	}
	var buf [4]*backend
	cands, full := s.readOrder(key, index, buf[:0])
	var lastErr error
	notFound := false
	for i := 0; ; i++ {
		if i == len(cands) && !full {
			cands, full = s.appendOthers(cands, key), true
		}
		if i == len(cands) {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		b := cands[i]
		err := s.call(ctx, b, read)
		switch {
		case err == nil:
			inc(s.mReads)
			if i > 0 {
				inc(s.mFailovers)
			}
			return nil
		case errors.Is(err, iostore.ErrNotFound):
			notFound = true
		default:
			s.blame(ctx, b)
			lastErr = err
		}
	}
	if notFound && lastErr == nil {
		return fmt.Errorf("%w: %s", iostore.ErrNotFound, key)
	}
	if lastErr == nil {
		lastErr = errors.New("shardstore: no backends available")
	}
	return fmt.Errorf("shardstore: read %s: %w", key, lastErr)
}

// Get implements iostore.Backend with iostore.Get: one StatBlocks, then its
// blocks dealt across the holders as a restore's are.
func (s *Store) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	return iostore.Get(ctx, s, key)
}

// GetBlock implements iostore.Backend (the streamed-restore fetch path):
// the blocks of one object are dealt across its healthy holders, and each
// block fails over independently, so a backend dying mid-restore — or a
// holder torn mid-write that lacks this block — costs a failover per block
// dealt to it, not the restore. The block is the serving member's answer,
// passed on with its ownership.
func (s *Store) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	var out []byte
	err := s.readFrom(ctx, key, index, func(ctx context.Context, b *backend) error {
		blk, err := b.store.GetBlock(ctx, key, index)
		if err == nil {
			out = blk
		}
		return err
	})
	return out, err
}

// StatBlocks implements iostore.Backend with Stat's semantics: ok=false
// with a nil error means the replicas agree the object is absent; a tier
// that cannot answer surfaces its error after the one failover pass. A
// tracked key costs one backend call: its sticky set holds only whole copies.
func (s *Store) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	if _, _, tracked := s.genOf(key); !tracked {
		return s.statUntracked(ctx, key)
	}
	var (
		meta   iostore.Object
		blocks int
	)
	err := s.readFrom(ctx, key, 0, func(ctx context.Context, b *backend) error {
		o, n, ok, err := b.store.StatBlocks(ctx, key)
		if err != nil {
			return err
		}
		if !ok {
			// An honest "no such object" is an answer, not a fault: readFrom
			// must not blame the replica for it.
			return iostore.ErrNotFound
		}
		meta, blocks = o, n
		return nil
	})
	if errors.Is(err, iostore.ErrNotFound) {
		return iostore.Object{}, 0, false, nil
	}
	return meta, blocks, err == nil, err
}

// statUntracked describes a key this client never wrote (the restart case)
// from the most complete answer of its read set — the healthy members of its
// top-R ranking, all asked at once: any one of them may hold the torn copy of
// a replica that died mid-write and came back, and a restore sized from that
// fails while a whole copy sits one backend over. When nobody in the read set
// has the object (the writer placed around a down backend) everyone else is
// asked. The verified holders become the key's assignment, so the block reads
// that follow are dealt to whole copies only.
func (s *Store) statUntracked(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	if s.closed.Load() {
		return iostore.Object{}, 0, false, errors.New("shardstore: closed")
	}
	var readSet, others []*backend
	for i, b := range s.ranking(key) {
		if i < s.cfg.Replicas && b.healthy.Load() {
			readSet = append(readSet, b)
		} else {
			others = append(others, b)
		}
	}
	c := s.verify(ctx, key, readSet)
	if len(c.whole) == 0 {
		firstErr := c.err
		if c = s.verify(ctx, key, others); c.err == nil {
			c.err = firstErr
		}
		if len(c.whole) > 0 {
			inc(s.mFailovers)
		}
	}
	if len(c.whole) == 0 {
		if c.err != nil {
			// A replica missing the object while another is unreachable
			// proves nothing (readFrom's rule).
			c.err = fmt.Errorf("shardstore: read %s: %w", key, c.err)
		}
		return iostore.Object{}, 0, false, c.err
	}
	inc(s.mReads)
	s.installAssignment(key, c.whole, 0, false)
	return c.meta, c.blocks, true, nil
}

// Stat implements iostore.Backend with iostore.Stat.
func (s *Store) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	return iostore.Stat(ctx, s, key)
}

// askAll runs ask against every given backend in parallel, each call under
// its own callCtx, and blames the backends whose call fails (errs[i] is
// backends[i]'s error).
func (s *Store) askAll(ctx context.Context, backends []*backend, ask func(ctx context.Context, i int, b *backend) error) []error {
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			cctx, cancel := s.callCtx(ctx)
			defer cancel()
			if errs[i] = ask(cctx, i, b); errs[i] != nil {
				s.blame(ctx, b)
			}
		}(i, b)
	}
	wg.Wait()
	return errs
}

// copies is what a key's candidates answered when asked what they hold.
type copies struct {
	whole  []*backend     // the verified holders, in candidate order
	torn   []*backend     // candidates holding a less complete (or otherwise different) copy
	meta   iostore.Object // the holders' answer: metadata, no payload…
	blocks int            // …and the blocks each of them holds
	err    error          // the first error of a candidate that failed to answer (blamed)
}

// verify answers "who holds key whole" from cands. A holder is a backend
// whose StatBlocks answer — blocks held, OrigSize, codec — equals
// the most complete answer among the candidates; a Keys entry or a bare
// "exists" is not evidence, because a replica that died mid-write and came
// back lists the key and holds a gap or a short tail. An honest "absent" is
// an answer (not a holder, no blame); a transport error blames the candidate.
func (s *Store) verify(ctx context.Context, key iostore.Key, cands []*backend) copies {
	// shape is a StatBlocks answer reduced to what whole copies agree on.
	type shape struct {
		blocks   int
		origSize int64
		codec    string
		level    int
	}
	shapes := make([]*shape, len(cands)) // nil: absent, or no answer
	metas := make([]iostore.Object, len(cands))
	errs := s.askAll(ctx, cands, func(ctx context.Context, i int, b *backend) error {
		o, n, ok, err := b.store.StatBlocks(ctx, key)
		if err == nil && ok {
			metas[i], shapes[i] = o, &shape{n, o.OrigSize, o.Codec, o.CodecLevel}
		}
		return err
	})
	var c copies
	best := -1
	for i, sh := range shapes {
		if c.err == nil {
			c.err = errs[i]
		}
		if sh != nil && (best < 0 || sh.blocks > shapes[best].blocks) {
			best = i
		}
	}
	if best < 0 {
		return c
	}
	c.meta, c.blocks = metas[best], shapes[best].blocks
	for i, sh := range shapes {
		switch {
		case sh == nil:
		case *sh == *shapes[best]:
			c.whole = append(c.whole, cands[i])
		default:
			c.torn = append(c.torn, cands[i])
		}
	}
	return c
}

// Delete implements iostore.Backend: the delete fans to every backend (an
// object may have lived on backends outside its current assignment after a
// repair or rebalance), and every failure is returned — a leaked replica is
// a visible error now, not a silent best-effort.
func (s *Store) Delete(ctx context.Context, key iostore.Key) error {
	if s.closed.Load() {
		return errors.New("shardstore: closed")
	}
	s.mu.Lock()
	delete(s.objs, key)
	s.mu.Unlock()
	errs := s.askAll(ctx, s.snapshot(), func(ctx context.Context, _ int, b *backend) error {
		if err := b.store.Delete(ctx, key); err != nil && !errors.Is(err, iostore.ErrNotFound) {
			// A delete on an unreachable backend of an object that was
			// never placed there is not a leak; one holding a replica
			// is. Without an inventory we must assume the worst and
			// report it.
			return fmt.Errorf("shardstore: delete %s on %s: %w", key, b.name, err)
		}
		return nil
	})
	return errors.Join(errs...)
}

// gather asks every member for a listing, in parallel. It errors only when
// the unreachable-backend count reaches R: below that, every object still
// has at least one reachable replica, so the listings together are complete
// — "one replica unreachable" must not read as "level unavailable" to the
// restart-line planner, and at R a merge may be missing live objects.
// parts[i] is backends[i]'s listing (nil if it did not answer).
func gather[T any](ctx context.Context, s *Store,
	list func(ctx context.Context, b *backend) ([]T, error)) (backends []*backend, parts [][]T, unreachable int, err error) {
	if s.closed.Load() {
		return nil, nil, 0, errors.New("shardstore: closed")
	}
	backends = s.snapshot()
	parts = make([][]T, len(backends))
	errs := s.askAll(ctx, backends, func(ctx context.Context, i int, b *backend) (err error) {
		parts[i], err = list(ctx, b)
		return err
	})
	var firstErr error
	for i, err := range errs {
		if err != nil {
			parts[i] = nil
			if unreachable++; firstErr == nil {
				firstErr = fmt.Errorf("inventory on %s: %w", backends[i].name, err)
			}
		}
	}
	if unreachable >= s.cfg.Replicas {
		return nil, nil, 0, fmt.Errorf("shardstore: %d/%d backends unreachable (replication factor %d, inventory incomplete): %w",
			unreachable, len(backends), s.cfg.Replicas, firstErr)
	}
	if unreachable > 0 {
		inc(s.mInvDegraded)
	}
	return backends, parts, unreachable, nil
}

// IDs implements iostore.Backend: the union of every reachable backend's
// listing, with gather's < R unreachable tolerance.
func (s *Store) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	_, parts, _, err := gather(ctx, s, func(ctx context.Context, b *backend) ([]uint64, error) {
		return b.store.IDs(ctx, job, rank)
	})
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for _, part := range parts {
		ids = append(ids, part...)
	}
	slices.Sort(ids)
	return slices.Compact(ids), nil // replicas list the same ID
}

// Latest implements iostore.Backend with iostore.Latest, over IDs' merge.
func (s *Store) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	return iostore.Latest(ctx, s, job, rank)
}

// Keys implements iostore.Backend: the union of every reachable backend's
// key listing, with gather's < R unreachable tolerance.
func (s *Store) Keys(ctx context.Context) ([]iostore.Key, error) {
	cands, _, err := s.listedKeys(ctx)
	if err != nil {
		return nil, err
	}
	return sortedKeys(cands), nil
}

// probe re-checks every unhealthy backend with a cheap inventory call and
// reports how many rejoined. Re-admission is damped: a backend must answer
// rejoinProbes *consecutive* probes before it counts as healthy again. One
// lucky inventory call proves very little — a backend whose writes still
// fail would otherwise flap healthy/unhealthy on every probe tick, and
// each flap re-routes placement for every key it wins.
func (s *Store) probe(ctx context.Context) int {
	rejoined := 0
	for _, b := range s.snapshot() {
		if b.healthy.Load() {
			continue
		}
		cctx, cancel := s.callCtx(ctx)
		_, err := b.store.IDs(cctx, "shardstore-probe", 0)
		cancel()
		if err != nil {
			b.probeStreak.Store(0)
			continue
		}
		if b.probeStreak.Add(1) < rejoinProbes {
			continue
		}
		b.probeStreak.Store(0)
		b.healthy.Store(true)
		b.everRejoined.Store(true)
		rejoined++
		inc(s.mRejoins)
	}
	return rejoined
}

// ReplicaCount reports how many backends currently hold a whole copy of key
// (tests and the chaos experiments assert a repair restored R): every member
// is asked, and a torn copy does not count.
func (s *Store) ReplicaCount(ctx context.Context, key iostore.Key) int {
	return len(s.verify(ctx, key, s.snapshot()).whole)
}

// MarkUnhealthy force-marks a backend unhealthy by name (tests, operator
// tooling); the controller's probe re-admits it when it answers again.
func (s *Store) MarkUnhealthy(name string) {
	for _, b := range s.snapshot() {
		if b.name == name {
			b.probeStreak.Store(0)
			b.healthy.Store(false)
		}
	}
}

// Healthy reports backend health by name.
func (s *Store) Healthy(name string) bool {
	for _, b := range s.snapshot() {
		if b.name == name {
			return b.healthy.Load()
		}
	}
	return false
}

// Close stops the controller, then tears down every backend connection.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.runCancel()
	<-s.watcherDone
	var first error
	for _, b := range s.snapshot() {
		if b.close != nil {
			if err := b.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
