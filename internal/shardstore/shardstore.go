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
// survivors) and the key is flagged under-replicated; background
// re-replication copies the object back up to R replicas once a healthy
// backend is available.
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
	// Probe is the health-probe and re-replication interval of the
	// background repair loop (default 2s; negative disables the loop —
	// Rereplicate can still be driven explicitly).
	Probe time.Duration
	// RejoinProbes is how many *consecutive* successful probes an
	// unhealthy backend must answer before it is re-admitted (default 3).
	// One lucky inventory call must not rejoin a backend that still fails
	// writes — without damping such a backend flaps healthy/unhealthy on
	// every probe tick and every flap re-routes placement.
	RejoinProbes int
	// MoverBudget caps concurrent object copies during a membership
	// rebalance (join backfill, decommission drain-off); default 2. The
	// mover shares backend bandwidth with live drains, so the budget is
	// the throttle that keeps a rebalance from starving checkpoint
	// traffic.
	MoverBudget int
	// MoveFault, when non-nil, is consulted before every rebalance object
	// move (faultinject.Injector.ShardMoveHook wires the shard.move site
	// here). A returned error fails that move; the drain controller
	// counts it and retries on its next pass.
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
	if cfg.RejoinProbes <= 0 {
		cfg.RejoinProbes = 3
	}
	if cfg.MoverBudget <= 0 {
		cfg.MoverBudget = 2
	}
}

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
	// re-admission requires Config.RejoinProbes in a row (flap damping).
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
	replicas []*backend
	// under marks the object as holding fewer than R intact copies
	// (a replica died mid-write, or placement found too few healthy
	// backends); the repair loop re-replicates it.
	under bool
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

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// Membership watcher plumbing: kicks wake the drain controller,
	// runCtx cancels its in-flight pass on Close.
	memberKick  chan struct{}
	watcherDone chan struct{}
	runCtx      context.Context
	runCancel   context.CancelFunc

	closed atomic.Bool

	// Metrics (nil until Instrument is called).
	mPuts         *metrics.Counter
	mReads        *metrics.Counter
	mFailovers    *metrics.Counter
	mReplicaErrs  *metrics.Counter
	mDropped      *metrics.Counter
	mRereplicated *metrics.Counter
	mRejoins      *metrics.Counter
	mRepairErrs   *metrics.Counter
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
// in-process stores or faultinject wrappers; cmd/ndpcr-node composes
// iod clients via Dial). Member names must be unique.
func New(members []Member, cfg Config) (*Store, error) {
	if len(members) == 0 {
		return nil, errors.New("shardstore: at least one backend is required")
	}
	seen := make(map[string]bool, len(members))
	cfg.fill(len(members))
	s := &Store{
		cfg:         cfg,
		objs:        make(map[iostore.Key]*objState),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
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
	if cfg.Probe > 0 {
		go s.repairLoop()
	} else {
		close(s.done)
	}
	// The membership watcher runs even with the repair loop disabled:
	// AddBackend/Decommission must make progress in Probe<0 test rigs.
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

// Instrument registers the shard tier's placement/failover/re-replication
// metrics with r. Call it once, before traffic (see iostore.Instrument): it
// assigns the counters the write and read paths bump.
func (s *Store) Instrument(r *metrics.Registry) {
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
				if st.under {
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
	s.mRereplicated = r.Counter("ndpcr_shardstore_rereplications_total",
		"objects copied back up to R replicas by the repair pass")
	s.mRejoins = r.Counter("ndpcr_shardstore_backend_rejoins_total",
		"backends probed back to healthy after an outage")
	s.mRepairErrs = r.Counter("ndpcr_shardstore_repair_errors_total",
		"re-replication attempts that failed (retried next pass)")
	s.mInvDegraded = r.Counter("ndpcr_shardstore_degraded_inventories_total",
		"inventory merges that ran with some backends unreachable (but < R, so the merge is complete)")
	s.mFlaps = r.Counter("ndpcr_shardstore_backend_flaps_total",
		"backends that lost health again after being probed back in (rejoin flaps)")
	s.mMoved = r.Counter("ndpcr_shardstore_rebalance_moved_total",
		"object copies created by the membership rebalance planner")
	s.mRebalDropped = r.Counter("ndpcr_shardstore_rebalance_dropped_total",
		"replicas deleted off draining backends after R copies were confirmed elsewhere")
	s.mMoveErrs = r.Counter("ndpcr_shardstore_rebalance_errors_total",
		"rebalance object moves that failed (retried on the watcher's next pass)")
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
	if len(st.replicas) < s.cfg.Replicas {
		st.under = true
	}
	s.objs[key] = st
	return st
}

// dropReplica removes b from key's *current* replica set after a mid-write
// failure and flags the object under-replicated. The objState is looked up
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
	st.under = true
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
// many as survive the write — the repair loop restores R later).
func (s *Store) Put(ctx context.Context, o iostore.Object) error {
	return s.fanOutWrite(ctx, o.Key, func(ctx context.Context, b *backend) error {
		return b.store.Put(ctx, o)
	})
}

// PutBlock implements iostore.Backend: every block of an object streams to
// the same sticky replica set, so a windowed NDP drain builds R identical
// copies block by block. A replica failing mid-stream is dropped — blocks
// it already holds are torn, but the survivors hold the full object and
// re-replication copies it back to R once the stream commits.
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
// (readOrder; index is the block for GetBlock, 0 otherwise), so every healthy
// holder's lanes carry a streamed restore. Behind that choice the read fails
// over, one CallTimeout each at most, to the rest of the read set, then the
// unhealthy holders, then every other backend in HRW order. Transport errors
// blame the candidate; "not found" answers (a replica that never got the
// object, or lacks this block of it) do not, and are reported only when no
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

// Get implements iostore.Backend.
func (s *Store) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	var out iostore.Object
	err := s.readFrom(ctx, key, 0, func(ctx context.Context, b *backend) error {
		o, err := b.store.Get(ctx, key)
		if err == nil {
			out = o
		}
		return err
	})
	return out, err
}

// GetBlock implements iostore.Backend (the streamed-restore fetch path):
// the blocks of one object are dealt across its healthy holders, and each
// block fails over independently, so a backend dying mid-restore — or a
// holder torn mid-write that lacks this block — costs a failover per block
// dealt to it, not the restore.
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
// that cannot answer surfaces its error after the one failover pass.
func (s *Store) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
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
	switch {
	case err == nil:
		return meta, blocks, true, nil
	case errors.Is(err, iostore.ErrNotFound):
		return iostore.Object{}, 0, false, nil
	default:
		return iostore.Object{}, 0, false, err
	}
}

// Stat implements iostore.Backend.
func (s *Store) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	var (
		meta iostore.Object
	)
	err := s.readFrom(ctx, key, 0, func(ctx context.Context, b *backend) error {
		o, ok, err := b.store.Stat(ctx, key)
		if err != nil {
			return err
		}
		if !ok {
			// An honest "no such object" is an answer, not a fault: readFrom
			// must not blame the replica for it.
			return iostore.ErrNotFound
		}
		meta = o
		return nil
	})
	switch {
	case err == nil:
		return meta, true, nil
	case errors.Is(err, iostore.ErrNotFound):
		return iostore.Object{}, false, nil
	default:
		return iostore.Object{}, false, err
	}
}

// Delete implements iostore.Backend: the delete fans to every backend (an
// object may have lived on backends outside its current assignment after
// re-replication), and the first failure is returned — a leaked replica is
// a visible error now, not a silent best-effort.
func (s *Store) Delete(ctx context.Context, key iostore.Key) error {
	if s.closed.Load() {
		return errors.New("shardstore: closed")
	}
	s.mu.Lock()
	delete(s.objs, key)
	s.mu.Unlock()
	backends := s.snapshot()
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			cctx, cancel := s.callCtx(ctx)
			defer cancel()
			if err := b.store.Delete(cctx, key); err != nil && !errors.Is(err, iostore.ErrNotFound) {
				// A delete on an unreachable backend of an object that was
				// never placed there is not a leak; one holding a replica
				// is. Without an inventory we must assume the worst and
				// report it.
				errs[i] = fmt.Errorf("shardstore: delete %s on %s: %w", key, b.name, err)
				s.blame(ctx, b)
			}
		}(i, b)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// inventory merges a per-backend listing across the shard set. The merge
// errors only when the unreachable-backend count reaches R: below that,
// every object still has at least one reachable replica, so the union is
// complete — "one replica unreachable" must not read as "level
// unavailable" to the restart-line planner.
func (s *Store) inventory(ctx context.Context, list func(ctx context.Context, b *backend) ([]uint64, error)) ([]uint64, error) {
	if s.closed.Load() {
		return nil, errors.New("shardstore: closed")
	}
	backends := s.snapshot()
	ids := make([][]uint64, len(backends))
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			cctx, cancel := s.callCtx(ctx)
			defer cancel()
			out, err := list(cctx, b)
			if err != nil {
				errs[i] = err
				s.blame(ctx, b)
				return
			}
			ids[i] = out
		}(i, b)
	}
	wg.Wait()
	unreachable := 0
	var firstErr error
	for _, err := range errs {
		if err != nil {
			unreachable++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if unreachable >= s.cfg.Replicas {
		return nil, fmt.Errorf("shardstore: %d/%d backends unreachable (replication factor %d, inventory incomplete): %w",
			unreachable, len(backends), s.cfg.Replicas, firstErr)
	}
	if unreachable > 0 {
		inc(s.mInvDegraded)
	}
	seen := make(map[uint64]bool)
	var union []uint64
	for _, part := range ids {
		for _, id := range part {
			if !seen[id] {
				seen[id] = true
				union = append(union, id)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	return union, nil
}

// IDs implements iostore.Backend: the union of every reachable backend's
// listing, erroring only when ≥ R backends are unreachable (below that
// every replica set still has a reachable member, so the union is
// complete).
func (s *Store) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	return s.inventory(ctx, func(ctx context.Context, b *backend) ([]uint64, error) {
		return b.store.IDs(ctx, job, rank)
	})
}

// Latest implements iostore.Backend with IDs' merge semantics.
func (s *Store) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	ids, err := s.IDs(ctx, job, rank)
	if err != nil || len(ids) == 0 {
		return 0, false, err
	}
	return ids[len(ids)-1], true, nil
}

// Keys implements iostore.Backend: the union of every reachable backend's
// key listing, with inventory's <R unreachable tolerance.
func (s *Store) Keys(ctx context.Context) ([]iostore.Key, error) {
	if s.closed.Load() {
		return nil, errors.New("shardstore: closed")
	}
	backends := s.snapshot()
	listings := make([][]iostore.Key, len(backends))
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			cctx, cancel := s.callCtx(ctx)
			defer cancel()
			out, err := b.store.Keys(cctx)
			if err != nil {
				errs[i] = err
				s.blame(ctx, b)
				return
			}
			listings[i] = out
		}(i, b)
	}
	wg.Wait()
	unreachable := 0
	var firstErr error
	for _, err := range errs {
		if err != nil {
			unreachable++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if unreachable >= s.cfg.Replicas {
		return nil, fmt.Errorf("shardstore: %d/%d backends unreachable (replication factor %d, inventory incomplete): %w",
			unreachable, len(backends), s.cfg.Replicas, firstErr)
	}
	if unreachable > 0 {
		inc(s.mInvDegraded)
	}
	seen := make(map[iostore.Key]bool)
	var union []iostore.Key
	for _, part := range listings {
		for _, k := range part {
			if !seen[k] {
				seen[k] = true
				union = append(union, k)
			}
		}
	}
	iostore.SortKeys(union)
	return union, nil
}

// repairLoop probes unhealthy backends and re-replicates under-replicated
// objects every Probe interval until Close.
func (s *Store) repairLoop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Probe)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Probe)
		_, _ = s.Rereplicate(ctx)
		cancel()
	}
}

// probe re-checks every unhealthy backend with a cheap inventory call and
// reports how many rejoined. Re-admission is damped: a backend must answer
// RejoinProbes *consecutive* probes before it counts as healthy again. One
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
		if b.probeStreak.Add(1) < int32(s.cfg.RejoinProbes) {
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

// Rereplicate probes unhealthy backends, then copies every tracked
// under-replicated object — and every object whose sticky set references a
// now-unhealthy backend — back up to R reachable replicas. It returns the
// number of objects restored to full replication. The background repair
// loop calls it on every Probe tick; tests and operators can drive it
// explicitly.
func (s *Store) Rereplicate(ctx context.Context) (int, error) {
	if s.closed.Load() {
		return 0, errors.New("shardstore: closed")
	}
	s.probe(ctx)

	// Snapshot the keys needing work; the per-object repair re-checks
	// under the lock.
	s.mu.Lock()
	var todo []iostore.Key
	for key, st := range s.objs {
		needs := st.under
		for _, b := range st.replicas {
			if !b.healthy.Load() {
				needs = true
			}
		}
		if needs {
			todo = append(todo, key)
		}
	}
	s.mu.Unlock()

	fixed := 0
	var firstErr error
	for _, key := range todo {
		if err := ctx.Err(); err != nil {
			return fixed, err
		}
		ok, err := s.repairObject(ctx, key)
		if err != nil {
			inc(s.mRepairErrs)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			fixed++
			inc(s.mRereplicated)
		}
	}
	return fixed, firstErr
}

// repairObject restores one object to R healthy replicas: verify which
// assigned replicas actually hold it, read it from one of them, and copy
// it to the next-ranked healthy backends until R copies exist. It reports
// whether the object transitioned back to fully replicated.
func (s *Store) repairObject(ctx context.Context, key iostore.Key) (bool, error) {
	holders := make(map[*backend]bool)
	for _, b := range s.replicasOf(key) {
		if !b.healthy.Load() {
			continue
		}
		cctx, cancel := s.callCtx(ctx)
		_, ok, err := b.store.Stat(cctx, key)
		cancel()
		if err == nil && ok {
			holders[b] = true
		}
	}
	if len(holders) == 0 {
		// The tracked replicas lost it (or are all down): scan the whole
		// set — re-replication by another client, or a rejoined backend,
		// may hold a copy.
		for _, b := range s.ranking(key) {
			if holders[b] || !b.healthy.Load() {
				continue
			}
			cctx, cancel := s.callCtx(ctx)
			_, ok, err := b.store.Stat(cctx, key)
			cancel()
			if err == nil && ok {
				holders[b] = true
				break
			}
		}
	}
	if len(holders) == 0 {
		return false, fmt.Errorf("shardstore: repair %s: no reachable replica holds the object", key)
	}

	// Copy to the best-ranked healthy non-holders until R copies exist.
	var src *backend
	for b := range holders {
		src = b
		break
	}
	var obj iostore.Object
	loaded := false
	for _, b := range s.ranking(key) {
		if len(holders) >= s.cfg.Replicas {
			break
		}
		// Copy targets must be eligible: repairing an object *onto* a
		// draining backend is work the drain controller immediately
		// undoes. (Draining holders still count and serve as sources.)
		if holders[b] || !b.healthy.Load() || !b.eligible() {
			continue
		}
		if !loaded {
			cctx, cancel := s.callCtx(ctx)
			o, err := src.store.Get(cctx, key)
			cancel()
			if err != nil {
				return false, fmt.Errorf("shardstore: repair %s: read from %s: %w", key, src.name, err)
			}
			obj, loaded = o, true
			obj.Key = key
		}
		cctx, cancel := s.callCtx(ctx)
		err := b.store.Put(cctx, obj)
		cancel()
		if err != nil {
			s.blame(ctx, b)
			continue
		}
		holders[b] = true
	}

	// Install the verified holder set as the new sticky assignment.
	s.mu.Lock()
	st, ok := s.objs[key]
	if !ok {
		st = &objState{}
		s.objs[key] = st
	}
	st.replicas = st.replicas[:0]
	for _, b := range rankingOf(s.backends, key) { // deterministic order
		if holders[b] {
			st.replicas = append(st.replicas, b)
		}
	}
	full := len(st.replicas) >= s.cfg.Replicas
	st.under = !full
	s.mu.Unlock()
	if !full {
		return false, fmt.Errorf("shardstore: repair %s: only %d/%d replicas placeable",
			key, len(holders), s.cfg.Replicas)
	}
	return true, nil
}

// ReplicaCount reports how many backends currently hold an intact copy of
// key (tests assert re-replication restored R).
func (s *Store) ReplicaCount(ctx context.Context, key iostore.Key) int {
	n := 0
	for _, b := range s.snapshot() {
		cctx, cancel := s.callCtx(ctx)
		_, ok, err := b.store.Stat(cctx, key)
		cancel()
		if err == nil && ok {
			n++
		}
	}
	return n
}

// MarkUnhealthy force-marks a backend unhealthy by name (tests, operator
// tooling); the probe loop re-admits it when it answers again.
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

// Close stops the repair loop and the membership watcher, then tears down
// every backend connection.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.runCancel()
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
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
