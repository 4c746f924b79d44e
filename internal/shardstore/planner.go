package shardstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/node/iostore"
)

// Repair, join backfill and drain-off are one algorithm, run by the
// controller goroutine (watcher, membership.go) and by RepairInventory:
// verify who holds a key whole (Store.verify — never a Keys listing, never
// this process's memory of what it wrote), plan by comparing those holders
// with the HRW placement the current member set implies (planKey, place),
// move block by block under the write-generation guard (moveKey). Which keys
// a pass looks at is a parameter (keySource), not a second path.

// keyPlan is the planned work for one object: copy it to adds (from one of
// sources), then — only if every add landed — delete it from removes.
type keyPlan struct {
	key     iostore.Key
	meta    iostore.Object // the holders' StatBlocks answer: metadata, no payload…
	blocks  int            // …and how many blocks a whole copy has
	sources []*backend     // healthy verified holders, preferred read order
	adds    []*backend     // desired homes without a whole copy
	torn    []*backend     // backends holding a torn copy (an add among them is completed in place)
	removes []*backend     // draining holders and stray torn copies to delete afterwards
}

func (kp keyPlan) idle() bool { return len(kp.adds) == 0 && len(kp.removes) == 0 }

// keySource names the keys one pass looks at, each with the backends that
// may hold it, and whether some member's holdings are out of its sight.
type keySource func(ctx context.Context) (cands map[iostore.Key][]*backend, blind bool, err error)

// listedKeys is the inventory source: every key any member lists, with the
// members that list it (gather's ≥ R unreachable rule: past that a listing
// may be missing live objects, and planning deletes against it is refused).
func (s *Store) listedKeys(ctx context.Context) (map[iostore.Key][]*backend, bool, error) {
	backends, listings, unreachable, err := gather(ctx, s, func(ctx context.Context, b *backend) ([]iostore.Key, error) {
		return b.store.Keys(ctx)
	})
	cands := make(map[iostore.Key][]*backend)
	for i, keys := range listings {
		for _, k := range keys {
			cands[k] = append(cands[k], backends[i])
		}
	}
	return cands, unreachable > 0, err
}

// suspectKeys is the background source: the keys this client tracks whose
// sticky set is short of R or names an unhealthy member, each with every
// healthy member as a candidate (an unhealthy one can be neither source nor
// target, and asking a dead one costs a CallTimeout per key). The scoping is
// deliberate: every process (a gateway, a cluster rank) runs its own client
// over shared iod servers, and a background pass over the whole inventory
// on every one would have N processes racing to repair each other's objects.
func (s *Store) suspectKeys(context.Context) (map[iostore.Key][]*backend, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unhealthy := func(b *backend) bool { return !b.healthy.Load() }
	healthy := slices.DeleteFunc(slices.Clone(s.backends), unhealthy)
	cands := make(map[iostore.Key][]*backend)
	for key, st := range s.objs {
		if len(st.replicas) < s.cfg.Replicas || slices.ContainsFunc(st.replicas, unhealthy) {
			cands[key] = healthy
		}
	}
	return cands, len(healthy) < len(s.backends), nil
}

// sortedKeys lists a source's keys in the canonical (job, rank, ID) order.
func sortedKeys(cands map[iostore.Key][]*backend) []iostore.Key {
	keys := make([]iostore.Key, 0, len(cands))
	for k := range cands {
		keys = append(keys, k)
	}
	iostore.SortKeys(keys)
	return keys
}

// plan builds the work list for source's keys, in key order. A pass whose
// context ends mid-way is abandoned; the sets it verified stay installed, so
// the next pass resumes rather than restarts.
func (s *Store) plan(ctx context.Context, source keySource) ([]keyPlan, error) {
	cands, blind, err := source(ctx)
	if err != nil {
		return nil, err
	}
	backends := s.snapshot()
	var plan []keyPlan
	for _, key := range sortedKeys(cands) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if kp := s.planKey(ctx, backends, key, cands[key], blind); !kp.idle() {
			plan = append(plan, kp)
		}
	}
	return plan, nil
}

// planKey verifies one key's candidates and plans its moves. A key whose
// candidates are exactly the sticky set this client wrote, moved or verified
// earlier, and which needs nothing, is not re-statted: a settled tier costs a
// pass its listings and nothing more. A fresh client pays candidates ×
// StatBlocks once per key, and installs what it verified.
func (s *Store) planKey(ctx context.Context, backends []*backend, key iostore.Key, cands []*backend, blind bool) keyPlan {
	gen, _, tracked := s.genOf(key)
	if sameSet(s.replicasOf(key), cands) {
		if kp := s.place(backends, key, cands, nil, blind); kp.idle() {
			return kp
		}
	}
	c := s.verify(ctx, key, cands)
	blind = blind || c.err != nil
	kp := s.place(backends, key, c.whole, c.torn, blind)
	kp.meta, kp.blocks = c.meta, c.blocks
	if len(c.whole) == 0 && !blind {
		// Every member answered and none holds it: another client deleted
		// the object. Nothing to copy from, nothing to keep tracking.
		kp.adds = nil
	}
	if kp.idle() {
		s.installAssignment(key, kp.sources, gen, tracked)
	}
	return kp
}

// sameSet reports whether a and b (neither repeats a member) hold the same
// backends.
func sameSet(a, b []*backend) bool {
	return len(a) == len(b) && !slices.ContainsFunc(a, func(x *backend) bool { return !slices.Contains(b, x) })
}

// place decides one object's moves from its verified copies. Desired
// placement is the top R healthy+eligible backends in HRW order. An unhealthy
// eligible backend is never a copy target (the copy would just fail); if that
// leaves fewer than R homes the key stays partially placed and a later pass
// finishes the job after the backend heals. Whole copies outside the desired
// set are dropped only when draining (surplus copies on active backends are
// harmless — Delete fans everywhere — but a draining backend must end empty);
// torn copies outside it are garbage wherever they are.
func (s *Store) place(backends []*backend, key iostore.Key, whole, torn []*backend, blind bool) keyPlan {
	kp := keyPlan{key: key, torn: torn}
	rank := rankingOf(backends, key)
	var desired []*backend
	for _, b := range rank {
		if len(desired) >= s.cfg.Replicas {
			break
		}
		if b.eligible() && b.healthy.Load() {
			desired = append(desired, b)
		}
	}
	safeCopies := 0
	for _, b := range desired {
		if slices.Contains(whole, b) {
			safeCopies++
		} else {
			kp.adds = append(kp.adds, b)
		}
	}
	// Preferred read order for the copy source: healthy holders first.
	for _, b := range rank {
		if slices.Contains(whole, b) && b.healthy.Load() {
			kp.sources = append(kp.sources, b)
		}
	}
	for _, b := range whole {
		if !b.eligible() { // draining: must end empty
			kp.removes = append(kp.removes, b)
		}
	}
	for _, b := range torn {
		if !slices.Contains(desired, b) {
			kp.removes = append(kp.removes, b)
		}
	}
	// A drop is only safe when, after the planned adds land, at least R
	// whole copies live on the desired homes (Decommission guarantees R
	// eligible homes remain, so a stalled drain means an unhealthy home,
	// not an impossible one). A member the pass could not see might be a
	// holder we are counting on — hold the drops until every one answers.
	if blind || safeCopies+len(kp.adds) < s.cfg.Replicas {
		kp.removes = nil
	}
	return kp
}

// executePlan runs the plan's per-key copy/drop work, at most moverBudget
// objects in flight at once. Failed keys are retried by the controller's
// next pass.
func (s *Store) executePlan(ctx context.Context, plan []keyPlan) (moved, dropped int, err error) {
	var (
		mu sync.Mutex // guards the three results while movers run
		wg sync.WaitGroup
	)
	sem := make(chan struct{}, moverBudget)
	for _, kp := range plan {
		select {
		case <-ctx.Done():
		case sem <- struct{}{}:
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			m, d, moveErr := s.moveKey(ctx, kp)
			mu.Lock()
			moved += m
			dropped += d
			if err == nil {
				err = moveErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	if s.mMoved != nil { // Instrument sets both
		s.mMoved.Add(uint64(moved))
		s.mRebalDropped.Add(uint64(dropped))
	}
	if moved > 0 || dropped > 0 {
		s.emit(Event{Kind: EventRebalanced, Moved: moved, Dropped: dropped})
	}
	return moved, dropped, err
}

// moveKey executes one keyPlan. The ordering is what makes a move safe
// against an in-flight multi-block write stream of the same object:
//
//  1. Record the key's write generation — voiding outright if any write
//     is in flight — then stream the object's blocks from a verified
//     holder to every add. The stream (if any) keeps writing to the *old*
//     replica set the whole time, so the copy targets never receive
//     interleaved direct writes — the copy is either a faithful replica
//     of what was verified or cleaned up below.
//  2. Re-stat the source: if the object grew while we copied, a stream
//     raced us and the copy is a prefix — void the move.
//  3. Install the post-move sticky assignment if and only if the write
//     generation is unchanged and no write is in flight (checked under
//     the same lock writers bump them, so no block write can slip
//     between the check and the install). From here on stream blocks
//     land on the new set directly.
//  4. Only then delete from the removes.
//
// A voided move deletes the copies it created, not a torn copy it was
// completing: that one may be another process's in-flight stream, and
// same-index PutBlocks of the same bytes are idempotent. Targets in the key's
// *live* replica set are skipped too: a writer installed them and owns the
// data there now. The void is cheap — the controller's next pass replans and
// recopies once the stream has quiesced.
func (s *Store) moveKey(ctx context.Context, kp keyPlan) (moved, dropped int, err error) {
	fail := func(err error) (int, int, error) {
		inc(s.mMoveErrs)
		s.emit(Event{Kind: EventMoveFailed, Err: err})
		return moved, dropped, err
	}
	void := func(err error) (int, int, error) {
		live := s.replicasOf(kp.key)
		for _, dst := range kp.adds {
			if !slices.Contains(kp.torn, dst) && !slices.Contains(live, dst) {
				s.deleteCopy(ctx, dst, kp.key)
			}
		}
		return fail(err)
	}
	if s.cfg.MoveFault != nil {
		if err := s.cfg.MoveFault(kp.key); err != nil {
			return fail(fmt.Errorf("shardstore: move %s: %w", kp.key, err))
		}
	}
	genBefore, busy, tracked := s.genOf(kp.key)
	if busy {
		// A block write is in flight against the pre-move replica set: the
		// windowed writes land out of order, so what was verified is already
		// stale. Void cheaply before copying anything; the controller
		// retries after the stream quiesces.
		return fail(fmt.Errorf("shardstore: move %s: write stream in flight, voiding", kp.key))
	}
	if len(kp.adds) > 0 {
		if len(kp.sources) == 0 {
			return fail(fmt.Errorf("shardstore: move %s: no reachable replica holds the object", kp.key))
		}
		passed, err := s.copyBlocks(ctx, kp)
		if err != nil {
			return void(err)
		}
		// The sources the copy had to pass over are torn or unreachable.
		kp.sources = kp.sources[passed:]
		cctx, cancel := s.callCtx(ctx)
		_, n, ok, statErr := kp.sources[0].store.StatBlocks(cctx, kp.key)
		cancel()
		if statErr == nil && ok && n != kp.blocks {
			return void(fmt.Errorf("shardstore: move %s: object grew %d -> %d blocks mid-copy", kp.key, kp.blocks, n))
		}
	}
	holders := slices.DeleteFunc(slices.Concat(kp.adds, kp.sources), func(b *backend) bool {
		return slices.Contains(kp.removes, b)
	})
	if !s.installAssignment(kp.key, holders, genBefore, tracked) {
		return void(fmt.Errorf("shardstore: move %s: a write stream raced the copy, voiding", kp.key))
	}
	moved = len(kp.adds)
	// All adds landed and the assignment switched: the plan already proved
	// R whole copies exist on the desired homes, so the drops are safe, and
	// no future block write routes to them.
	for _, b := range kp.removes {
		if err := s.deleteCopy(ctx, b, kp.key); err != nil {
			return fail(fmt.Errorf("shardstore: drop %s from %s: %w", kp.key, b.name, err))
		}
		dropped++
	}
	return moved, dropped, nil
}

// deleteCopy deletes b's copy of key (already absent is fine), blaming b if
// it cannot.
func (s *Store) deleteCopy(ctx context.Context, b *backend, key iostore.Key) error {
	cctx, cancel := s.callCtx(ctx)
	defer cancel()
	err := b.store.Delete(cctx, key)
	if err == nil || errors.Is(err, iostore.ErrNotFound) {
		return nil
	}
	s.blame(ctx, b)
	return err
}

// genOf reads key's current write generation and whether any write is in
// flight right now (tracked=false when this client has no assignment for
// it).
func (s *Store) genOf(key iostore.Key) (gen uint64, busy, tracked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.objs[key]; ok {
		return st.gen, st.writers > 0, true
	}
	return 0, false, false
}

// copyBlocks lands kp's object on every add, one block at a time — the
// mover never buffers an object — and returns how many sources it had to
// pass over. A source that answers "absent" for a block is torn after all
// and one that errors is blamed; either way the copy carries on from the
// next source, and fails when none is left: a torn source cannot complete a
// copy, by construction.
func (s *Store) copyBlocks(ctx context.Context, kp keyPlan) (passed int, err error) {
	// land writes one piece of the object on every add.
	land := func(write func(ctx context.Context, dst *backend) error) error {
		for _, dst := range kp.adds {
			cctx, cancel := s.callCtx(ctx)
			err := write(cctx, dst)
			cancel()
			if err != nil {
				s.blame(ctx, dst)
				return fmt.Errorf("shardstore: move %s to %s: %w", kp.key, dst.name, err)
			}
		}
		return nil
	}
	meta := kp.meta
	meta.Key = kp.key
	if kp.blocks == 0 {
		// No write makes an object without a block (iostore.Put refuses one),
		// and a copy of nothing would not be a replica.
		return 0, fmt.Errorf("shardstore: move %s: the source holds no blocks", kp.key)
	}
	for i := 0; i < kp.blocks; i++ {
		var blk []byte
		for {
			src := kp.sources[passed]
			cctx, cancel := s.callCtx(ctx)
			blk, err = src.store.GetBlock(cctx, kp.key, i)
			cancel()
			if err == nil {
				break
			}
			if !errors.Is(err, iostore.ErrNotFound) {
				s.blame(ctx, src)
			}
			if passed++; passed == len(kp.sources) {
				return passed, fmt.Errorf("shardstore: move %s: block %d from %s: %w", kp.key, i, src.name, err)
			}
		}
		err = land(func(ctx context.Context, dst *backend) error {
			return dst.store.PutBlock(ctx, kp.key, meta, i, blk)
		})
		blockpool.Put(blk) // the mover fetched it; no PutBlock reads it once returned
		if err != nil {
			return passed, err
		}
	}
	return passed, nil
}

// installAssignment commits holders as key's sticky replica set, so that
// later block writes of the object land where the plan put it, reads are
// dealt to whole copies only, and the next pass need not verify them again;
// an object nobody holds is not tracked. It reports false (and changes
// nothing) if a writer raced the caller: the write generation moved past
// genBefore, or — for a key found untracked — a writer created an assignment
// meanwhile. The check happens under the lock writeSnapshot bumps them with,
// so every block write either predates the install (and voids it) or routes
// to the installed set.
func (s *Store) installAssignment(key iostore.Key, holders []*backend, genBefore uint64, tracked bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.objs[key]
	if ok != tracked || ok && (st.gen != genBefore || st.writers != 0) {
		return false
	}
	if len(holders) == 0 {
		delete(s.objs, key)
		return true
	}
	if !ok {
		st = &objState{}
		s.objs[key] = st
	}
	st.replicas = st.replicas[:0]
	for _, b := range rankingOf(s.backends, key) { // deterministic order
		if slices.Contains(holders, b) {
			st.replicas = append(st.replicas, b)
		}
	}
	return true
}

// RepairInventory probes unhealthy backends, then runs one verify → plan →
// move pass over the merged store inventory and returns how many object
// copies it created. It is restart-blind — a fresh client over a degraded
// store heals what earlier processes wrote — and the single explicit entry
// point: tests, the chaos experiments and the gateway's admin endpoint
// drive it, and the controller runs the same pass after a membership change.
func (s *Store) RepairInventory(ctx context.Context) (int, error) {
	if s.closed.Load() {
		return 0, errors.New("shardstore: closed")
	}
	s.probe(ctx)
	plan, err := s.plan(ctx, s.listedKeys)
	if err != nil {
		return 0, err
	}
	moved, _, err := s.executePlan(ctx, plan)
	return moved, err
}
