package shardstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ndpcr/internal/node/iostore"
)

// The rebalance planner computes key moves from the *store inventory* — the
// union of every backend's Keys listing — not from the in-memory sticky
// assignment map. The distinction matters after a client restart: the objs
// map starts empty, so Rereplicate (which walks objs) cannot see, let alone
// repair, anything written by the previous process. The planner can: it
// asks the backends what they actually hold, compares that against the HRW
// placement the current member set implies, and schedules copies until
// every key has R replicas on eligible backends — and deletes to empty
// draining backends once those copies are confirmed.

// keyPlan is the planned work for one object: copy it to adds (from one of
// sources), then — only if every add landed — delete it from removes.
type keyPlan struct {
	key     iostore.Key
	sources []*backend // reachable holders, preferred read order
	adds    []*backend // desired holders currently missing the object
	removes []*backend // draining/drained holders to empty afterwards
}

// Plan is one rebalance schedule. Opaque outside the package: tests and
// operators observe it through Summary counts.
type Plan struct {
	keys []keyPlan
	// degraded counts backends whose inventory was unreachable (the plan
	// skips drops that their unknown holdings could make unsafe).
	degraded int
}

// Summary reports the plan's size: objects to copy, replicas to drop.
func (p *Plan) Summary() (moves, drops int) {
	for _, kp := range p.keys {
		moves += len(kp.adds)
		drops += len(kp.removes)
	}
	return moves, drops
}

// PlanRebalance builds a rebalance plan from the live store inventory. It
// tolerates up to R-1 unreachable backends (every key still has a
// reachable replica, so the union is complete); at R the inventory is
// incomplete and planning fails rather than scheduling deletes against a
// listing that may be missing live objects.
func (s *Store) PlanRebalance(ctx context.Context) (*Plan, error) {
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
			keys, err := b.store.Keys(cctx)
			if err != nil {
				errs[i] = err
				s.blame(ctx, b)
				return
			}
			listings[i] = keys
		}(i, b)
	}
	wg.Wait()

	unreachable := 0
	var firstErr error
	reachable := make(map[*backend]bool, len(backends))
	for i, err := range errs {
		if err != nil {
			unreachable++
			if firstErr == nil {
				firstErr = fmt.Errorf("shardstore: inventory on %s: %w", backends[i].name, err)
			}
			continue
		}
		reachable[backends[i]] = true
	}
	if unreachable >= s.cfg.Replicas {
		return nil, fmt.Errorf("shardstore: %d/%d backends unreachable (replication factor %d, inventory incomplete): %w",
			unreachable, len(backends), s.cfg.Replicas, firstErr)
	}
	if unreachable > 0 {
		inc(s.mInvDegraded)
	}

	holders := make(map[iostore.Key][]*backend)
	for i, keys := range listings {
		for _, k := range keys {
			holders[k] = append(holders[k], backends[i])
		}
	}

	plan := &Plan{degraded: unreachable}
	for key, hs := range holders {
		kp := s.planKey(backends, key, hs, unreachable)
		if len(kp.adds) > 0 || len(kp.removes) > 0 {
			plan.keys = append(plan.keys, kp)
		}
	}
	// Deterministic execution order (map iteration above is not).
	sort.Slice(plan.keys, func(i, j int) bool {
		a, b := plan.keys[i].key, plan.keys[j].key
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.ID < b.ID
	})
	return plan, nil
}

// planKey decides one object's moves. Desired placement is the top R
// healthy+eligible backends in HRW order; holders outside that set are
// dropped only when draining (surplus copies on active backends are
// harmless — Delete fans everywhere — but a draining backend must end
// empty).
func (s *Store) planKey(backends []*backend, key iostore.Key, hs []*backend, degraded int) keyPlan {
	kp := keyPlan{key: key}
	holding := make(map[*backend]bool, len(hs))
	for _, b := range hs {
		holding[b] = true
	}
	// Desired placement: top-R healthy eligible homes. An unhealthy
	// eligible backend is never a copy target (the copy would just fail);
	// if that leaves fewer than R homes the key stays partially placed and
	// the watcher's next pass finishes the job after the backend heals.
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
		if holding[b] {
			safeCopies++
		} else {
			kp.adds = append(kp.adds, b)
		}
	}
	// Preferred read order for the copy source: healthy holders first.
	for _, b := range rank {
		if holding[b] && b.healthy.Load() {
			kp.sources = append(kp.sources, b)
		}
	}
	for _, b := range hs {
		switch b.memberState() {
		case StateDraining, StateDrained:
			kp.removes = append(kp.removes, b)
		}
	}
	// A drop is only safe when, after the planned adds land, at least R
	// copies live outside the draining holders (Decommission guarantees R
	// eligible homes remain, so a stalled drain means an unhealthy home,
	// not an impossible one). With a degraded inventory an unlisted
	// backend might be a holder we are counting on — hold the drops until
	// every backend answers.
	if degraded > 0 || safeCopies+len(kp.adds) < s.cfg.Replicas {
		kp.removes = nil
	}
	return kp
}

// executePlan runs the plan's per-key copy/drop work, at most MoverBudget
// objects in flight at once. Each key: read the object from a holder, copy
// it to every missing desired replica, and only if all copies landed delete
// it from the draining holders; the sticky assignment is then reinstalled
// from the verified holder set. Failed keys are retried by the watcher's
// next pass.
func (s *Store) executePlan(ctx context.Context, plan *Plan) (moved, dropped int, err error) {
	if len(plan.keys) == 0 {
		return 0, 0, nil
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, s.cfg.MoverBudget)
	for i := range plan.keys {
		kp := plan.keys[i]
		select {
		case <-ctx.Done():
			return moved, dropped, ctx.Err()
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			m, d, err := s.moveKey(ctx, kp)
			mu.Lock()
			moved += m
			dropped += d
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if s.mMoved != nil {
		s.mMoved.Add(uint64(moved))
	}
	if s.mRebalDropped != nil {
		s.mRebalDropped.Add(uint64(dropped))
	}
	return moved, dropped, firstErr
}

// moveKey executes one keyPlan. The ordering is what makes a move safe
// against an in-flight multi-block write stream of the same object:
//
//  1. Record the key's write generation — voiding outright if any write
//     is in flight — then snapshot the object from a holder and copy it
//     to every missing desired replica. The stream (if any) keeps
//     writing to the *old* replica set the whole time, so the copy
//     targets never receive interleaved direct writes — the copy is
//     either a faithful replica of the snapshot or cleaned up below.
//  2. Re-stat the source: if the object grew while we copied, a stream
//     raced us and the snapshot is a prefix — void the move.
//  3. Install the post-move sticky assignment if and only if the write
//     generation is unchanged and no write is in flight (checked under
//     the same lock writers bump them, so no block write can slip
//     between the check and the install). From here on stream blocks
//     land on the new set directly.
//  4. Only then delete from the draining holders.
//
// A voided move deletes whatever it copied: a half-copied object must not
// be listed by the target's inventory, or the next planning pass would
// trust it as a full replica. The void is cheap — the watcher's next pass
// replans and recopies once the stream has quiesced.
func (s *Store) moveKey(ctx context.Context, kp keyPlan) (moved, dropped int, err error) {
	fail := func(err error) (int, int, error) {
		inc(s.mMoveErrs)
		s.emit(Event{Kind: EventMoveFailed, Err: err})
		return moved, dropped, err
	}
	if s.cfg.MoveFault != nil {
		if err := s.cfg.MoveFault(kp.key); err != nil {
			return fail(fmt.Errorf("shardstore: move %s: %w", kp.key, err))
		}
	}
	genBefore, busy, tracked := s.genOf(kp.key)
	if busy {
		// A block write is in flight against the pre-move replica set; a
		// snapshot taken now could carry a transient nil-padded gap (the
		// NDP sender's windowed writes land out of order). Void cheaply
		// before copying anything; the watcher retries after the stream
		// quiesces.
		return fail(fmt.Errorf("shardstore: move %s: write stream in flight, voiding", kp.key))
	}
	copied := 0
	if len(kp.adds) > 0 {
		if len(kp.sources) == 0 {
			return fail(fmt.Errorf("shardstore: move %s: no reachable replica holds the object", kp.key))
		}
		var obj iostore.Object
		var src *backend
		var readErr error
		for _, cand := range kp.sources {
			cctx, cancel := s.callCtx(ctx)
			o, err := cand.store.Get(cctx, kp.key)
			cancel()
			if err != nil {
				readErr = fmt.Errorf("shardstore: move %s: read from %s: %w", kp.key, cand.name, err)
				s.blame(ctx, cand)
				continue
			}
			obj, src = o, cand
			obj.Key = kp.key
			break
		}
		if src == nil {
			return fail(readErr)
		}
		meta := obj
		meta.Blocks = nil
		for _, dst := range kp.adds {
			if err := s.copyObject(ctx, dst, obj, meta); err != nil {
				s.blame(ctx, dst)
				s.cleanupAdds(ctx, kp)
				return fail(fmt.Errorf("shardstore: move %s to %s: %w", kp.key, dst.name, err))
			}
			copied++
		}
		cctx, cancel := s.callCtx(ctx)
		_, n, ok, statErr := src.store.StatBlocks(cctx, kp.key)
		cancel()
		if statErr == nil && ok && n != len(obj.Blocks) {
			s.cleanupAdds(ctx, kp)
			return fail(fmt.Errorf("shardstore: move %s: object grew %d -> %d blocks mid-copy",
				kp.key, len(obj.Blocks), n))
		}
	}
	if !s.installAssignment(kp, genBefore, tracked) {
		s.cleanupAdds(ctx, kp)
		return fail(fmt.Errorf("shardstore: move %s: a write stream raced the copy, voiding", kp.key))
	}
	moved += copied
	// All adds landed and the assignment switched: the planner already
	// proved R copies exist outside the draining holders, so the drops
	// are safe, and no future block write routes to them.
	for _, src := range kp.removes {
		cctx, cancel := s.callCtx(ctx)
		err := src.store.Delete(cctx, kp.key)
		cancel()
		if err != nil && !errors.Is(err, iostore.ErrNotFound) {
			s.blame(ctx, src)
			return fail(fmt.Errorf("shardstore: drop %s from %s: %w", kp.key, src.name, err))
		}
		dropped++
	}
	return moved, dropped, nil
}

// genOf reads key's current write generation and whether any write is in
// flight right now (tracked=false when no writer in this process has an
// assignment for it).
func (s *Store) genOf(key iostore.Key) (gen uint64, busy, tracked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.objs[key]; ok {
		return st.gen, st.writers > 0, true
	}
	return 0, false, false
}

// cleanupAdds deletes a voided move's partial copies from its targets so
// their inventory listings stay truthful. Targets that are in the key's
// *live* replica set are skipped: a writer installed them and owns the
// data there now.
func (s *Store) cleanupAdds(ctx context.Context, kp keyPlan) {
	live := make(map[*backend]bool)
	for _, b := range s.replicasOf(kp.key) {
		live[b] = true
	}
	for _, dst := range kp.adds {
		if live[dst] {
			continue
		}
		cctx, cancel := s.callCtx(ctx)
		err := dst.store.Delete(cctx, kp.key)
		cancel()
		if err != nil && !errors.Is(err, iostore.ErrNotFound) {
			s.blame(ctx, dst)
		}
	}
}

// copyObject lands one object replica on dst. Multi-block objects copy
// block-by-block (idempotent per index, safe under a concurrent stream);
// blockless objects fall back to a whole-object Put.
func (s *Store) copyObject(ctx context.Context, dst *backend, obj, meta iostore.Object) error {
	if len(obj.Blocks) == 0 {
		cctx, cancel := s.callCtx(ctx)
		defer cancel()
		return dst.store.Put(cctx, obj)
	}
	for i, blk := range obj.Blocks {
		cctx, cancel := s.callCtx(ctx)
		err := dst.store.PutBlock(cctx, obj.Key, meta, i, blk)
		cancel()
		if err != nil {
			return err
		}
	}
	return nil
}

// installAssignment commits the post-move sticky replica set, so that
// subsequent block writes of the object land where the planner put it —
// and so a restart-blind repair leaves the in-memory map agreeing with
// the stores. It reports false (and installs nothing) if a writer raced
// the move: the write generation moved past genBefore, or — for a key the
// mover found untracked — a writer created an assignment mid-copy. The
// generation check happens under the same lock writeSnapshot bumps it, so
// every block write either predates the install (and voids it) or routes
// to the post-move set.
func (s *Store) installAssignment(kp keyPlan, genBefore uint64, tracked bool) bool {
	removed := make(map[*backend]bool, len(kp.removes))
	for _, b := range kp.removes {
		removed[b] = true
	}
	holders := make(map[*backend]bool, len(kp.sources)+len(kp.adds))
	for _, b := range kp.sources {
		if !removed[b] {
			holders[b] = true
		}
	}
	for _, b := range kp.adds {
		holders[b] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.objs[kp.key]
	if tracked {
		if !ok || st.gen != genBefore || st.writers != 0 {
			return false
		}
	} else {
		if ok {
			return false
		}
		st = &objState{}
		s.objs[kp.key] = st
	}
	st.replicas = st.replicas[:0]
	for _, b := range rankingOf(s.backends, kp.key) { // deterministic order
		if holders[b] {
			st.replicas = append(st.replicas, b)
		}
	}
	st.under = len(st.replicas) < s.cfg.Replicas
	return true
}

// RepairInventory runs one inventory-driven plan→execute cycle and returns
// how many object copies were created. Unlike Rereplicate — which only
// walks the in-memory assignment map — this discovers and repairs
// under-replicated objects written by *previous* processes: a fresh client
// over a degraded store heals it. Operators reach this through the
// gateway's admin endpoint; the membership watcher runs the same cycle.
func (s *Store) RepairInventory(ctx context.Context) (int, error) {
	plan, err := s.PlanRebalance(ctx)
	if err != nil {
		return 0, err
	}
	moved, _, err := s.executePlan(ctx, plan)
	return moved, err
}
