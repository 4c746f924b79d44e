package shardstore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"ndpcr/internal/iod"
	"ndpcr/internal/node/iostore"
)

// Dynamic membership: backends can be added to and decommissioned from a
// live shard set. Each backend runs a small state machine —
//
//	joining ──backfill done──▶ active ──Decommission──▶ draining
//	                                                        │
//	                              removed ◀── drained ◀─────┘ (store empty)
//
// — driven by the controller goroutine (watcher), the one goroutine a Store
// owns and the only thing that migrates data. After a membership change it
// runs the repair pass (planner.go) over the *store inventory*, so it
// rebalances objects this client has never written — including everything
// written before a client restart; on the probe tick it probes unhealthy
// members and runs the same pass over the keys this client tracks that are
// short of R. A draining backend gives up a replica only after R whole copies
// are confirmed elsewhere, so a crash mid-drain never drops the last copy.

// MemberState is a backend's membership state. The zero value is
// StateActive: backends present at construction are full members.
type MemberState int32

const (
	// StateActive members hold replicas and take new assignments.
	StateActive MemberState = iota
	// StateJoining members take new assignments while the watcher
	// backfills the keys they now win under HRW; they become active once
	// the backfill drains.
	StateJoining
	// StateDraining members serve reads and in-flight sticky writes but
	// take no new assignments; the watcher is migrating their replicas
	// off.
	StateDraining
	// StateDrained members hold nothing and are about to be removed from
	// the set. The state is observable only through events/metrics — the
	// backend leaves Members() in the same pass.
	StateDrained
)

func (st MemberState) String() string {
	switch st {
	case StateActive:
		return "active"
	case StateJoining:
		return "joining"
	case StateDraining:
		return "draining"
	case StateDrained:
		return "drained"
	default:
		return fmt.Sprintf("MemberState(%d)", int32(st))
	}
}

// EventKind labels a membership/rebalance progress event.
type EventKind string

const (
	// EventJoined: a backend entered the set in the joining state.
	EventJoined EventKind = "joined"
	// EventActivated: a joining backend finished its backfill.
	EventActivated EventKind = "activated"
	// EventDraining: a decommission was accepted; migration is starting.
	EventDraining EventKind = "draining"
	// EventDrained: a draining backend is empty and has been removed.
	EventDrained EventKind = "drained"
	// EventRebalanced: one watcher pass finished (Moved/Dropped filled).
	EventRebalanced EventKind = "rebalanced"
	// EventMoveFailed: one object move failed (retried next pass).
	EventMoveFailed EventKind = "move-failed"
)

// Event is one membership or rebalance progress report, delivered to
// Config.OnEvent.
type Event struct {
	Kind    EventKind
	Backend string // backend the event is about ("" for pass-level events)
	Moved   int    // objects copied in this pass (EventRebalanced)
	Dropped int    // surplus/draining replicas deleted in this pass
	Err     error  // EventMoveFailed: why
}

func (s *Store) emit(ev Event) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}

// kickWatcher nudges the controller without blocking (the channel holds one
// pending kick; a second is redundant).
func (s *Store) kickWatcher() {
	select {
	case s.memberKick <- struct{}{}:
	default:
	}
}

// AddBackend adds a new member to a live shard set. The backend enters in
// the joining state — it takes new assignments immediately — and the
// watcher backfills the keys it now wins under HRW from their current
// holders; it becomes active when the backfill drains.
func (s *Store) AddBackend(m Member) error {
	if s.closed.Load() {
		return errors.New("shardstore: closed")
	}
	if m.Name == "" || m.Store == nil {
		return errors.New("shardstore: member needs a name and a store")
	}
	h := fnv.New64a()
	h.Write([]byte(m.Name))
	b := &backend{name: m.Name, store: m.Store, close: m.Close, hash: h.Sum64()}
	b.healthy.Store(true)
	b.state.Store(int32(StateJoining))
	if reg := s.reg.Load(); reg != nil {
		iostore.Instrument(m.Store, reg) // before it takes traffic
	}
	s.mu.Lock()
	for _, old := range s.backends {
		if old.name == m.Name {
			s.mu.Unlock()
			return fmt.Errorf("shardstore: duplicate backend name %q", m.Name)
		}
	}
	s.backends = append(s.backends, b)
	s.mu.Unlock()
	s.emit(Event{Kind: EventJoined, Backend: m.Name})
	s.kickWatcher()
	return nil
}

// AddBackendAddr dials addr with a pooled iod client and adds it as a
// member (the runtime path behind the gateway's admin endpoint).
func (s *Store) AddBackendAddr(addr string, lanes int) error {
	c, err := iod.DialPool(addr, lanes)
	if err != nil {
		return fmt.Errorf("shardstore: backend %s: %w", addr, err)
	}
	if err := s.AddBackend(Member{Name: addr, Store: c, Close: c.Close}); err != nil {
		c.Close()
		return err
	}
	return nil
}

// Decommission starts draining a member: it stops taking new assignments
// immediately, the watcher migrates its replicas onto the surviving
// members, and once its store is empty it is removed from the set (and its
// connection closed). Decommission returns once the drain is *started*;
// WaitDecommissioned blocks until it completes. It refuses to drain below
// R eligible members — R copies must have somewhere to live.
func (s *Store) Decommission(name string) error {
	if s.closed.Load() {
		return errors.New("shardstore: closed")
	}
	s.mu.Lock()
	var target *backend
	eligibleAfter := 0
	for _, b := range s.backends {
		if b.name == name {
			target = b
			continue
		}
		if b.eligible() {
			eligibleAfter++
		}
	}
	if target == nil {
		s.mu.Unlock()
		return fmt.Errorf("shardstore: no backend named %q", name)
	}
	switch target.memberState() {
	case StateDraining, StateDrained:
		s.mu.Unlock()
		return nil // already on its way out
	}
	if eligibleAfter < s.cfg.Replicas {
		s.mu.Unlock()
		return fmt.Errorf("shardstore: decommissioning %q would leave %d eligible backends (< replication factor %d)",
			name, eligibleAfter, s.cfg.Replicas)
	}
	target.state.Store(int32(StateDraining))
	s.mu.Unlock()
	s.emit(Event{Kind: EventDraining, Backend: name})
	s.kickWatcher()
	return nil
}

// WaitDecommissioned blocks until name has fully drained and left the
// member set, or ctx ends.
func (s *Store) WaitDecommissioned(ctx context.Context, name string) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if _, ok := s.MemberState(name); !ok {
			return nil
		}
		select {
		case <-ctx.Done():
			st, _ := s.MemberState(name)
			return fmt.Errorf("shardstore: decommission of %q incomplete (state %s): %w", name, st, ctx.Err())
		case <-s.runCtx.Done():
			return errors.New("shardstore: closed")
		case <-tick.C:
		}
	}
}

// Members returns the current member names in set order.
func (s *Store) Members() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.backends))
	for i, b := range s.backends {
		out[i] = b.name
	}
	return out
}

// MemberState reports a member's membership state by name.
func (s *Store) MemberState(name string) (MemberState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.backends {
		if b.name == name {
			return b.memberState(), true
		}
	}
	return 0, false
}

// watcher is the controller: the one goroutine that repairs and rebalances.
// It wakes on a membership kick — and on a retry timer while that work is
// pending — to run an inventory pass and settle state transitions (joining
// backends activate once their backfill drains, draining backends are
// removed once their store is empty), and, when Probe > 0, on the probe tick.
// With Probe < 0 and no kick it never wakes and calls no backend.
func (s *Store) watcher() {
	defer close(s.watcherDone)
	retry := 200 * time.Millisecond
	var tick <-chan time.Time
	if s.cfg.Probe > 0 {
		retry = s.cfg.Probe
		t := time.NewTicker(s.cfg.Probe)
		defer t.Stop()
		tick = t.C
	}
	var timer <-chan time.Time
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-tick:
			s.probeTick(s.runCtx)
			continue
		case <-s.memberKick:
		case <-timer:
		}
		timer = nil
		settled, err := s.rebalancePass(s.runCtx)
		if !settled || err != nil {
			timer = time.After(retry)
		}
	}
}

// probeTick is the time-triggered pass: probe unhealthy members back in, then
// repair the keys this client tracks that are short of R or name an unhealthy
// member (a replica dropped mid-write is healed here). Failed moves are
// counted and retried by the next tick.
func (s *Store) probeTick(ctx context.Context) {
	s.probe(ctx)
	if plan, err := s.plan(ctx, s.suspectKeys); err == nil {
		s.executePlan(ctx, plan)
	}
}

// rebalancePass runs one inventory plan→execute→settle cycle. It reports
// whether membership is settled (no pending moves, no joining/draining
// members).
func (s *Store) rebalancePass(ctx context.Context) (bool, error) {
	plan, err := s.plan(ctx, s.listedKeys)
	if err != nil {
		return false, err
	}
	pendingDrops := 0
	for _, kp := range plan {
		pendingDrops += len(kp.removes)
	}
	if s.mDrainRemain != nil {
		s.mDrainRemain.Set(int64(pendingDrops))
	}
	_, dropped, execErr := s.executePlan(ctx, plan)
	if s.mDrainRemain != nil {
		s.mDrainRemain.Set(int64(pendingDrops - dropped))
	}
	settled, err := s.settleMembership(ctx)
	if execErr != nil {
		return false, execErr
	}
	return settled && len(plan) == 0, err
}

// settleMembership promotes joining members whose backfill has drained and
// removes draining members whose stores are empty. It reports whether no
// member is left mid-transition.
func (s *Store) settleMembership(ctx context.Context) (bool, error) {
	settled := true
	var firstErr error
	// pending counts the copies one fresh plan still schedules onto each
	// member: a joining member with none is fully backfilled.
	var pending map[*backend]int
	for _, b := range s.snapshot() {
		switch b.memberState() {
		case StateJoining:
			if pending == nil {
				plan, err := s.plan(ctx, s.listedKeys)
				if err != nil {
					return false, err
				}
				pending = make(map[*backend]int)
				for _, kp := range plan {
					for _, dst := range kp.adds {
						pending[dst]++
					}
				}
			}
			if pending[b] > 0 {
				settled = false
				continue
			}
			b.state.Store(int32(StateActive))
			s.emit(Event{Kind: EventActivated, Backend: b.name})
		case StateDraining:
			cctx, cancel := s.callCtx(ctx)
			keys, err := b.store.Keys(cctx)
			cancel()
			if err != nil {
				settled = false
				if firstErr == nil {
					firstErr = fmt.Errorf("shardstore: drain check on %s: %w", b.name, err)
				}
				continue
			}
			if len(keys) > 0 {
				settled = false
				continue
			}
			b.state.Store(int32(StateDrained))
			s.removeBackend(b)
			s.emit(Event{Kind: EventDrained, Backend: b.name})
		}
	}
	return settled, firstErr
}

// removeBackend takes a drained backend out of the set, scrubs it from
// every sticky replica assignment, and closes its connection.
func (s *Store) removeBackend(b *backend) {
	s.mu.Lock()
	kept := s.backends[:0]
	for _, x := range s.backends {
		if x != b {
			kept = append(kept, x)
		}
	}
	s.backends = kept
	for _, st := range s.objs {
		for i, r := range st.replicas {
			if r == b {
				st.replicas = append(st.replicas[:i], st.replicas[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	if b.close != nil {
		b.close()
	}
}
