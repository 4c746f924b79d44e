// Package faultinject provides deterministic, seed-driven failure
// injection for the checkpoint pipeline. A fault schedule is a set of
// rules, each naming an injection site (an NVM put, a global-store block
// write, an iod connection, ...) and deciding — by operation ordinal or by
// seeded pseudo-random draw — when that site misbehaves and how (a hard
// error, a torn partial write, silent corruption, or a stall).
//
// The same seed and schedule always produce the same decisions in the same
// operation order, so every failure-handling behavior in the runtime ships
// with a repeatable chaos regression test instead of a "run it many times
// and hope" loop. Ordinal-based rules (After/Count) are fully deterministic
// even under concurrency as long as the matching operations themselves are
// ordered; probability rules are deterministic per matching-op sequence.
//
// Wiring is non-invasive: the injector plugs into hooks the runtime already
// exposes (nvm.Device.SetFaultHook, iod.Server.SetConnFaultHook) or wraps
// the iostore.API the NDP drains into (WrapStore), so production builds pay
// nothing when no injector is installed.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"ndpcr/internal/node/iostore"
)

// ErrInjected is the sentinel wrapped by every injected failure, so tests
// and callers can distinguish scheduled chaos from real bugs.
var ErrInjected = errors.New("faultinject: injected fault")

// Injection sites. Sites name the operation being sabotaged; the rank (when
// the site is per-rank) is matched separately by Rule.Rank.
const (
	SiteNVMPut        = "nvm.put"         // node-local NVM checkpoint write
	SiteNVMGet        = "nvm.get"         // node-local NVM checkpoint read
	SiteStorePutBlock = "store.putblock"  // global-store block write
	SiteStoreGet      = "store.get"       // global-store block fetch
	SiteIODConn       = "iod.conn"        // I/O-node connection (drop or corrupt mid-exchange)
	SiteGatewayFront  = "gateway.handler" // gateway request handling (the service front door)
	SiteShardMove     = "shard.move"      // shardstore rebalance mover (one object copy during drain/backfill)
)

// Mode is what happens when a rule fires.
type Mode int

const (
	// ModeErr fails the operation with an ErrInjected-wrapped error.
	ModeErr Mode = iota
	// ModeTorn performs part of the write, then fails: the store is left
	// holding a partial (torn) object or block.
	ModeTorn
	// ModeCorrupt completes the operation but flips a byte of the payload:
	// the damage is silent until something validates the data.
	ModeCorrupt
	// ModeStall sleeps for the rule's Delay, then performs the operation
	// normally (an NDP drain stall, a slow link).
	ModeStall
)

func (m Mode) String() string {
	switch m {
	case ModeErr:
		return "err"
	case ModeTorn:
		return "torn"
	case ModeCorrupt:
		return "corrupt"
	case ModeStall:
		return "stall"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Rule schedules failures at one site.
type Rule struct {
	// Site selects the operation (Site* constants).
	Site string
	// Rank restricts the rule to one rank; -1 (or AnyRank) matches all.
	Rank int
	// After skips the first After matching operations before the rule may
	// fire (0 = eligible immediately).
	After int
	// Count caps how many times the rule fires (0 = unlimited).
	Count int
	// Prob fires the rule on each eligible operation with this probability,
	// drawn from the rule's seeded stream; 0 means "always fire".
	Prob float64
	// Mode is the failure behavior.
	Mode Mode
	// Delay is the ModeStall sleep.
	Delay time.Duration
}

// AnyRank matches every rank.
const AnyRank = -1

// Decision reports a fired rule to the injection site.
type Decision struct {
	Mode  Mode
	Delay time.Duration
	// Err is the ErrInjected-wrapped error for ModeErr/ModeTorn sites.
	Err error
}

// ruleState is a Rule plus its live matching/firing counters and its own
// deterministic random stream.
type ruleState struct {
	Rule
	seen  int
	fired int
	rng   uint64
}

// Injector evaluates a fault schedule. All methods are safe for concurrent
// use.
type Injector struct {
	mu    sync.Mutex
	rules []*ruleState
	// sleep performs ModeStall delays; tests substitute a recorder.
	sleep func(time.Duration)
}

// New builds an injector for the given schedule. Each rule draws from its
// own splitmix64 stream derived from seed, so schedules are reproducible
// and independent of each other's draw order.
func New(seed uint64, rules ...Rule) *Injector {
	in := &Injector{}
	for i, r := range rules {
		in.rules = append(in.rules, &ruleState{
			Rule: r,
			rng:  seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15),
		})
	}
	return in
}

// SetSleep substitutes the ModeStall sleep function (tests).
func (in *Injector) SetSleep(f func(time.Duration)) {
	in.mu.Lock()
	in.sleep = f
	in.mu.Unlock()
}

// Decide reports whether an operation at site on rank should fail, and how.
// Every call advances the matching rules' ordinal counters.
func (in *Injector) Decide(site string, rank int) (Decision, bool) {
	if in == nil {
		return Decision{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, st := range in.rules {
		if st.Site != site || (st.Rank != AnyRank && st.Rank != rank) {
			continue
		}
		st.seen++
		if st.seen <= st.After {
			continue
		}
		if st.Count > 0 && st.fired >= st.Count {
			continue
		}
		if st.Prob > 0 && randFloat(&st.rng) >= st.Prob {
			continue
		}
		st.fired++
		d := Decision{Mode: st.Mode, Delay: st.Delay}
		if st.Mode == ModeErr || st.Mode == ModeTorn {
			d.Err = fmt.Errorf("%w: %s rank %d (%s, op %d)",
				ErrInjected, site, rank, st.Mode, st.seen)
		}
		return d, true
	}
	return Decision{}, false
}

// Fired returns the number of times each site's rules have fired, for
// post-run assertions and experiment reporting.
func (in *Injector) Fired() map[string]int {
	out := make(map[string]int)
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, st := range in.rules {
		out[st.Site] += st.fired
	}
	return out
}

// Stall performs a decision's ModeStall sleep through the injector's sleep
// function.
func (in *Injector) Stall(d Decision) {
	in.StallCtx(context.Background(), d)
}

// StallCtx is Stall bounded by ctx: a stalled call under a deadline (a
// shardstore replica call, say) gives up when the deadline fires instead of
// serving out the full injected delay. A substituted sleep function (test
// recorders) always runs to completion — it records, it does not wait.
func (in *Injector) StallCtx(ctx context.Context, d Decision) {
	if d.Mode != ModeStall || d.Delay <= 0 {
		return
	}
	in.mu.Lock()
	sleep := in.sleep
	in.mu.Unlock()
	if sleep != nil {
		sleep(d.Delay)
		return
	}
	t := time.NewTimer(d.Delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// NVMHook adapts the injector to nvm.Device.SetFaultHook for one rank's
// device: "put"/"get" ops map to the nvm.* sites. ModeStall sleeps and
// lets the operation proceed; every other mode fails it (NVM has no torn
// or silently-corrupt writes at this granularity).
func (in *Injector) NVMHook(rank int) func(op string, id uint64) error {
	return func(op string, id uint64) error {
		d, ok := in.Decide("nvm."+op, rank)
		if !ok {
			return nil
		}
		if d.Mode == ModeStall {
			in.Stall(d)
			return nil
		}
		if d.Err != nil {
			return fmt.Errorf("%w (ckpt %d)", d.Err, id)
		}
		return fmt.Errorf("%w: nvm.%s rank %d ckpt %d (%s)", ErrInjected, op, rank, id, d.Mode)
	}
}

// ConnFaultHook adapts the injector to iod.Server.SetConnFaultHook: when a
// SiteIODConn rule fires, the server severs the connection mid-exchange,
// exercising the client's reconnect+retry path. A rule in ModeCorrupt
// instead flips a byte of the next wire-v2 response frame after its
// checksum is computed, so the client's CRC verification — not a codec
// decode error — must catch the damage. ModeStall delays the request and
// lets it proceed; every other mode severs the connection.
func (in *Injector) ConnFaultHook() func() (drop, corrupt bool) {
	return func() (bool, bool) {
		d, ok := in.Decide(SiteIODConn, AnyRank)
		if !ok {
			return false, false
		}
		in.Stall(d) // a stall rule delays the request instead of dropping
		switch d.Mode {
		case ModeStall:
			return false, false
		case ModeCorrupt:
			return false, true
		default:
			return true, false
		}
	}
}

// ShardMoveHook adapts the injector to shardstore.Config.MoveFault: it is
// consulted before each rebalance object move (a drain-off migration or a
// join backfill copy). ModeStall sleeps and lets the move proceed; every
// other mode fails the move, which the drain controller counts, reports,
// and retries on its next pass — a failed move must never lose a replica.
func (in *Injector) ShardMoveHook() func(key iostore.Key) error {
	return func(key iostore.Key) error {
		d, ok := in.Decide(SiteShardMove, key.Rank)
		if !ok {
			return nil
		}
		if d.Mode == ModeStall {
			in.Stall(d)
			return nil
		}
		if d.Err != nil {
			return fmt.Errorf("%w (move %s)", d.Err, key)
		}
		return fmt.Errorf("%w: shard.move %s (%s)", ErrInjected, key, d.Mode)
	}
}

// Parse builds an injector from a compact schedule spec (the -faults flag):
// rules separated by ';', each "site[,key=value...]" with keys rank, after,
// count, p, mode (err|torn|corrupt|stall) and delay (a Go duration, e.g.
// 5ms). Example:
//
//	nvm.put,rank=1,count=1;store.get,rank=2,after=3,count=1,mode=err
func Parse(seed uint64, spec string) (*Injector, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: empty schedule %q", spec)
	}
	return New(seed, rules...), nil
}

func parseRule(s string) (Rule, error) {
	fields := strings.Split(s, ",")
	r := Rule{Site: strings.TrimSpace(fields[0]), Rank: AnyRank}
	switch r.Site {
	case SiteNVMPut, SiteNVMGet, SiteStorePutBlock, SiteStoreGet, SiteIODConn, SiteGatewayFront, SiteShardMove:
	default:
		return Rule{}, fmt.Errorf("faultinject: unknown site %q", r.Site)
	}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok {
			return Rule{}, fmt.Errorf("faultinject: malformed field %q in %q", f, s)
		}
		var err error
		switch k {
		case "rank":
			r.Rank, err = strconv.Atoi(v)
		case "after":
			r.After, err = strconv.Atoi(v)
		case "count":
			r.Count, err = strconv.Atoi(v)
		case "p":
			r.Prob, err = strconv.ParseFloat(v, 64)
			if err == nil && (r.Prob < 0 || r.Prob > 1) {
				err = fmt.Errorf("probability %v outside [0,1]", r.Prob)
			}
		case "mode":
			switch v {
			case "err":
				r.Mode = ModeErr
			case "torn":
				r.Mode = ModeTorn
			case "corrupt":
				r.Mode = ModeCorrupt
			case "stall":
				r.Mode = ModeStall
			default:
				err = fmt.Errorf("unknown mode %q", v)
			}
		case "delay":
			r.Delay, err = time.ParseDuration(v)
		default:
			err = fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return Rule{}, fmt.Errorf("faultinject: rule %q: %v", s, err)
		}
	}
	return r, nil
}

// splitmix64 advances *x and returns the next value of the stream.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randFloat draws a uniform value in [0,1).
func randFloat(x *uint64) float64 {
	return float64(splitmix64(x)>>11) / (1 << 53)
}
