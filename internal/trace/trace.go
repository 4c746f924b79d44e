// Package trace generates and replays deterministic failure schedules.
// The model assumes interrupts are exponentially distributed (§6.1.1); the
// sched manager and its tests replay failures drawn from the same process
// against a live cluster, so behaviour matches the analytical assumptions.
package trace

import (
	"errors"
	"sort"

	"ndpcr/internal/stats"
	"ndpcr/internal/units"
)

// Event is one failure: at time At, rank Rank fails. Local reports whether
// the failure is recoverable from node-local storage (true) or destroys it
// (false), drawn with the configured probability.
type Event struct {
	At    units.Seconds
	Rank  int
	Local bool
}

// Config parameterizes a schedule.
type Config struct {
	// MTTI is the *system* mean time to interrupt: failures across all
	// ranks arrive as one Poisson process at rate 1/MTTI.
	MTTI units.Seconds
	// Horizon bounds the schedule.
	Horizon units.Seconds
	// Ranks is the number of ranks; each failure strikes one uniformly.
	Ranks int
	// PLocal is the probability a failure is local-recoverable.
	PLocal float64
	// Seed makes the schedule deterministic.
	Seed uint64
}

// Generate returns the failure events in time order.
func Generate(cfg Config) ([]Event, error) {
	if cfg.MTTI <= 0 {
		return nil, errors.New("trace: MTTI must be positive")
	}
	if cfg.Horizon <= 0 {
		return nil, errors.New("trace: Horizon must be positive")
	}
	if cfg.Ranks <= 0 {
		return nil, errors.New("trace: Ranks must be positive")
	}
	if cfg.PLocal < 0 || cfg.PLocal > 1 {
		return nil, errors.New("trace: PLocal out of [0,1]")
	}
	rng := stats.NewRNG(cfg.Seed)
	var events []Event
	t := units.Seconds(0)
	for {
		t += units.Seconds(rng.Exp(float64(cfg.MTTI)))
		if t >= cfg.Horizon {
			break
		}
		events = append(events, Event{
			At:    t,
			Rank:  rng.Intn(cfg.Ranks),
			Local: rng.Bernoulli(cfg.PLocal),
		})
	}
	return events, nil
}

// Replayer walks a schedule against an advancing clock.
type Replayer struct {
	events []Event
	next   int
}

// NewReplayer wraps a schedule (sorted by time; Generate's output already
// is, arbitrary input is sorted defensively).
func NewReplayer(events []Event) *Replayer {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	return &Replayer{events: sorted}
}

// Advance returns every event with At in (prev, now], in order.
func (r *Replayer) Advance(now units.Seconds) []Event {
	var out []Event
	for r.next < len(r.events) && r.events[r.next].At <= now {
		out = append(out, r.events[r.next])
		r.next++
	}
	return out
}

// Remaining returns the number of unfired events.
func (r *Replayer) Remaining() int { return len(r.events) - r.next }
