package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase names one stage of the checkpoint or restore pipeline (§4.2/§4.3).
type Phase string

// Checkpoint-path phases, in pipeline order. PhaseWait is synthesized for
// any gap between recorded spans (e.g. a committed checkpoint sitting in
// NVM before the NDP picks it up), so a timeline's spans always tile its
// full duration when the pipeline runs serially.
const (
	PhaseCommit   Phase = "commit"   // host writes the snapshot to NVM
	PhaseWait     Phase = "wait"     // gap between spans (queueing)
	PhasePause    Phase = "pause"    // NDP excluded from NVM by a host commit
	PhaseRead     Phase = "read"     // NDP reads the checkpoint from NVM
	PhaseCompress Phase = "compress" // NDP compression
	PhaseXmit     Phase = "xmit"     // NIC send + store write
	PhaseAck      Phase = "ack"      // drain finalization and completion event
)

// Restore-path phases.
const (
	PhaseFetch      Phase = "fetch"      // retrieval from a storage level
	PhaseDecompress Phase = "decompress" // host-side parallel decompression
)

// Timeline kinds.
const (
	KindCheckpoint = "checkpoint"
	KindRestore    = "restore"
)

// Span is one recorded phase interval.
type Span struct {
	Phase Phase
	Start time.Time
	End   time.Time
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Timeline is the phase record of one checkpoint's trip through the
// pipeline (or one restore).
type Timeline struct {
	Kind  string
	ID    uint64
	Spans []Span
}

// Total returns the wall-clock extent from the first span's start to the
// latest span end.
func (t Timeline) Total() time.Duration {
	if len(t.Spans) == 0 {
		return 0
	}
	start := t.Spans[0].Start
	end := t.Spans[0].End
	for _, s := range t.Spans[1:] {
		if s.Start.Before(start) {
			start = s.Start
		}
		if s.End.After(end) {
			end = s.End
		}
	}
	return end.Sub(start)
}

// Sum returns the summed span durations. For a serial pipeline (no
// overlapped spans) Sum equals Total because PhaseWait spans fill every
// gap; with compress/transmit overlap Sum exceeds Total by the overlap.
func (t Timeline) Sum() time.Duration {
	var d time.Duration
	for _, s := range t.Spans {
		d += s.Duration()
	}
	return d
}

// PhaseDuration returns the summed duration of one phase across spans.
func (t Timeline) PhaseDuration(p Phase) time.Duration {
	var d time.Duration
	for _, s := range t.Spans {
		if s.Phase == p {
			d += s.Duration()
		}
	}
	return d
}

type timelineKey struct {
	kind string
	id   uint64
}

// TimelineSet collects timelines across goroutines: the host records the
// commit span, the NDP engine the drain spans, the restore path the fetch
// and decompress spans. Completed timelines are kept in a bounded ring
// (oldest evicted first).
type TimelineSet struct {
	mu       sync.Mutex
	capacity int
	open     map[timelineKey]*Timeline
	done     []Timeline // completion order, bounded by capacity
}

// NewTimelineSet creates a set retaining the most recent capacity completed
// timelines (default 64 when capacity <= 0).
func NewTimelineSet(capacity int) *TimelineSet {
	if capacity <= 0 {
		capacity = 64
	}
	return &TimelineSet{capacity: capacity, open: make(map[timelineKey]*Timeline)}
}

// Envelope tracks the wall-clock envelope of a set of overlapping operations
// (the drain pipeline's compression workers or its windowed sender, the
// streamed restore's fetchers or decompress workers): the earliest Mark start
// and the latest Mark end. Recorded as one span per phase, overlapping
// envelopes make a timeline's Sum exceed its Total by the realized overlap.
// The zero value is ready to use.
type Envelope struct {
	mu     sync.Mutex
	marked bool
	start  time.Time
	end    time.Time
}

// Mark widens the envelope to cover [start, end].
func (c *Envelope) Mark(start, end time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.marked || start.Before(c.start) {
		c.start = start
	}
	if !c.marked || end.After(c.end) {
		c.end = end
	}
	c.marked = true
}

// ObserveEnvelope records env as one phase span of the (kind, id) timeline;
// an envelope nothing marked records nothing. It reads the envelope under
// its lock: on an early return workers may still be marking concurrently.
func (ts *TimelineSet) ObserveEnvelope(kind string, id uint64, phase Phase, env *Envelope) {
	env.mu.Lock()
	start, end, marked := env.start, env.end, env.marked
	env.mu.Unlock()
	if marked {
		ts.Observe(kind, id, phase, start, end)
	}
}

// Observe appends one phase span to the (kind, id) timeline, opening it on
// first use. A gap between the previous latest end and start is recorded as
// an explicit PhaseWait span, so serial timelines tile their full duration;
// overlapping spans (pipelined compress/transmit) are appended as-is.
func (ts *TimelineSet) Observe(kind string, id uint64, phase Phase, start, end time.Time) {
	if end.Before(start) {
		end = start
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	key := timelineKey{kind, id}
	tl, ok := ts.open[key]
	if !ok {
		tl = &Timeline{Kind: kind, ID: id}
		ts.open[key] = tl
	}
	if n := len(tl.Spans); n > 0 {
		last := tl.Spans[0].End
		for _, s := range tl.Spans[1:] {
			if s.End.After(last) {
				last = s.End
			}
		}
		if start.After(last) {
			tl.Spans = append(tl.Spans, Span{Phase: PhaseWait, Start: last, End: start})
		}
	}
	tl.Spans = append(tl.Spans, Span{Phase: phase, Start: start, End: end})
}

// Finish moves the (kind, id) timeline into the completed ring. Finishing
// an unknown timeline is a no-op.
func (ts *TimelineSet) Finish(kind string, id uint64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	key := timelineKey{kind, id}
	tl, ok := ts.open[key]
	if !ok {
		return
	}
	delete(ts.open, key)
	ts.done = append(ts.done, *tl)
	if len(ts.done) > ts.capacity {
		ts.done = ts.done[len(ts.done)-ts.capacity:]
	}
}

// Discard drops the open (kind, id) timeline without completing it. Restore
// paths call it when an attempt fails after recording spans: an abandoned
// restore must not leave a partially-filled timeline open forever (nor
// pollute the completed ring with a half-measured attempt). Discarding an
// unknown timeline is a no-op.
func (ts *TimelineSet) Discard(kind string, id uint64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	delete(ts.open, timelineKey{kind, id})
}

// Open returns the number of open (started but neither finished nor
// discarded) timelines of the given kind. Tests assert zero residue after
// failure paths; a long-running daemon can watch it for leaks.
func (ts *TimelineSet) Open(kind string) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := 0
	for key := range ts.open {
		if key.kind == kind {
			n++
		}
	}
	return n
}

// DiscardOlder drops open (unfinished) timelines of the given kind with
// IDs below id. The NDP drains the *newest* checkpoint and skips stale
// intermediates (§6.2); their timelines would otherwise accumulate forever
// in a long-running daemon.
func (ts *TimelineSet) DiscardOlder(kind string, id uint64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for key := range ts.open {
		if key.kind == kind && key.id < id {
			delete(ts.open, key)
		}
	}
}

// Completed returns the completed timelines in completion order (deep
// copies, safe to retain).
func (ts *TimelineSet) Completed() []Timeline {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Timeline, len(ts.done))
	for i, tl := range ts.done {
		out[i] = tl
		out[i].Spans = append([]Span(nil), tl.Spans...)
	}
	return out
}

// Timeline returns the completed timeline for (kind, id), if present.
func (ts *TimelineSet) Timeline(kind string, id uint64) (Timeline, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i := len(ts.done) - 1; i >= 0; i-- {
		if ts.done[i].Kind == kind && ts.done[i].ID == id {
			tl := ts.done[i]
			tl.Spans = append([]Span(nil), ts.done[i].Spans...)
			return tl, true
		}
	}
	return Timeline{}, false
}

// Dump renders completed timelines as per-phase breakdowns:
//
//	checkpoint 3: total=12.4ms  commit=2.1ms wait=0.3ms read=1.0ms compress=5.2ms xmit=3.6ms ack=0.2ms
//
// Phases are listed in first-appearance order with their summed durations.
func (ts *TimelineSet) Dump(w io.Writer) error {
	for _, tl := range ts.Completed() {
		var order []Phase
		seen := make(map[Phase]bool)
		for _, s := range tl.Spans {
			if !seen[s.Phase] {
				seen[s.Phase] = true
				order = append(order, s.Phase)
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s %d: total=%s ", tl.Kind, tl.ID, fmtDur(tl.Total()))
		for _, p := range order {
			fmt.Fprintf(&b, " %s=%s", p, fmtDur(tl.PhaseDuration(p)))
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// PhaseTotals sums each phase's duration across all completed timelines of
// one kind, returned in descending-duration order.
func (ts *TimelineSet) PhaseTotals(kind string) []struct {
	Phase    Phase
	Duration time.Duration
} {
	totals := make(map[Phase]time.Duration)
	for _, tl := range ts.Completed() {
		if tl.Kind != kind {
			continue
		}
		for _, s := range tl.Spans {
			totals[s.Phase] += s.Duration()
		}
	}
	out := make([]struct {
		Phase    Phase
		Duration time.Duration
	}, 0, len(totals))
	for p, d := range totals {
		out = append(out, struct {
			Phase    Phase
			Duration time.Duration
		}{p, d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
