// Package sim implements a Monte-Carlo discrete-event simulator of
// multilevel checkpoint/restart with and without NDP offload, following the
// operational timeline of the paper's §4.2 (Figure 3).
//
// A trial executes an application requiring Work seconds of useful compute
// under exponentially distributed interrupts (§6.1.1). The host pauses to
// commit checkpoints to node-local NVM every LocalInterval of useful work;
// every k-th checkpoint is additionally written to global I/O either by the
// host (stalling the application) or by the NDP in the background. On a
// failure, recovery succeeds from the local level with probability PLocal,
// otherwise it falls back to the last checkpoint that reached global I/O.
// The simulator accounts every wall-clock second to one of seven buckets
// (the breakdown of Figures 4 and 7).
package sim

import (
	"errors"
	"fmt"
	"math"

	"ndpcr/internal/stats"
	"ndpcr/internal/units"
)

// Config parameterizes one simulated configuration. All times are wall-
// clock seconds; the model layer derives them from bandwidths and sizes.
type Config struct {
	// Work is the failure-free solve time of the application.
	Work units.Seconds
	// MTTI is the mean time to interrupt; failures are exponential.
	MTTI units.Seconds

	// LocalInterval is the useful-compute interval τ between checkpoints.
	LocalInterval units.Seconds
	// DeltaLocal is the host stall to commit one checkpoint locally.
	DeltaLocal units.Seconds
	// IOEveryK makes every k-th checkpoint also an I/O checkpoint
	// (host-written multilevel). Zero disables host I/O checkpoints.
	IOEveryK int
	// DeltaIO is the additional host stall for a host-written I/O
	// checkpoint (zero when the NDP handles I/O).
	DeltaIO units.Seconds

	// DeltaErasure is the host stall to erasure-encode a checkpoint and
	// ship its shards to the redundancy set (zero disables the level's
	// encode cadence).
	DeltaErasure units.Seconds
	// ErasureEveryK erasure-encodes every k-th local checkpoint (the
	// encode cadence). Zero means every checkpoint when the level is on.
	ErasureEveryK int

	// NDP enables background draining of local checkpoints to I/O.
	NDP bool
	// DrainTime is the NDP wall time to move one checkpoint to I/O
	// (already folded: max of compression time and I/O write time).
	DrainTime units.Seconds
	// NVMExclusive pauses the drain while the host commits to NVM,
	// mirroring §4.2.1 (all NVM bandwidth given to the host).
	NVMExclusive bool

	// PLocal, PPartner, and PErasure slice the recovery probability across
	// the multilevel hierarchy (§3.4): a failure recovers from the local
	// level with probability PLocal, else from the partner copy with
	// PPartner, else from the erasure set with PErasure, else from the
	// last I/O checkpoint. Their sum must not exceed 1.
	PLocal   float64
	PPartner float64
	PErasure float64
	// RestoreLocal, RestorePartner, RestoreErasure, and RestoreIO are the
	// restore stalls per level.
	RestoreLocal   units.Seconds
	RestorePartner units.Seconds
	RestoreErasure units.Seconds
	RestoreIO      units.Seconds

	// Seed makes the trial deterministic.
	Seed uint64
	// MaxWallTime aborts degenerate runs (efficiency → 0). Zero selects
	// 1000 × Work.
	MaxWallTime units.Seconds

	// FailureTimes, when non-empty, replaces the exponential interrupt
	// process with a fixed wall-clock schedule (ascending seconds); after
	// the schedule is exhausted no further failures occur. Used for
	// trace-driven runs and for cross-validating the simulator against
	// the functional runtime under identical failure histories.
	FailureTimes []units.Seconds
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Work <= 0:
		return errors.New("sim: Work must be positive")
	case c.MTTI <= 0:
		return errors.New("sim: MTTI must be positive")
	case c.LocalInterval <= 0:
		return errors.New("sim: LocalInterval must be positive")
	case c.DeltaLocal < 0 || c.DeltaIO < 0 || c.DeltaErasure < 0 || c.DrainTime < 0:
		return errors.New("sim: negative checkpoint cost")
	case c.RestoreLocal < 0 || c.RestorePartner < 0 || c.RestoreErasure < 0 || c.RestoreIO < 0:
		return errors.New("sim: negative restore cost")
	case c.PLocal < 0 || c.PLocal > 1:
		return errors.New("sim: PLocal out of [0,1]")
	case c.PPartner < 0 || c.PPartner > 1:
		return errors.New("sim: PPartner out of [0,1]")
	case c.PErasure < 0 || c.PErasure > 1:
		return errors.New("sim: PErasure out of [0,1]")
	case c.PLocal+c.PPartner+c.PErasure > 1+1e-9:
		return errors.New("sim: PLocal+PPartner+PErasure exceeds 1")
	case c.IOEveryK < 0:
		return errors.New("sim: IOEveryK must be >= 0")
	case c.ErasureEveryK < 0:
		return errors.New("sim: ErasureEveryK must be >= 0")
	case c.NDP && c.DrainTime <= 0:
		return errors.New("sim: NDP requires positive DrainTime")
	}
	return nil
}

// Breakdown is the per-bucket wall-clock accounting of one (or the mean of
// many) simulated run(s). Compute counts only first-time work; re-executed
// work lands in the Rerun buckets, split by which recovery level caused the
// rollback.
type Breakdown struct {
	Compute           units.Seconds
	CheckpointLocal   units.Seconds
	CheckpointErasure units.Seconds
	CheckpointIO      units.Seconds
	RestoreLocal      units.Seconds
	RestorePartner    units.Seconds
	RestoreErasure    units.Seconds
	RestoreIO         units.Seconds
	RerunLocal        units.Seconds
	RerunIO           units.Seconds

	// Failures counts interrupts; IOFailures those recovered from I/O.
	Failures   int
	IOFailures int
}

// Total returns the wall-clock sum of all buckets.
func (b Breakdown) Total() units.Seconds {
	return b.Compute + b.CheckpointLocal + b.CheckpointErasure + b.CheckpointIO +
		b.RestoreLocal + b.RestorePartner + b.RestoreErasure + b.RestoreIO +
		b.RerunLocal + b.RerunIO
}

// Efficiency returns Compute/Total, the paper's progress rate.
func (b Breakdown) Efficiency() float64 {
	t := b.Total()
	if t <= 0 {
		return 0
	}
	return float64(b.Compute) / float64(t)
}

// Overhead returns 1 − Efficiency.
func (b Breakdown) Overhead() float64 { return 1 - b.Efficiency() }

func (b Breakdown) String() string {
	s := fmt.Sprintf("compute=%v ckptL=%v", b.Compute, b.CheckpointLocal)
	if b.CheckpointErasure != 0 {
		s += fmt.Sprintf(" ckptE=%v", b.CheckpointErasure)
	}
	s += fmt.Sprintf(" ckptIO=%v restL=%v", b.CheckpointIO, b.RestoreLocal)
	if b.RestorePartner != 0 {
		s += fmt.Sprintf(" restP=%v", b.RestorePartner)
	}
	if b.RestoreErasure != 0 {
		s += fmt.Sprintf(" restE=%v", b.RestoreErasure)
	}
	return s + fmt.Sprintf(" restIO=%v rerunL=%v rerunIO=%v eff=%.1f%%",
		b.RestoreIO, b.RerunLocal, b.RerunIO, b.Efficiency()*100)
}

// ErrStalled reports a run that exceeded MaxWallTime without completing.
var ErrStalled = errors.New("sim: run exceeded wall-time bound (progress rate ~ 0)")

// activity kinds for failure attribution.
type actKind int

const (
	actCompute actKind = iota
	actCkptLocal
	actCkptErasure
	actCkptIO
	actRestoreLocal
	actRestorePartner
	actRestoreErasure
	actRestoreIO
)

type state struct {
	cfg Config
	rng *stats.RNG

	clock  float64
	failAt float64
	// schedIdx walks Config.FailureTimes in scheduled mode.
	schedIdx int

	pos      float64 // completed work in this attempt lineage
	furthest float64 // high-water mark of work ever completed

	lastLocal   float64 // work position of newest durable local checkpoint
	lastErasure float64 // work position of newest erasure-encoded checkpoint
	lastIO      float64 // work position of newest checkpoint on global I/O

	ckptCount int

	// NDP drain state.
	drainActive    bool
	drainPos       float64
	drainRemaining float64
	nvmLatest      float64 // newest drainable local checkpoint position

	// ioHigh is the high-water mark of work lost to I/O-level recoveries:
	// re-execution below it is attributed to RerunIO even if later local
	// failures interleave (the work was originally lost to an I/O
	// recovery; §6.4 attributes rerun to the level that lost it).
	ioHigh float64

	b Breakdown
}

// Run simulates one trial.
func Run(cfg Config) (Breakdown, error) {
	if err := cfg.Validate(); err != nil {
		return Breakdown{}, err
	}
	maxWall := float64(cfg.MaxWallTime)
	if maxWall <= 0 {
		maxWall = 1000 * float64(cfg.Work)
	}
	s := &state{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
	s.drawFailure()

	for s.pos < float64(cfg.Work) {
		if s.clock > maxWall {
			return s.b, fmt.Errorf("%w after %v", ErrStalled, units.Seconds(s.clock))
		}
		// Compute segment: up to τ of work or to completion.
		segEnd := s.pos + float64(cfg.LocalInterval)
		if segEnd > float64(cfg.Work) {
			segEnd = float64(cfg.Work)
		}
		if failed := s.compute(segEnd); failed {
			s.recover()
			continue
		}
		if s.pos >= float64(cfg.Work) {
			break // finished: no final checkpoint needed
		}
		// Local checkpoint (host stall; NDP drain paused if exclusive).
		if failed := s.advance(float64(cfg.DeltaLocal), actCkptLocal, cfg.NVMExclusive); failed {
			// The in-progress checkpoint is invalid; previous ones stand.
			s.recover()
			continue
		}
		s.ckptCount++
		s.lastLocal = s.pos
		s.nvmLatest = s.pos
		if cfg.NDP {
			s.maybeStartDrain()
		}
		// Erasure-set encode on its own cadence (§3.4): the host stalls
		// while shards are computed and shipped to the redundancy set.
		if cfg.PErasure > 0 || cfg.DeltaErasure > 0 {
			e := cfg.ErasureEveryK
			if e < 1 {
				e = 1
			}
			if s.ckptCount%e == 0 {
				if failed := s.advance(float64(cfg.DeltaErasure), actCkptErasure, false); failed {
					// The in-progress erasure set is invalid; prior sets stand.
					s.recover()
					continue
				}
				s.lastErasure = s.pos
			}
		}
		// Host-written I/O checkpoint on the k-th cadence.
		if !cfg.NDP && cfg.IOEveryK > 0 && s.ckptCount%cfg.IOEveryK == 0 {
			if failed := s.advance(float64(cfg.DeltaIO), actCkptIO, false); failed {
				s.recover()
				continue
			}
			s.lastIO = s.pos
		}
	}
	return s.b, nil
}

// drawFailure arms the next interrupt: the next scheduled time in
// trace-driven mode, or an exponential variate otherwise.
func (s *state) drawFailure() {
	if len(s.cfg.FailureTimes) > 0 {
		if s.schedIdx < len(s.cfg.FailureTimes) {
			s.failAt = float64(s.cfg.FailureTimes[s.schedIdx])
			s.schedIdx++
			if s.failAt <= s.clock {
				// Past or simultaneous entries fire immediately-next.
				s.failAt = s.clock + 1e-9
			}
		} else {
			s.failAt = math.Inf(1) // schedule exhausted
		}
		return
	}
	s.failAt = s.clock + s.rng.Exp(float64(s.cfg.MTTI))
}

// compute advances useful work to target, splitting time between first-time
// compute and the two rerun buckets. Re-execution below the I/O high-water
// mark is charged to RerunIO, between it and the overall high-water mark to
// RerunLocal, and beyond that to Compute. Returns true if a failure
// interrupted it.
func (s *state) compute(target float64) bool {
	for s.pos < target {
		chunkEnd := target
		var bucket *units.Seconds
		switch {
		case s.pos < s.ioHigh: // re-doing work lost to an I/O recovery
			bucket = &s.b.RerunIO
			if s.ioHigh < chunkEnd {
				chunkEnd = s.ioHigh
			}
		case s.pos < s.furthest: // re-doing work lost to a local recovery
			bucket = &s.b.RerunLocal
			if s.furthest < chunkEnd {
				chunkEnd = s.furthest
			}
		default:
			bucket = &s.b.Compute
		}
		d := chunkEnd - s.pos
		elapsed, failed := s.elapse(d, false)
		s.pos += elapsed
		if s.pos > s.furthest {
			s.furthest = s.pos
		}
		*bucket += units.Seconds(elapsed)
		if failed {
			return true
		}
	}
	return false
}

// advance runs one non-compute host activity, charging its bucket.
// Returns true if a failure interrupted it.
func (s *state) advance(d float64, kind actKind, pauseDrain bool) bool {
	elapsed, failed := s.elapse(d, pauseDrain)
	switch kind {
	case actCkptLocal:
		s.b.CheckpointLocal += units.Seconds(elapsed)
	case actCkptErasure:
		s.b.CheckpointErasure += units.Seconds(elapsed)
	case actCkptIO:
		s.b.CheckpointIO += units.Seconds(elapsed)
	case actRestoreLocal:
		s.b.RestoreLocal += units.Seconds(elapsed)
	case actRestorePartner:
		s.b.RestorePartner += units.Seconds(elapsed)
	case actRestoreErasure:
		s.b.RestoreErasure += units.Seconds(elapsed)
	case actRestoreIO:
		s.b.RestoreIO += units.Seconds(elapsed)
	default:
		panic("sim: advance called with compute kind")
	}
	return failed
}

// elapse moves the wall clock by up to d seconds, progressing the NDP drain
// (unless paused) and stopping early at a failure. It returns the elapsed
// time and whether a failure fired.
func (s *state) elapse(d float64, drainPaused bool) (float64, bool) {
	remaining := d
	elapsed := 0.0
	for remaining > 1e-12 {
		step := remaining
		// Drain completion is the only intermediate event.
		if s.drainActive && !drainPaused && s.drainRemaining < step {
			step = s.drainRemaining
		}
		if s.clock+step >= s.failAt {
			// Failure fires within this step.
			fstep := s.failAt - s.clock
			s.clock = s.failAt
			elapsed += fstep
			if s.drainActive && !drainPaused {
				s.drainRemaining -= fstep
				// Even if the drain would have finished in this step, the
				// failure aborts it: the transfer never completed.
			}
			s.drawFailure()
			return elapsed, true
		}
		s.clock += step
		elapsed += step
		remaining -= step
		if s.drainActive && !drainPaused {
			s.drainRemaining -= step
			if s.drainRemaining <= 1e-12 {
				s.commitDrain()
			}
		}
	}
	return elapsed, false
}

func (s *state) commitDrain() {
	s.drainActive = false
	if s.drainPos > s.lastIO {
		s.lastIO = s.drainPos
	}
	s.maybeStartDrain()
}

// maybeStartDrain starts draining the newest local checkpoint that has not
// reached I/O — the "as frequently as possible" policy of §6.2, which skips
// intermediate checkpoints when the drain is slower than the local cadence.
func (s *state) maybeStartDrain() {
	if s.drainActive || !s.cfg.NDP {
		return
	}
	if s.nvmLatest > s.lastIO {
		s.drainActive = true
		s.drainPos = s.nvmLatest
		s.drainRemaining = float64(s.cfg.DrainTime)
	}
}

// recover handles a failure: pick the recovery level, pay the restore cost
// (itself interruptible), and roll the work position back.
func (s *state) recover() {
	s.b.Failures++
	// Any in-flight drain is aborted by the interrupt (§4.2.3 pauses it;
	// conservatively we restart it after recovery).
	s.drainActive = false

	for {
		kind := s.drawLevel()
		var cost, target float64
		switch kind {
		case actRestoreLocal:
			cost, target = float64(s.cfg.RestoreLocal), s.lastLocal
		case actRestorePartner:
			// The partner copy mirrors the newest local checkpoint (§3.4).
			cost, target = float64(s.cfg.RestorePartner), s.lastLocal
		case actRestoreErasure:
			cost, target = float64(s.cfg.RestoreErasure), s.lastErasure
		default:
			cost, target = float64(s.cfg.RestoreIO), s.lastIO
			s.b.IOFailures++
		}
		failed := s.advance(cost, kind, false)
		if failed {
			// Failure during restore: count it and restart recovery.
			s.b.Failures++
			continue
		}
		// Roll back. Checkpoints newer than the restored state belong to
		// the abandoned lineage and are discarded.
		s.pos = target
		if kind == actRestoreLocal {
			if s.lastLocal > target {
				s.lastLocal = target
			}
			if s.nvmLatest > target {
				s.nvmLatest = target
			}
		} else {
			// Everything between the restored point and the execution
			// front was lost to an I/O-level recovery. Partner and
			// erasure recoveries charge their rerun to the local bucket:
			// both serve from NVM-speed levels (§3.4).
			if kind == actRestoreIO && s.furthest > s.ioHigh {
				s.ioHigh = s.furthest
			}
			// Local NVM contents were lost; the restored state is
			// re-persisted locally as part of restart (BLCR-style), so the
			// local level now holds exactly the restored checkpoint.
			s.lastLocal = target
			s.nvmLatest = target
		}
		if s.lastErasure > target {
			s.lastErasure = target
		}
		if s.lastIO > target {
			s.lastIO = target
		}
		if s.cfg.NDP {
			s.maybeStartDrain()
		}
		return
	}
}

// drawLevel picks the recovery level for one failure. With the partner and
// erasure levels disabled it consumes the RNG stream exactly as the
// original two-level Bernoulli draw, keeping historical trial results
// bit-identical.
func (s *state) drawLevel() actKind {
	pl, pp, pe := s.cfg.PLocal, s.cfg.PPartner, s.cfg.PErasure
	if pp == 0 && pe == 0 {
		if s.rng.Bernoulli(pl) {
			return actRestoreLocal
		}
		return actRestoreIO
	}
	u := s.rng.Float64()
	switch {
	case u < pl:
		return actRestoreLocal
	case u < pl+pp:
		return actRestorePartner
	case u < pl+pp+pe:
		return actRestoreErasure
	}
	return actRestoreIO
}
