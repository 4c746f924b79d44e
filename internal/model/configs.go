package model

import (
	"fmt"

	"ndpcr/internal/sim"
	"ndpcr/internal/units"
)

// Configuration selects one of the paper's C/R schemes (§6.1.2).
type Configuration int

// The three evaluated configurations.
const (
	// ConfigIOOnly writes every checkpoint to global I/O (single level).
	ConfigIOOnly Configuration = iota
	// ConfigLocalIOHost is conventional multilevel checkpointing: the host
	// writes every checkpoint locally and every k-th to global I/O.
	ConfigLocalIOHost
	// ConfigLocalIONDP is the paper's proposal: the host writes only local
	// checkpoints; the NDP drains them to global I/O in the background.
	ConfigLocalIONDP
)

func (c Configuration) String() string {
	switch c {
	case ConfigIOOnly:
		return "I/O Only"
	case ConfigLocalIOHost:
		return "Local + I/O-Host"
	case ConfigLocalIONDP:
		return "Local + I/O-NDP"
	}
	return fmt.Sprintf("Configuration(%d)", int(c))
}

func errUnknownConfig(c Configuration) error {
	return fmt.Errorf("model: unknown configuration %d", int(c))
}

// Evaluation is the outcome of evaluating one configuration.
type Evaluation struct {
	Config Configuration
	Params Params
	// Ratio is the locally:I/O ratio used (derived for NDP, optimized or
	// configured for host multilevel, 1 for I/O-only).
	Ratio int
	// Result is the Monte-Carlo outcome. For ConfigIOOnly the simulator's
	// "local" buckets hold the I/O costs; Breakdown() relabels them.
	Result sim.Result
}

// Efficiency returns the mean progress rate.
func (e Evaluation) Efficiency() float64 { return e.Result.Efficiency() }

// Breakdown returns the mean per-bucket breakdown with buckets labeled
// according to the configuration (I/O-only runs charge everything to the
// I/O buckets).
func (e Evaluation) Breakdown() sim.Breakdown {
	b := e.Result.Mean
	if e.Config == ConfigIOOnly {
		b.CheckpointIO += b.CheckpointLocal
		b.CheckpointLocal = 0
		b.RestoreIO += b.RestoreLocal
		b.RestoreLocal = 0
		b.RerunIO += b.RerunLocal
		b.RerunLocal = 0
	}
	return b
}

// Evaluate runs the Monte-Carlo simulator for a configuration, deriving all
// timing inputs from the Params (§6.1.3).
func Evaluate(cfg Configuration, p Params) (Evaluation, error) {
	sc, ratio, err := SimConfig(cfg, p)
	if err != nil {
		return Evaluation{}, err
	}
	res, err := sim.MonteCarlo(sc, p.Trials)
	if err != nil {
		return Evaluation{}, fmt.Errorf("model: %s: %w", cfg, err)
	}
	return Evaluation{Config: cfg, Params: p, Ratio: ratio, Result: res}, nil
}

// SimConfig translates model parameters into a simulator configuration,
// returning the locally:I/O ratio actually used.
func SimConfig(cfg Configuration, p Params) (sim.Config, int, error) {
	if err := p.Validate(); err != nil {
		return sim.Config{}, 0, err
	}
	switch cfg {
	case ConfigIOOnly:
		tau, err := ioOnlyInterval(p)
		if err != nil {
			return sim.Config{}, 0, err
		}
		delta := p.DeltaIOHost()
		return sim.Config{
			Work:          p.Work,
			MTTI:          p.MTTI,
			LocalInterval: tau,
			DeltaLocal:    delta, // relabeled to I/O by Evaluation.Breakdown
			IOEveryK:      1,
			DeltaIO:       0,
			PLocal:        1, // single level: "local" stands for the I/O level
			RestoreLocal:  p.RestoreIO(),
			RestoreIO:     p.RestoreIO(),
			Seed:          p.Seed,
		}, 1, nil

	case ConfigLocalIOHost:
		tau, err := p.EffectiveLocalInterval()
		if err != nil {
			return sim.Config{}, 0, err
		}
		ratio := p.Ratio
		if ratio == 0 {
			ratio, _, err = OptimalRatio(p, 0)
			if err != nil {
				return sim.Config{}, 0, err
			}
		}
		return sim.Config{
			Work:           p.Work,
			MTTI:           p.MTTI,
			LocalInterval:  tau,
			DeltaLocal:     p.DeltaLocal(),
			DeltaErasure:   p.DeltaErasure(),
			ErasureEveryK:  p.ErasureEveryK,
			IOEveryK:       ratio,
			DeltaIO:        p.DeltaIOHost(),
			PLocal:         p.PLocal,
			PPartner:       p.PPartner,
			PErasure:       p.PErasure,
			RestoreLocal:   p.RestoreLocal(),
			RestorePartner: p.RestorePartner(),
			RestoreErasure: p.RestoreErasure(),
			RestoreIO:      p.RestoreIO(),
			Seed:           p.Seed,
		}, ratio, nil

	case ConfigLocalIONDP:
		tau, err := p.EffectiveLocalInterval()
		if err != nil {
			return sim.Config{}, 0, err
		}
		ratio, err := p.NDPRatio()
		if err != nil {
			return sim.Config{}, 0, err
		}
		return sim.Config{
			Work:           p.Work,
			MTTI:           p.MTTI,
			LocalInterval:  tau,
			DeltaLocal:     p.DeltaLocal(),
			DeltaErasure:   p.DeltaErasure(),
			ErasureEveryK:  p.ErasureEveryK,
			NDP:            true,
			DrainTime:      p.DrainTime(),
			NVMExclusive:   p.NVMExclusive,
			PLocal:         p.PLocal,
			PPartner:       p.PPartner,
			PErasure:       p.PErasure,
			RestoreLocal:   p.RestoreLocal(),
			RestorePartner: p.RestorePartner(),
			RestoreErasure: p.RestoreErasure(),
			RestoreIO:      p.RestoreIO(),
			Seed:           p.Seed,
		}, ratio, nil
	}
	return sim.Config{}, 0, errUnknownConfig(cfg)
}

// WithCompression returns p with the compression factor set (0 disables).
func WithCompression(p Params, factor float64) Params {
	p.CompressionFactor = factor
	return p
}

// WithPLocal returns p with the local-recovery probability set.
func WithPLocal(p Params, pl float64) Params {
	p.PLocal = pl
	return p
}

// WithLocalBW returns p with the node-local storage bandwidth set.
func WithLocalBW(p Params, bw units.Bandwidth) Params {
	p.LocalBW = bw
	return p
}
