// Package model implements the paper's performance model (§6.1): the three
// checkpoint/restart configurations (I/O Only, Local + I/O-Host,
// Local + I/O-NDP) with and without compression, parameter derivation from
// system bandwidths (Table 4), the empirical optimal local:I/O ratio search
// (Fig 4, Fig 5), and a fast first-order analytic approximation used for
// the ratio search and cross-checking the simulator.
package model

import (
	"errors"
	"fmt"
	"math"

	"ndpcr/internal/daly"
	"ndpcr/internal/units"
)

// Params carries the Table 4 evaluation parameters plus engine knobs.
type Params struct {
	// MTTI is the system mean time to interrupt.
	MTTI units.Seconds
	// CheckpointSize is the per-node checkpoint size.
	CheckpointSize units.Bytes
	// LocalBW is the compute-node local NVM read/write bandwidth.
	LocalBW units.Bandwidth
	// IOBW is the per-node share of global I/O bandwidth.
	IOBW units.Bandwidth

	// LocalInterval is the useful-compute interval between local
	// checkpoints; zero selects Daly's optimum for the local commit time.
	LocalInterval units.Seconds

	// PLocal is the probability a failure recovers from the local level.
	PLocal float64
	// PPartner is the probability a failure recovers from the partner
	// copy; PErasure the probability it recovers from the erasure set
	// (§3.4). PLocal+PPartner+PErasure must not exceed 1; the remainder
	// falls back to global I/O.
	PPartner float64
	PErasure float64

	// PartnerBW is the inter-node link bandwidth for partner copies and
	// erasure shard traffic; zero selects LocalBW (NVM-limited fabric).
	PartnerBW units.Bandwidth
	// ErasureGroup and ErasureParity are the redundancy-set geometry
	// (k data + m parity shards per checkpoint); ErasureParity zero
	// disables the level's costs. Parity 1 uses the XOR fast path.
	ErasureGroup  int
	ErasureParity int
	// ErasureEveryK erasure-encodes every k-th local checkpoint; zero
	// means every one.
	ErasureEveryK int
	// ErasureRate is the Reed-Solomon coding throughput per parity shard;
	// zero selects 16 GB/s (table-driven GF(2^8) on host cores). XOR
	// parity runs at 8× this rate.
	ErasureRate units.Bandwidth

	// CompressionFactor is 1 − compressed/uncompressed; zero disables
	// compression.
	CompressionFactor float64
	// HostCompressionRate is the aggregate host-side compression
	// throughput (§3.5: 64 threads × 10 MB/s = 640 MB/s).
	HostCompressionRate units.Bandwidth
	// NDPCompressionRate is the aggregate NDP compression throughput
	// (§5.3: 4 cores of gzip(1) = 440.4 MB/s).
	NDPCompressionRate units.Bandwidth
	// DecompressionRate is the host-side decompression throughput used on
	// restore (Table 4: 16 GB/s).
	DecompressionRate units.Bandwidth

	// Ratio is the locally-saved:I/O-saved checkpoint ratio for the host
	// configuration; zero selects the empirical optimum (§6.2).
	Ratio int
	// NVMExclusive pauses the NDP drain during host commits (§4.2.1).
	NVMExclusive bool
	// SerializeDrain disables the §4.2.2 overlap of NDP compression with
	// the network transfer: drain time becomes compress + write instead
	// of max(compress, write). Ablation knob.
	SerializeDrain bool

	// SerializeRestore disables the §4.3 overlap of checkpoint retrieval
	// with host decompression on restore-from-I/O: the naive path first
	// stages the compressed checkpoint, then decompresses, paying
	// fetch + decompress instead of max(fetch, decompress). Ablation knob.
	SerializeRestore bool

	// IncrementalRatio, when positive, enables incremental NDP drains
	// (the conclusion's proposed extension): only this fraction of the
	// checkpoint changes between consecutive I/O checkpoints, so the NDP
	// ships size × ratio (further compressed). Zero disables.
	IncrementalRatio float64
	// DiffRate is the NDP's block-digest scan throughput for incremental
	// drains (default 2 GB/s — a hash pass over NVM-resident data).
	DiffRate units.Bandwidth

	// ElasticSourceRanks and ElasticTargetRanks, when both positive,
	// model an elastic N→M restart (the restore planner): the job
	// checkpointed at SourceRanks restarts on TargetRanks, so each
	// restart rank fetches SourceRanks/TargetRanks checkpoints' worth of
	// bytes from global I/O and pays a reshape pass re-framing them into
	// its member snapshot. Both zero models same-shape restart.
	ElasticSourceRanks int
	ElasticTargetRanks int
	// ReshapeRate is the per-node shard re-framing throughput on elastic
	// restore (a memory-bandwidth-class copy over the fetched state);
	// zero selects 8 GB/s.
	ReshapeRate units.Bandwidth

	// Work is the simulated failure-free solve time.
	Work units.Seconds
	// Trials is the Monte-Carlo trial count.
	Trials int
	// Seed drives the simulation.
	Seed uint64
}

// DefaultParams returns Table 4's values on the projected exascale system,
// with engine defaults sized so a full figure regenerates in seconds.
func DefaultParams() Params {
	return Params{
		MTTI:                30 * units.Minute,
		CheckpointSize:      112 * units.GB,
		LocalBW:             15 * units.GBps,
		IOBW:                100 * units.MBps,
		LocalInterval:       150,
		PLocal:              0.85,
		CompressionFactor:   0,
		HostCompressionRate: 640 * units.MBps,
		NDPCompressionRate:  440.4 * units.MBps,
		DecompressionRate:   16 * units.GBps,
		DiffRate:            2 * units.GBps,
		Work:                100 * units.Hour,
		Trials:              30,
		Seed:                2017,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.MTTI <= 0:
		return errors.New("model: MTTI must be positive")
	case p.CheckpointSize <= 0:
		return errors.New("model: CheckpointSize must be positive")
	case p.LocalBW <= 0:
		return errors.New("model: LocalBW must be positive")
	case p.IOBW <= 0:
		return errors.New("model: IOBW must be positive")
	case p.PLocal < 0 || p.PLocal > 1:
		return errors.New("model: PLocal out of [0,1]")
	case p.PPartner < 0 || p.PPartner > 1:
		return errors.New("model: PPartner out of [0,1]")
	case p.PErasure < 0 || p.PErasure > 1:
		return errors.New("model: PErasure out of [0,1]")
	case p.PLocal+p.PPartner+p.PErasure > 1+1e-9:
		return errors.New("model: PLocal+PPartner+PErasure exceeds 1")
	case p.ErasureGroup < 0 || p.ErasureParity < 0 || p.ErasureEveryK < 0:
		return errors.New("model: negative erasure geometry")
	case p.ErasureParity > 0 && p.ErasureGroup < 2:
		return errors.New("model: erasure parity needs a group size of at least 2")
	case p.ErasureGroup+p.ErasureParity > 255:
		return errors.New("model: erasure group+parity exceeds 255 shards")
	case p.PErasure > 0 && p.ErasureParity < 1:
		return errors.New("model: PErasure set with no erasure parity")
	case p.CompressionFactor < 0 || p.CompressionFactor >= 1:
		return errors.New("model: CompressionFactor out of [0,1)")
	case p.CompressionFactor > 0 && p.HostCompressionRate <= 0:
		return errors.New("model: compression enabled with zero host rate")
	case p.CompressionFactor > 0 && p.NDPCompressionRate <= 0:
		return errors.New("model: compression enabled with zero NDP rate")
	case p.CompressionFactor > 0 && p.DecompressionRate <= 0:
		return errors.New("model: compression enabled with zero decompression rate")
	case p.Ratio < 0:
		return errors.New("model: Ratio must be >= 0")
	case p.Work <= 0:
		return errors.New("model: Work must be positive")
	case p.Trials <= 0:
		return errors.New("model: Trials must be positive")
	case p.LocalInterval < 0:
		return errors.New("model: LocalInterval must be >= 0")
	case p.IncrementalRatio < 0 || p.IncrementalRatio > 1:
		return errors.New("model: IncrementalRatio out of [0,1]")
	case p.IncrementalRatio > 0 && p.DiffRate <= 0:
		return errors.New("model: incremental drains enabled with zero DiffRate")
	case p.ElasticSourceRanks < 0 || p.ElasticTargetRanks < 0:
		return errors.New("model: negative elastic rank counts")
	case (p.ElasticSourceRanks > 0) != (p.ElasticTargetRanks > 0):
		return errors.New("model: elastic restart needs both source and target rank counts")
	}
	return nil
}

// CompressedSize returns the checkpoint size after compression.
func (p Params) CompressedSize() units.Bytes {
	return units.Bytes(float64(p.CheckpointSize) * (1 - p.CompressionFactor))
}

// DeltaLocal is the host stall to commit one checkpoint to local NVM.
// Local checkpoints are never compressed (§3.5: the required 12.44 GB/s
// compression rate is unreachable).
func (p Params) DeltaLocal() units.Seconds {
	return p.LocalBW.TimeToMove(p.CheckpointSize)
}

// DeltaIOHost is the host stall to write one checkpoint to global I/O.
// With compression, compressing overlaps the transfer (§3.5), so the stall
// is the slower of the two pipelines.
func (p Params) DeltaIOHost() units.Seconds {
	if p.CompressionFactor <= 0 {
		return p.IOBW.TimeToMove(p.CheckpointSize)
	}
	compressTime := p.HostCompressionRate.TimeToMove(p.CheckpointSize)
	writeTime := p.IOBW.TimeToMove(p.CompressedSize())
	return maxSeconds(compressTime, writeTime)
}

// DrainTime is the NDP wall time to move one checkpoint to global I/O.
// By default compression overlaps the transfer (§4.2.2); SerializeDrain
// adds them instead (the ablation). With incremental drains, only the
// changed fraction is compressed and shipped, but the digest scan covers
// the full checkpoint; all three stages pipeline.
func (p Params) DrainTime() units.Seconds {
	shipped := p.CheckpointSize
	var diffTime units.Seconds
	if p.IncrementalRatio > 0 {
		shipped = units.Bytes(float64(shipped) * p.IncrementalRatio)
		diffTime = p.DiffRate.TimeToMove(p.CheckpointSize)
	}
	if p.CompressionFactor <= 0 {
		return maxSeconds(diffTime, p.IOBW.TimeToMove(shipped))
	}
	compressTime := p.NDPCompressionRate.TimeToMove(shipped)
	writeTime := p.IOBW.TimeToMove(units.Bytes(float64(shipped) * (1 - p.CompressionFactor)))
	if p.SerializeDrain {
		return diffTime + compressTime + writeTime
	}
	return maxSeconds(diffTime, maxSeconds(compressTime, writeTime))
}

// RestoreLocal is the stall to restore from the local level.
func (p Params) RestoreLocal() units.Seconds {
	return p.LocalBW.TimeToMove(p.CheckpointSize)
}

// partnerBW resolves the inter-node link bandwidth.
func (p Params) partnerBW() units.Bandwidth {
	if p.PartnerBW > 0 {
		return p.PartnerBW
	}
	return p.LocalBW
}

// eraRate resolves the Reed-Solomon coding throughput.
func (p Params) eraRate() units.Bandwidth {
	if p.ErasureRate > 0 {
		return p.ErasureRate
	}
	return 16 * units.GBps
}

// erasureCodeTime is the coding cost for one checkpoint: m passes over the
// data for m parity shards, or a single XOR pass at 8× the table-driven
// rate when m = 1. Local checkpoints are never compressed (§3.5), so the
// code runs over the full size.
func (p Params) erasureCodeTime() units.Seconds {
	m := p.ErasureParity
	if m <= 0 {
		return 0
	}
	if m == 1 {
		return (8 * p.eraRate()).TimeToMove(p.CheckpointSize)
	}
	return p.eraRate().TimeToMove(units.Bytes(float64(p.CheckpointSize) * float64(m)))
}

// DeltaErasure is the host stall to erasure-encode one checkpoint and ship
// its k+m shards to the redundancy set: coding pipelines with the shard
// transfer, so the stall is the slower of the two. Zero when the level is
// disabled.
func (p Params) DeltaErasure() units.Seconds {
	if p.ErasureParity <= 0 {
		return 0
	}
	k, m := p.ErasureGroup, p.ErasureParity
	shipped := units.Bytes(float64(p.CheckpointSize) * float64(k+m) / float64(k))
	return maxSeconds(p.erasureCodeTime(), p.partnerBW().TimeToMove(shipped))
}

// RestorePartner is the stall to restore from the buddy's partner copy:
// one checkpoint over the inter-node link.
func (p Params) RestorePartner() units.Seconds {
	return p.partnerBW().TimeToMove(p.CheckpointSize)
}

// RestoreErasure is the stall to reconstruct from the erasure set: k
// shards (one checkpoint's worth of bytes) fetched over the inter-node
// link, pipelined with the decode.
func (p Params) RestoreErasure() units.Seconds {
	if p.ErasureParity <= 0 {
		return 0
	}
	fetch := p.partnerBW().TimeToMove(p.CheckpointSize)
	return maxSeconds(fetch, p.erasureCodeTime())
}

// reshapeRate resolves the elastic re-framing throughput.
func (p Params) reshapeRate() units.Bandwidth {
	if p.ReshapeRate > 0 {
		return p.ReshapeRate
	}
	return 8 * units.GBps
}

// RestoreElastic is the stall for an elastic N→M restore from global I/O:
// each restart rank fetches SourceRanks/TargetRanks checkpoints' worth of
// bytes — streamed and decompressed exactly like RestoreIO — and then
// re-frames the shards into its member snapshot at ReshapeRate. A
// same-shape restart (N == M, or elastic fields unset) plans an identity
// reshape, pays no re-framing pass, and reduces to the classic term.
func (p Params) RestoreElastic() units.Seconds {
	pv := p
	pv.ElasticSourceRanks, pv.ElasticTargetRanks = 0, 0
	if p.ElasticSourceRanks <= 0 || p.ElasticTargetRanks <= 0 ||
		p.ElasticSourceRanks == p.ElasticTargetRanks {
		return pv.RestoreIO()
	}
	scale := float64(p.ElasticSourceRanks) / float64(p.ElasticTargetRanks)
	pv.CheckpointSize = units.Bytes(float64(p.CheckpointSize)*scale + 0.5)
	return pv.RestoreIO() + p.reshapeRate().TimeToMove(pv.CheckpointSize)
}

// RestoreIO is the stall to restore from global I/O. With compression the
// retrieval streams directly to the host, which decompresses in a pipeline
// (§4.3), so the stall is the slower of retrieval and decompression. With
// an elastic restart configured it delegates to RestoreElastic, so the
// reshape cost flows into every figure built on this term.
func (p Params) RestoreIO() units.Seconds {
	if p.ElasticSourceRanks > 0 && p.ElasticTargetRanks > 0 {
		return p.RestoreElastic()
	}
	if p.CompressionFactor <= 0 {
		return p.IOBW.TimeToMove(p.CheckpointSize)
	}
	fetch := p.IOBW.TimeToMove(p.CompressedSize())
	decompress := p.DecompressionRate.TimeToMove(p.CheckpointSize)
	if p.SerializeRestore {
		// The naive path additionally stages the compressed checkpoint in
		// local NVM before decompressing from there (§4.3).
		stage := p.LocalBW.TimeToMove(p.CompressedSize())
		return fetch + stage + decompress
	}
	return maxSeconds(fetch, decompress)
}

// EffectiveLocalInterval resolves the local checkpoint interval: the
// configured value, or Daly's optimum for the local commit time.
func (p Params) EffectiveLocalInterval() (units.Seconds, error) {
	if p.LocalInterval > 0 {
		return p.LocalInterval, nil
	}
	tau, err := daly.OptimalInterval(p.DeltaLocal(), p.MTTI)
	if err != nil {
		return 0, fmt.Errorf("model: deriving local interval: %w", err)
	}
	return tau, nil
}

// NDPRatio returns the drain-limited locally-saved:I/O-saved ratio for the
// NDP configuration (Fig 5's single per-factor value): the NDP drains as
// fast as it can, so one of every ceil(drain / period) local checkpoints
// reaches I/O.
func (p Params) NDPRatio() (int, error) {
	tau, err := p.EffectiveLocalInterval()
	if err != nil {
		return 0, err
	}
	period := float64(tau) + float64(p.DeltaLocal())
	drain := float64(p.DrainTime())
	if p.NVMExclusive {
		// Host commits steal NVM bandwidth for DeltaLocal out of every
		// period; stretch the drain by that duty cycle.
		busy := float64(p.DeltaLocal()) / period
		if busy < 1 {
			drain /= 1 - busy
		}
	}
	k := int(math.Ceil(drain / period))
	if k < 1 {
		k = 1
	}
	return k, nil
}

func maxSeconds(a, b units.Seconds) units.Seconds {
	if a > b {
		return a
	}
	return b
}
