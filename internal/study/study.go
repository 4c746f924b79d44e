// Package study implements the paper's compression study (§5): collecting
// checkpoints from the mini-apps at ~25/50/75% of a run, measuring
// compression factor and speed for every codec (Table 2), and deriving the
// NDP compression configuration — required speed, core count, and minimum
// I/O checkpoint interval (§4.4 and Table 3).
package study

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/units"
)

// Measurement is one (app, codec) cell of Table 2.
type Measurement struct {
	App   string
	Codec string

	UncompressedBytes int64
	CompressedBytes   int64
	CompressSeconds   float64
	DecompressSeconds float64
}

// Factor returns the compression factor 1 − compressed/uncompressed.
func (m Measurement) Factor() float64 {
	return compress.Factor(int(m.UncompressedBytes), int(m.CompressedBytes))
}

// CompressSpeed returns single-thread compression throughput over the
// uncompressed size, the paper's MB/s metric.
func (m Measurement) CompressSpeed() units.Bandwidth {
	if m.CompressSeconds <= 0 {
		return 0
	}
	return units.Bandwidth(float64(m.UncompressedBytes) / m.CompressSeconds)
}

// DecompressSpeed returns single-thread decompression throughput over the
// uncompressed size.
func (m Measurement) DecompressSpeed() units.Bandwidth {
	if m.DecompressSeconds <= 0 {
		return 0
	}
	return units.Bandwidth(float64(m.UncompressedBytes) / m.DecompressSeconds)
}

// Config controls a study run.
type Config struct {
	// Apps to measure; nil means all registered mini-apps.
	Apps []string
	// Codecs to measure; nil means the paper's study set.
	Codecs []compress.Codec
	// Size selects the mini-app problem scale.
	Size miniapps.Size
	// StepsPerApp is the length of each app's run; checkpoints are taken
	// at 25%, 50% and 75% of it, as in §5.1.1.
	StepsPerApp int
	// Seed drives app initialization.
	Seed uint64
}

// DefaultConfig returns a configuration mirroring §5.1: every app, the
// Table 2 codec set, three checkpoints per app.
func DefaultConfig() Config {
	return Config{
		Size:        miniapps.Small,
		StepsPerApp: 12,
		Seed:        2017,
	}
}

// Results holds all measurements of a study run.
type Results struct {
	Measurements []Measurement
}

// Run executes the study: for each app, run StepsPerApp steps, snapshot at
// the 25/50/75% marks, and measure every codec on the concatenated
// checkpoint data.
func Run(cfg Config) (*Results, error) {
	apps := cfg.Apps
	if apps == nil {
		apps = miniapps.Names()
	}
	codecs := cfg.Codecs
	if codecs == nil {
		codecs = compress.StudySet()
	}
	if cfg.StepsPerApp < 4 {
		return nil, fmt.Errorf("study: StepsPerApp %d too small to place 25/50/75%% checkpoints", cfg.StepsPerApp)
	}

	res := &Results{}
	for _, name := range apps {
		app, err := miniapps.New(name, cfg.Size, cfg.Seed)
		if err != nil {
			return nil, err
		}
		marks := map[int]bool{
			cfg.StepsPerApp / 4:     true,
			cfg.StepsPerApp / 2:     true,
			cfg.StepsPerApp * 3 / 4: true,
		}
		var data bytes.Buffer
		for s := 1; s <= cfg.StepsPerApp; s++ {
			if err := app.Step(); err != nil {
				return nil, fmt.Errorf("study: %s step %d: %w", name, s, err)
			}
			if marks[s] {
				if err := app.Checkpoint(&data); err != nil {
					return nil, fmt.Errorf("study: %s checkpoint: %w", name, err)
				}
			}
		}
		for _, c := range codecs {
			m, err := measure(name, c, data.Bytes())
			if err != nil {
				return nil, err
			}
			res.Measurements = append(res.Measurements, m)
		}
	}
	return res, nil
}

func measure(app string, c compress.Codec, data []byte) (Measurement, error) {
	start := time.Now()
	comp, err := c.Compress(nil, data)
	compDur := time.Since(start)
	if err != nil {
		return Measurement{}, fmt.Errorf("study: %s with %s: %w", app, compress.ID(c), err)
	}
	start = time.Now()
	plain, err := c.Decompress(nil, comp)
	decompDur := time.Since(start)
	if err != nil {
		return Measurement{}, fmt.Errorf("study: %s decompress with %s: %w", app, compress.ID(c), err)
	}
	if !bytes.Equal(plain, data) {
		return Measurement{}, fmt.Errorf("study: %s with %s: round trip mismatch", app, compress.ID(c))
	}
	return Measurement{
		App:               app,
		Codec:             compress.ID(c),
		UncompressedBytes: int64(len(data)),
		CompressedBytes:   int64(len(comp)),
		CompressSeconds:   compDur.Seconds(),
		DecompressSeconds: decompDur.Seconds(),
	}, nil
}

// Codecs returns the distinct codec IDs present, preserving first-seen
// order (the Table 2 column order).
func (r *Results) Codecs() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range r.Measurements {
		if !seen[m.Codec] {
			seen[m.Codec] = true
			out = append(out, m.Codec)
		}
	}
	return out
}

// Apps returns the distinct app names present, sorted.
func (r *Results) Apps() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range r.Measurements {
		if !seen[m.App] {
			seen[m.App] = true
			out = append(out, m.App)
		}
	}
	sort.Strings(out)
	return out
}

// Cell returns the measurement for (app, codec).
func (r *Results) Cell(app, codec string) (Measurement, bool) {
	for _, m := range r.Measurements {
		if m.App == app && m.Codec == codec {
			return m, true
		}
	}
	return Measurement{}, false
}

// AverageFactor returns the mean compression factor across apps for a
// codec, the paper's "Average" Table 2 row.
func (r *Results) AverageFactor(codec string) float64 {
	sum, n := 0.0, 0
	for _, m := range r.Measurements {
		if m.Codec == codec {
			sum += m.Factor()
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// AverageSpeed returns the mean single-thread compression speed across apps
// for a codec.
func (r *Results) AverageSpeed(codec string) units.Bandwidth {
	sum, n := 0.0, 0
	for _, m := range r.Measurements {
		if m.Codec == codec {
			sum += float64(m.CompressSpeed())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return units.Bandwidth(sum / float64(n))
}

// speedRanks is Table 2's order of compress speed, fastest first: lz4(1),
// gzip(1), gzip(6), and far behind them the BWT and range-coder codecs,
// which the paper does not rank among themselves.
var speedRanks = [][]string{
	{"lz4(1)"}, {"gzip(1)"}, {"gzip(6)"}, {"bwz(1)", "bwz(9)", "lzr(1)", "lzr(6)"},
}

// SpeedOrder is one adjacent pair of Table 2's compress-speed order, as this
// run measured it.
type SpeedOrder struct {
	Faster, Slower           string
	FasterSpeed, SlowerSpeed units.Bandwidth
}

// OK reports whether the run reproduced the pair's order. It compares two
// averages taken in one run on one host; no absolute speed is involved.
func (o SpeedOrder) OK() bool { return o.FasterSpeed > o.SlowerSpeed }

// SpeedOrders returns every pair of codecs from adjacent ranks of Table 2's
// compress-speed order that this run measured both of.
func (r *Results) SpeedOrders() []SpeedOrder {
	var out []SpeedOrder
	for i := 0; i+1 < len(speedRanks); i++ {
		for _, fast := range speedRanks[i] {
			for _, slow := range speedRanks[i+1] {
				f, s := r.AverageSpeed(fast), r.AverageSpeed(slow)
				if f > 0 && s > 0 {
					out = append(out, SpeedOrder{fast, slow, f, s})
				}
			}
		}
	}
	return out
}
