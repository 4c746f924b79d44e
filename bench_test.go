// Package ndpcr's root benchmark harness: one benchmark per table and
// figure in the paper's evaluation (run `go test -bench=. -benchmem`), plus
// throughput benchmarks for the substrates the results depend on (codecs,
// the node runtime's commit/drain/restore paths, and the simulator core).
//
// Each BenchmarkFigN/BenchmarkTableN measures the full regeneration of that
// experiment's data; the printed experiment values themselves come from
// `ndpcr-experiments`.
package ndpcr_test

import (
	"bytes"
	"context"
	"testing"

	"ndpcr/internal/compress"
	"ndpcr/internal/daly"
	"ndpcr/internal/erasure"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/model"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/projection"
	"ndpcr/internal/sim"
	"ndpcr/internal/study"
	"ndpcr/internal/units"
)

// benchParams is a reduced Monte-Carlo budget so the full suite stays in
// benchmark territory rather than experiment territory.
func benchParams() model.Params {
	p := model.DefaultParams()
	p.Work = 10 * units.Hour
	p.Trials = 4
	return p
}

func BenchmarkFig1(b *testing.B) {
	ratios := []float64{2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
	for i := 0; i < b.N; i++ {
		if _, err := daly.Curve(ratios); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exa := projection.Exascale(projection.Titan(), projection.DefaultScaling())
		if _, err := projection.Derive(exa, 0.90, 0.80); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	// One live study cell per iteration: HPCCG × gzip(1) on the small
	// problem, the unit the full Table 2 is built from.
	gz, _ := compress.Lookup("gzip", 1)
	cfg := study.Config{
		Apps:        []string{"HPCCG"},
		Codecs:      []compress.Codec{gz},
		Size:        miniapps.Small,
		StepsPerApp: 8,
		Seed:        1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	res := study.PaperResults()
	for i := 0; i < b.N; i++ {
		if _, err := res.Table3(100*units.MBps, 112*units.GB); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := model.Fig4(p, []int{1, 8, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := model.Fig5(p, []float64{0.2, 0.8}, []float64{0, 0.728}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	p := benchParams()
	groups := []struct {
		Name   string
		Factor float64
	}{{"None", 0}, {"Average", 0.728}}
	for i := 0; i < b.N; i++ {
		if _, err := model.Fig6(p, groups, []float64{0.2, 0.8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := model.Fig7(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := model.Fig8(p, 140*units.GB, []float64{0.1, 0.8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	p := benchParams()
	mttis := []units.Seconds{30 * units.Minute, 150 * units.Minute}
	for i := 0; i < b.N; i++ {
		if _, err := model.Fig9(p, mttis); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate benchmarks ---

// checkpointData builds a realistic checkpoint payload once per size.
func checkpointData(b *testing.B, size miniapps.Size) []byte {
	b.Helper()
	app, err := miniapps.New("HPCCG", size, 7)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		app.Step()
	}
	var buf bytes.Buffer
	if err := app.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkCodecs(b *testing.B) {
	data := checkpointData(b, miniapps.Small)
	for _, c := range compress.StudySet() {
		c := c
		b.Run("compress/"+compress.ID(c), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var dst []byte
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = c.Compress(dst[:0], data)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decompress/"+compress.ID(c), func(b *testing.B) {
			comp, err := c.Compress(nil, data)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			var dst []byte
			for i := 0; i < b.N; i++ {
				dst, err = c.Decompress(dst[:0], comp)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulatorTrial(b *testing.B) {
	cfg := sim.Config{
		Work:          100 * units.Hour,
		MTTI:          30 * units.Minute,
		LocalInterval: 150,
		DeltaLocal:    7.47,
		NDP:           true,
		DrainTime:     302.4,
		PLocal:        0.85,
		RestoreLocal:  7.47,
		RestoreIO:     302.4,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeCommit(b *testing.B) {
	store := iostore.New(nvm.Pacer{})
	n, err := node.New(node.Config{Job: "bench", Store: store, DisableNDP: true,
		NVMCapacity: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	data := checkpointData(b, miniapps.Small)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := n.Commit(context.Background(), data, node.Metadata{Step: i}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeDrainAndRestore(b *testing.B) {
	gz, _ := compress.Lookup("gzip", 1)
	data := checkpointData(b, miniapps.Small)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		store := iostore.New(nvm.Pacer{})
		n, err := node.New(node.Config{Job: "bench", Store: store, Codec: gz,
			NVMCapacity: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		id, err := n.Commit(context.Background(), data, node.Metadata{Step: i})
		if err != nil {
			b.Fatal(err)
		}
		if err := n.WaitDurableCtx(context.Background(), id, ndp.LevelStore); err != nil {
			b.Fatal(err)
		}
		n.FailLocal()
		got, _, level, err := n.Restore(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if level != node.LevelIO || len(got) != len(data) {
			b.Fatal("bad restore")
		}
		n.Close()
	}
}

func BenchmarkMiniAppStep(b *testing.B) {
	for _, name := range miniapps.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			app, err := miniapps.New(name, miniapps.Small, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := app.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMiniAppCheckpoint(b *testing.B) {
	for _, name := range miniapps.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			app, err := miniapps.New(name, miniapps.Small, 7)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := app.Checkpoint(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := app.Checkpoint(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// erasureShards builds an encoded shard set at 112 MB/rank — the paper's
// 112 GB per-node checkpoint scaled by 1024 for benchmark turnaround,
// large enough to be table-lookup-bound like the real hot path.
func erasureShards(b *testing.B, code *erasure.Code, size int) ([]byte, [][]byte) {
	b.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 2654435761)
	}
	shards, err := erasure.Split(data, code.K())
	if err != nil {
		b.Fatal(err)
	}
	shards = append(shards, make([][]byte, code.M())...)
	if err := code.Encode(shards); err != nil {
		b.Fatal(err)
	}
	return data, shards
}

func BenchmarkErasureEncode(b *testing.B) {
	code, err := erasure.New(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	const size = 112 << 20
	_, shards := erasureShards(b, code, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErasureReconstruct(b *testing.B) {
	code, err := erasure.New(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	const size = 112 << 20
	_, shards := erasureShards(b, code, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Lose one data and one parity shard each round — the worst case
		// that still requires a matrix solve.
		shards[0] = nil
		shards[8] = nil
		if err := code.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
