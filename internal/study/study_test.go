package study

import (
	"math"
	"testing"

	"ndpcr/internal/compress"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/units"
)

func TestPaperTable2Complete(t *testing.T) {
	if len(PaperUtilityOrder) != 7 || len(PaperAppNames) != 7 {
		t.Fatal("paper table dimensions wrong")
	}
	for _, u := range PaperUtilityOrder {
		cells, ok := PaperTable2[u]
		if !ok {
			t.Fatalf("missing utility %s", u)
		}
		for _, app := range PaperAppNames {
			c, ok := cells[app]
			if !ok {
				t.Fatalf("missing cell %s/%s", u, app)
			}
			if c.Factor <= 0 || c.Factor >= 1 || c.Speed <= 0 {
				t.Errorf("%s/%s: implausible cell %+v", u, app, c)
			}
		}
	}
}

func TestPaperAveragesMatchPublished(t *testing.T) {
	// Table 2's published "Average" row.
	cases := []struct {
		utility string
		factor  float64
		speed   float64 // MB/s
	}{
		{"gzip(1)", 0.728, 110.1},
		{"gzip(6)", 0.747, 50.6},
		{"bwz(1)", 0.755, 12.1},
		{"bwz(9)", 0.763, 10.5},
		{"lzr(1)", 0.806, 25.3},
		{"lzr(6)", 0.833, 4.8},
		{"lz4(1)", 0.648, 441.9},
	}
	for _, c := range cases {
		if got := PaperAverageFactor(c.utility); math.Abs(got-c.factor) > 0.005 {
			t.Errorf("%s: avg factor %v, paper %v", c.utility, got, c.factor)
		}
		if got := float64(PaperAverageSpeed(c.utility)) / 1e6; math.Abs(got-c.speed) > 0.5 {
			t.Errorf("%s: avg speed %v MB/s, paper %v", c.utility, got, c.speed)
		}
	}
	if PaperAverageFactor("nope") != 0 || PaperAverageSpeed("nope") != 0 {
		t.Error("unknown utility should return zero")
	}
}

func TestConfigureNDPReproducesTable3(t *testing.T) {
	// Table 3, derived from Table 2 averages at 100 MB/s per-node I/O and
	// 112 GB checkpoints.
	perNode := units.Bandwidth(100 * units.MBps)
	size := 112 * units.GB
	cases := []struct {
		utility  string
		reqMBps  float64
		cores    int
		interval float64 // seconds
	}{
		{"gzip(1)", 367, 4, 305},
		{"gzip(6)", 395, 8, 283},
		{"bwz(1)", 407, 34, 275},
		{"bwz(9)", 421, 41, 266},
		{"lzr(1)", 515, 21, 217},
		{"lzr(6)", 596, 125, 188},
		{"lz4(1)", 283, 1, 395},
	}
	for _, c := range cases {
		cfg, err := ConfigureNDP(c.utility, PaperAverageFactor(c.utility),
			PaperAverageSpeed(c.utility), perNode, size)
		if err != nil {
			t.Fatalf("%s: %v", c.utility, err)
		}
		if got := float64(cfg.RequiredSpeed) / 1e6; math.Abs(got-c.reqMBps) > c.reqMBps*0.02 {
			t.Errorf("%s: required speed %.0f MB/s, paper %v", c.utility, got, c.reqMBps)
		}
		if cfg.Cores != c.cores {
			t.Errorf("%s: cores %d, paper %d", c.utility, cfg.Cores, c.cores)
		}
		if got := float64(cfg.MinIOInterval); math.Abs(got-c.interval) > c.interval*0.02 {
			t.Errorf("%s: interval %.0f s, paper %v s", c.utility, got, c.interval)
		}
	}
}

func TestConfigureNDPValidation(t *testing.T) {
	perNode := units.Bandwidth(100 * units.MBps)
	for _, c := range []struct {
		factor float64
		speed  units.Bandwidth
		io     units.Bandwidth
		size   units.Bytes
	}{
		{-0.1, 1, perNode, units.GB},
		{1.0, 1, perNode, units.GB},
		{0.5, 0, perNode, units.GB},
		{0.5, 1, 0, units.GB},
		{0.5, 1, perNode, 0},
	} {
		if _, err := ConfigureNDP("x", c.factor, c.speed, c.io, c.size); err == nil {
			t.Errorf("ConfigureNDP(%+v) should fail", c)
		}
	}
}

func TestChooseUtilityPrefersGzip1(t *testing.T) {
	// §5.3: with a small NDP core budget, gzip(1) wins: shortest interval
	// among codecs needing ≤ 4 cores.
	r := PaperResults()
	configs, err := r.Table3(100*units.MBps, 112*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	best, err := ChooseUtility(configs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if best.Utility != "gzip(1)" {
		t.Errorf("4-core budget chose %s, want gzip(1)", best.Utility)
	}
	// With a single core only lz4 fits.
	best, err = ChooseUtility(configs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best.Utility != "lz4(1)" {
		t.Errorf("1-core budget chose %s, want lz4(1)", best.Utility)
	}
	if _, err := ChooseUtility(configs, 0); err == nil {
		t.Error("0-core budget should fail")
	}
}

func TestPaperResultsRoundTrip(t *testing.T) {
	r := PaperResults()
	if len(r.Measurements) != 49 {
		t.Fatalf("got %d measurements, want 49", len(r.Measurements))
	}
	m, ok := r.Cell("CoMD", "gzip(1)")
	if !ok {
		t.Fatal("missing CoMD/gzip(1)")
	}
	if math.Abs(m.Factor()-0.842) > 0.001 {
		t.Errorf("CoMD gzip(1) factor = %v", m.Factor())
	}
	if math.Abs(float64(m.CompressSpeed())/1e6-153.7) > 0.5 {
		t.Errorf("CoMD gzip(1) speed = %v", m.CompressSpeed())
	}
	if len(r.Codecs()) != 7 || len(r.Apps()) != 7 {
		t.Errorf("codecs=%d apps=%d", len(r.Codecs()), len(r.Apps()))
	}
	if _, ok := r.Cell("CoMD", "nope"); ok {
		t.Error("bogus cell found")
	}
}

func TestLiveStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("live study is slow")
	}
	// Small live study: two apps, two fast codecs.
	gz, _ := compress.Lookup("gzip", 1)
	lz, _ := compress.Lookup("lz4", 1)
	cfg := Config{
		Apps:        []string{"HPCCG", "miniMD"},
		Codecs:      []compress.Codec{gz, lz},
		Size:        miniapps.Small,
		StepsPerApp: 8,
		Seed:        7,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurements) != 4 {
		t.Fatalf("got %d measurements", len(res.Measurements))
	}
	for _, m := range res.Measurements {
		if m.UncompressedBytes <= 0 || m.CompressedBytes <= 0 {
			t.Errorf("%s/%s: empty measurement", m.App, m.Codec)
		}
		// lz4 finds almost nothing in small CG Krylov vectors (near-random
		// doubles); its raw fallback bounds expansion to one frame byte.
		if m.Factor() < -1e-5 {
			t.Errorf("%s/%s: factor %v (expansion beyond raw fallback)", m.App, m.Codec, m.Factor())
		}
		if m.CompressSpeed() <= 0 || m.DecompressSpeed() <= 0 {
			t.Errorf("%s/%s: zero speed", m.App, m.Codec)
		}
	}
	// gzip should out-compress lz4 on the same data.
	g, _ := res.Cell("HPCCG", "gzip(1)")
	l, _ := res.Cell("HPCCG", "lz4(1)")
	if g.Factor() <= l.Factor() {
		t.Errorf("gzip(1) factor %v not above lz4(1) %v", g.Factor(), l.Factor())
	}
	if res.AverageFactor("gzip(1)") <= 0 || res.AverageSpeed("gzip(1)") <= 0 {
		t.Error("averages not computed")
	}
}

// TestSpeedOrders: the Table 2 order check pairs adjacent ranks only, skips
// codecs the run did not measure, and fails a pair measured the wrong way
// round.
func TestSpeedOrders(t *testing.T) {
	cell := func(codec string, mbps float64) Measurement {
		return Measurement{App: "a", Codec: codec, UncompressedBytes: 1e6, CompressedBytes: 5e5, CompressSeconds: 1 / mbps}
	}
	r := &Results{Measurements: []Measurement{
		cell("lz4(1)", 400), cell("gzip(1)", 450), cell("gzip(6)", 30), cell("bwz(9)", 8), cell("lzr(1)", 35),
	}}
	got := map[string]bool{}
	for _, o := range r.SpeedOrders() {
		got[o.Faster+">"+o.Slower] = o.OK()
	}
	want := map[string]bool{"lz4(1)>gzip(1)": false, "gzip(1)>gzip(6)": true, "gzip(6)>bwz(9)": true, "gzip(6)>lzr(1)": false}
	if len(got) != len(want) {
		t.Fatalf("pairs %v, want %v", got, want)
	}
	for pair, ok := range want {
		if v, seen := got[pair]; !seen || v != ok {
			t.Errorf("%s: checked %v, OK %v; want OK %v", pair, seen, v, ok)
		}
	}
}

func TestStudyValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StepsPerApp = 2
	if _, err := Run(cfg); err == nil {
		t.Error("tiny StepsPerApp accepted")
	}
	cfg = DefaultConfig()
	cfg.Apps = []string{"bogus"}
	if _, err := Run(cfg); err == nil {
		t.Error("bogus app accepted")
	}
}

func TestAverageOfUnknownCodec(t *testing.T) {
	r := &Results{}
	if !math.IsNaN(r.AverageFactor("x")) {
		t.Error("empty results should give NaN factor")
	}
	if r.AverageSpeed("x") != 0 {
		t.Error("empty results should give zero speed")
	}
}
