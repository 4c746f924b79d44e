// Command ndpcr-study runs the live compression study (§5): it steps every
// mini-app, collects checkpoints at 25/50/75% of the run, measures every
// codec, and prints Table 2/Table 3 analogues for this machine, optionally
// as CSV. The table run ends with a check of Table 2's compress-speed order
// and exits non-zero when this host did not reproduce it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"ndpcr/internal/compress"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/report"
	"ndpcr/internal/study"
	"ndpcr/internal/units"
)

func main() {
	var (
		sizeName = flag.String("size", "small", "problem size: small, medium, large")
		steps    = flag.Int("steps", 12, "steps per mini-app run")
		seed     = flag.Uint64("seed", 2017, "app initialization seed")
		apps     = flag.String("apps", "", "comma-separated mini-apps (default: all)")
		codecs   = flag.String("codecs", "", `comma-separated codecs like "gzip(1),lz4(1)" (default: study set)`)
		csvOut   = flag.Bool("csv", false, "emit CSV instead of a table")
		ioMBps   = flag.Float64("io-bw", 100, "per-node I/O bandwidth for the Table 3 analysis, MB/s")
		ckptStr  = flag.String("ckpt-size", "112GB", "per-node checkpoint size for the Table 3 analysis")
		scaling  = flag.Bool("scaling", false, "measure multi-worker compression scaling instead "+
			"(Table 3's linear-core-scaling assumption)")
	)
	flag.Parse()

	if *scaling {
		runScaling(*seed)
		return
	}

	cfg := study.Config{StepsPerApp: *steps, Seed: *seed}
	switch strings.ToLower(*sizeName) {
	case "small":
		cfg.Size = miniapps.Small
	case "medium":
		cfg.Size = miniapps.Medium
	case "large":
		cfg.Size = miniapps.Large
	default:
		fatal(fmt.Errorf("unknown -size %q", *sizeName))
	}
	if *apps != "" {
		cfg.Apps = strings.Split(*apps, ",")
	}
	if *codecs != "" {
		for _, id := range strings.Split(*codecs, ",") {
			id = strings.TrimSpace(id)
			open := strings.IndexByte(id, '(')
			if open <= 0 || !strings.HasSuffix(id, ")") {
				fatal(fmt.Errorf("bad codec id %q (want e.g. gzip(1))", id))
			}
			var level int
			if _, err := fmt.Sscanf(id[open+1:len(id)-1], "%d", &level); err != nil {
				fatal(fmt.Errorf("bad codec level in %q: %v", id, err))
			}
			c, err := compress.Lookup(id[:open], level)
			if err != nil {
				fatal(err)
			}
			cfg.Codecs = append(cfg.Codecs, c)
		}
	}

	res, err := study.Run(cfg)
	if err != nil {
		fatal(err)
	}

	if *csvOut {
		rows := [][]string{}
		for _, m := range res.Measurements {
			rows = append(rows, []string{
				m.App, m.Codec,
				fmt.Sprintf("%d", m.UncompressedBytes),
				fmt.Sprintf("%d", m.CompressedBytes),
				fmt.Sprintf("%.4f", m.Factor()),
				fmt.Sprintf("%.2f", float64(m.CompressSpeed())/1e6),
				fmt.Sprintf("%.2f", float64(m.DecompressSpeed())/1e6),
			})
		}
		if err := report.CSV(os.Stdout, []string{
			"app", "codec", "uncompressed_bytes", "compressed_bytes",
			"factor", "compress_MBps", "decompress_MBps"}, rows); err != nil {
			fatal(err)
		}
		return
	}

	tab := &report.Table{
		Title:   fmt.Sprintf("Live compression study (%s problems, %d steps)", *sizeName, *steps),
		Headers: append([]string{"Mini-app", "Ckpt data"}, res.Codecs()...),
	}
	for _, app := range res.Apps() {
		row := []any{app}
		var size int64
		cells := []any{}
		for _, codec := range res.Codecs() {
			m, _ := res.Cell(app, codec)
			size = m.UncompressedBytes
			cells = append(cells, fmt.Sprintf("%.1f%% / %.1f MB/s",
				m.Factor()*100, float64(m.CompressSpeed())/1e6))
		}
		row = append(row, units.Bytes(size).String())
		row = append(row, cells...)
		tab.AddRow(row...)
	}
	avg := []any{"Average", ""}
	for _, codec := range res.Codecs() {
		avg = append(avg, fmt.Sprintf("%.1f%% / %.1f MB/s",
			res.AverageFactor(codec)*100, float64(res.AverageSpeed(codec))/1e6))
	}
	tab.AddRow(avg...)
	tab.Fprint(os.Stdout)

	ckptSize, err := units.ParseBytes(*ckptStr)
	if err != nil {
		fatal(err)
	}
	configs, err := res.Table3(units.Bandwidth(*ioMBps)*units.MBps, ckptSize)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	t3 := &report.Table{
		Title:   "NDP configuration from measured data (Table 3 analogue)",
		Headers: []string{"Utility", "Required speed", "NDP cores", "Min I/O interval"},
	}
	for _, c := range configs {
		t3.AddRow(c.Utility, c.RequiredSpeed.String(), fmt.Sprintf("%d", c.Cores),
			c.MinIOInterval.String())
	}
	t3.Fprint(os.Stdout)

	// Table 2's order of compress speed, as ratios of this run's own
	// averages: the one thing about speed that should hold on any host.
	fmt.Println("\nCompress-speed order (Table 2: lz4(1) > gzip(1) > gzip(6) >> bwz, lzr):")
	failed := false
	for _, o := range res.SpeedOrders() {
		verdict := "PASS"
		if !o.OK() {
			verdict, failed = "FAIL", true
		}
		fmt.Printf("  %s  %s > %s  (%.1f vs %.1f MB/s, %.2fx)\n", verdict, o.Faster, o.Slower,
			float64(o.FasterSpeed)/1e6, float64(o.SlowerSpeed)/1e6, float64(o.FasterSpeed)/float64(o.SlowerSpeed))
	}
	if failed {
		fatal(fmt.Errorf("compress-speed order not reproduced"))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ndpcr-study: %v\n", err)
	os.Exit(1)
}

// runScaling sweeps worker counts for gzip(1) on HPCCG checkpoints,
// checking Table 3's assumption that compression throughput scales with
// NDP core count.
func runScaling(seed uint64) {
	gz, err := compress.Lookup("gzip", 1)
	if err != nil {
		fatal(err)
	}
	workers := []int{1, 2, 4, 8}
	pts, err := study.MeasureScaling("HPCCG", miniapps.Medium, gz, workers, 3, seed)
	if err != nil {
		fatal(err)
	}
	tab := &report.Table{
		Title:   "Compression scaling, gzip(1) on HPCCG checkpoints (Table 3's core assumption)",
		Headers: []string{"Workers", "Throughput", "Speedup"},
	}
	for _, p := range pts {
		tab.AddRow(fmt.Sprintf("%d", p.Workers), p.Speed.String(),
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	tab.Fprint(os.Stdout)
	fmt.Printf("\n(GOMAXPROCS here: %d — scaling saturates at the physical core count.)\n",
		runtime.GOMAXPROCS(0))
}
