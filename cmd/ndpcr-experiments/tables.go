package main

import (
	"fmt"
	"os"
	"runtime"

	"ndpcr/internal/compress"
	"ndpcr/internal/daly"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/model"
	"ndpcr/internal/projection"
	"ndpcr/internal/report"
	"ndpcr/internal/study"
	"ndpcr/internal/units"
)

// runFig1 prints the progress-rate-vs-M/δ curve (Fig 1).
func runFig1() error {
	ratios := []float64{2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
	effs, err := daly.Curve(ratios)
	if err != nil {
		return err
	}
	labels := make([]string, len(ratios))
	for i, r := range ratios {
		labels[i] = fmt.Sprintf("M/delta = %6.0f", r)
	}
	report.Series(os.Stdout,
		"Figure 1: progress rate vs M/delta (Daly, optimal interval, R = delta)",
		labels, effs, 50)
	r90, err := daly.RatioForEfficiency(0.90)
	if err != nil {
		return err
	}
	fmt.Printf("\n90%% progress rate requires M/delta ~= %.0f (paper SS3.3: ~200)\n", r90)
	rows := make([][]string, len(ratios))
	for i := range ratios {
		rows[i] = []string{fmt.Sprintf("%g", ratios[i]), fmt.Sprintf("%.6f", effs[i])}
	}
	return maybeCSV("fig1", []string{"m_over_delta", "progress_rate"}, rows)
}

// runTable1 prints the exascale projection (Table 1).
func runTable1() error {
	base := projection.Titan()
	exa := projection.Exascale(base, projection.DefaultScaling())
	tab := &report.Table{
		Title:   "Table 1: exascale system projection scaled from Titan Cray XK7",
		Headers: []string{"Parameter", "Titan Cray XK7", "Exascale Projection", "Factor"},
	}
	for _, row := range projection.Table1(base, exa) {
		tab.AddRow(row.Parameter, row.Titan, row.Exascale, row.Factor)
	}
	tab.Fprint(os.Stdout)

	req, err := projection.Derive(exa, 0.90, 0.80)
	if err != nil {
		return err
	}
	fmt.Printf(`
Derived C/R requirements (SS3.3) for 90%% progress at 80%% memory checkpointed:
  checkpoint size           %v/node
  commit time               %v (paper: 9 s)
  checkpoint period         %v (paper: ~3 min)
  node commit bandwidth     %v (paper: ~12.44 GB/s)
  system commit bandwidth   %v (paper: ~1.244 PB/s)
  per-node share of I/O     %v (paper: 100 MB/s)
  time to commit to I/O     %v (paper: ~18.67 min)
  I/O bandwidth shortfall   %.0fx
`,
		req.CheckpointSize, req.CommitTime, req.Period, req.NodeCommitBW,
		req.SystemCommitBW, req.PerNodeIOBW, req.TimeToIOCommit, req.IOShortfallFrac)
	return nil
}

// runTable2 prints the compression study (Table 2): the paper's published
// numbers, plus (with -live) a live measurement of this repo's codecs on
// this repo's mini-app checkpoints.
func runTable2() error {
	tab := &report.Table{
		Title: "Table 2 (paper data): compression factor / single-thread speed (MB/s)",
		Headers: append([]string{"Mini-app", "Ckpt data"},
			study.PaperUtilityOrder...),
	}
	for _, app := range study.PaperAppNames {
		row := []any{app, study.PaperCheckpointSizes[app].String()}
		for _, u := range study.PaperUtilityOrder {
			c := study.PaperTable2[u][app]
			row = append(row, fmt.Sprintf("%.1f%% / %.1f", c.Factor*100, float64(c.Speed)/1e6))
		}
		tab.AddRow(row...)
	}
	avg := []any{"Average", ""}
	for _, u := range study.PaperUtilityOrder {
		avg = append(avg, fmt.Sprintf("%.1f%% / %.1f",
			study.PaperAverageFactor(u)*100, float64(study.PaperAverageSpeed(u))/1e6))
	}
	tab.AddRow(avg...)
	tab.Fprint(os.Stdout)

	if !*flagLive {
		fmt.Println("\n(-live runs this repo's codecs on live mini-app checkpoints)")
		return nil
	}
	res, err := liveStudy()
	if err != nil {
		return err
	}
	live := &report.Table{
		Title:   "Table 2 (measured): compression factor / single-thread speed (MB/s)",
		Headers: append([]string{"Mini-app", "Ckpt data"}, res.Codecs()...),
	}
	for _, app := range res.Apps() {
		var size int64
		row := []any{app}
		cells := []any{}
		for _, codec := range res.Codecs() {
			m, _ := res.Cell(app, codec)
			size = m.UncompressedBytes
			cells = append(cells, fmt.Sprintf("%.1f%% / %.1f",
				m.Factor()*100, float64(m.CompressSpeed())/1e6))
		}
		row = append(row, units.Bytes(size).String())
		row = append(row, cells...)
		live.AddRow(row...)
	}
	avgRow := []any{"Average", ""}
	for _, codec := range res.Codecs() {
		avgRow = append(avgRow, fmt.Sprintf("%.1f%% / %.1f",
			res.AverageFactor(codec)*100, float64(res.AverageSpeed(codec))/1e6))
	}
	live.AddRow(avgRow...)
	live.Fprint(os.Stdout)

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
		return fmt.Errorf("compress-speed order not reproduced")
	}
	return nil
}

// liveResults caches liveStudy's run: -live table2 and table3 (and so
// all -live) share one study per process.
var liveResults *study.Results

// liveStudy runs the live compression study once: every mini-app at Medium
// size (Small under -quick) for 12 steps, every codec of the study set.
func liveStudy() (*study.Results, error) {
	if liveResults != nil {
		return liveResults, nil
	}
	cfg := study.Config{Size: miniapps.Medium, StepsPerApp: 12, Seed: *flagSeed}
	if *flagQuick {
		cfg.Size = miniapps.Small
	}
	fmt.Println("\nRunning live study (our codecs, our mini-app checkpoints)...")
	res, err := study.Run(cfg)
	liveResults = res
	return res, err
}

// runTable3 prints the NDP configuration (Table 3) from the paper's factors
// and speeds; with -live, then the same analysis from the live study's
// measured ones and a sweep of compress throughput over worker counts
// (Table 3's assumption that it scales with NDP cores).
func runTable3() error {
	perNode := units.Bandwidth(100 * units.MBps)
	size := 112 * units.GB
	paper := study.PaperResults()
	configs, err := paper.Table3(perNode, size)
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:   "Table 3: required NDP compression speed, cores, min I/O checkpoint interval",
		Headers: []string{"Utility", "Required speed", "NDP cores", "Ckpt interval", "Paper"},
	}
	paperVals := map[string]string{
		"gzip(1)": "367 MB/s, 4 cores, 305 s",
		"gzip(6)": "395 MB/s, 8 cores, 283 s",
		"bwz(1)":  "407 MB/s, 34 cores, 275 s (bzip2)",
		"bwz(9)":  "421 MB/s, 41 cores, 266 s (bzip2)",
		"lzr(1)":  "515 MB/s, 21 cores, 217 s (xz)",
		"lzr(6)":  "596 MB/s, 125 cores, 188 s (xz)",
		"lz4(1)":  "283 MB/s, 1 core, 395 s",
	}
	for _, c := range configs {
		tab.AddRow(c.Utility, c.RequiredSpeed.String(),
			fmt.Sprintf("%d", c.Cores), c.MinIOInterval.String(), paperVals[c.Utility])
	}
	tab.Fprint(os.Stdout)

	best, err := study.ChooseUtility(configs, 4)
	if err != nil {
		return err
	}
	fmt.Printf("\nChosen utility with a 4-core NDP budget: %s (paper SS5.3 picks gzip(1))\n", best.Utility)

	if !*flagLive {
		fmt.Println("\n(-live adds this table from measured factors and a compress core-scaling sweep)")
		return nil
	}
	res, err := liveStudy()
	if err != nil {
		return err
	}
	configs, err = res.Table3(perNode, size)
	if err != nil {
		return err
	}
	measured := &report.Table{
		Title:   "Table 3 (measured factors and speeds): required NDP compression speed, cores, min I/O checkpoint interval",
		Headers: []string{"Utility", "Required speed", "NDP cores", "Ckpt interval"},
	}
	for _, c := range configs {
		measured.AddRow(c.Utility, c.RequiredSpeed.String(), fmt.Sprintf("%d", c.Cores), c.MinIOInterval.String())
	}
	fmt.Println()
	measured.Fprint(os.Stdout)

	gz, err := compress.Lookup("gzip", 1)
	if err != nil {
		return err
	}
	// Medium even under -quick: a Small checkpoint is too few 1 MiB blocks
	// to spread over workers, and the sweep takes about a second.
	pts, err := study.MeasureScaling("HPCCG", miniapps.Medium, gz, []int{1, 2, 4, 8}, 3, *flagSeed)
	if err != nil {
		return err
	}
	scaling := &report.Table{
		Title:   "Compression scaling, gzip(1) on HPCCG checkpoints (Table 3's core assumption)",
		Headers: []string{"Workers", "Throughput", "Speedup"},
	}
	for _, p := range pts {
		scaling.AddRow(fmt.Sprintf("%d", p.Workers), p.Speed.String(), fmt.Sprintf("%.2fx", p.Speedup))
	}
	fmt.Println()
	scaling.Fprint(os.Stdout)
	fmt.Printf("\n(GOMAXPROCS here: %d — scaling saturates at the physical core count.)\n", runtime.GOMAXPROCS(0))
	return nil
}

// runTable4 prints the evaluation parameters (Table 4).
func runTable4() error {
	p := model.DefaultParams()
	tab := &report.Table{
		Title:   "Table 4: C/R parameters for evaluation",
		Headers: []string{"Parameter", "Value"},
	}
	tab.AddRow("System MTTI", p.MTTI.String())
	tab.AddRow("Checkpoint size (80% of memory)", p.CheckpointSize.String()+"/node")
	tab.AddRow("Compute local NVM BW", p.LocalBW.String())
	tab.AddRow("Checkpoint interval (to local)", p.LocalInterval.String())
	tab.AddRow("Probability of recovery from local", "20% - 96%")
	tab.AddRow("Compression factor", "mini-app specific (gzip(1))")
	tab.AddRow("Compression rate (4-core NDP)", p.NDPCompressionRate.String())
	tab.AddRow("Compression rate (host, 64 cores)", p.HostCompressionRate.String())
	tab.AddRow("Decompression rate (64-core host)", p.DecompressionRate.String())
	tab.AddRow("Per-node share of global I/O", p.IOBW.String())
	tab.Fprint(os.Stdout)

	fmt.Printf(`
Derived timings:
  local commit (delta_L)        %v
  host I/O commit, uncompressed %v
  host I/O commit, 73%% compr.   %v
  NDP drain, uncompressed       %v
  NDP drain, 73%% compr.         %v
  restore from I/O, 73%% compr.  %v
`,
		p.DeltaLocal(), p.DeltaIOHost(),
		model.WithCompression(p, 0.73).DeltaIOHost(),
		p.DrainTime(), model.WithCompression(p, 0.73).DrainTime(),
		model.WithCompression(p, 0.73).RestoreIO())
	return nil
}
