// Command ndpcr-experiments regenerates every table and figure from the
// paper's evaluation. Each subcommand prints the reproduced data, alongside
// the paper's published values where the paper states them.
//
// Usage:
//
//	ndpcr-experiments [flags] <experiment>
//
// Experiments: fig1, table1, table2, table3, table4, fig4, fig5, fig6,
// fig7, fig8, fig9, ext [ablations|erasure|elastic], and all (those twelve).
package main

import (
	"flag"
	"fmt"
	"os"

	"ndpcr/internal/model"
	"ndpcr/internal/units"
)

var (
	flagQuick  = flag.Bool("quick", false, "fewer Monte-Carlo trials and shorter simulated runs")
	flagSeed   = flag.Uint64("seed", 2017, "simulation seed")
	flagTrials = flag.Int("trials", 0, "Monte-Carlo trials per point (0 = default)")
	flagLive   = flag.Bool("live", false, "table2/table3: also run the live compression study, after the paper data")
	flagCSVDir = flag.String("csv-dir", "", "also write each experiment's data as CSV into this directory")
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ndpcr-experiments [flags] <experiment>

experiments:
  fig1     progress rate vs M/delta (Daly closed form)
  table1   exascale system projection
  table2   compression study (paper data; -live adds our codecs on our mini-apps
           and checks Table 2's compress-speed order, exit 1 on a FAIL)
  table3   NDP compression configuration (paper data; -live adds it from the
           live study's factors and a compress core-scaling sweep)
  table4   evaluation parameters
  fig4     overhead breakdown vs locally:I/O ratio
  fig5     optimal locally:I/O ratios
  fig6     progress-rate comparison across configurations
  fig7     overhead breakdown at 4%% I/O recovery
  fig8     sensitivity to checkpoint size
  fig9     sensitivity to MTTI
  ext      ablations + extensions beyond the paper; optional section arg:
           "ext ablations" (drain/restore/dedup studies),
           "ext erasure" (redundancy-set level sweep), or
           "ext elastic" (N->M restart reshape-cost model sweep)
  all      everything above

flags:
`)
	flag.PrintDefaults()
}

func params() model.Params {
	p := model.DefaultParams()
	p.Seed = *flagSeed
	if *flagQuick {
		p.Work = 25 * units.Hour
		p.Trials = 10
	}
	if *flagTrials > 0 {
		p.Trials = *flagTrials
	}
	return p
}

func main() {
	flag.Usage = usage
	flag.Parse()
	exp := flag.Arg(0)
	extSection := ""
	switch {
	case flag.NArg() == 2 && exp == "ext":
		extSection = flag.Arg(1)
	case flag.NArg() != 1:
		usage()
		os.Exit(2)
	}
	runners := map[string]func() error{
		"fig1":   runFig1,
		"table1": runTable1,
		"table2": runTable2,
		"table3": runTable3,
		"table4": runTable4,
		"fig4":   runFig4,
		"fig5":   runFig5,
		"fig6":   runFig6,
		"fig7":   runFig7,
		"fig8":   runFig8,
		"fig9":   runFig9,
		"ext":    func() error { return runExt(extSection) },
	}
	if exp == "all" {
		order := []string{"fig1", "table1", "table2", "table3", "table4",
			"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ext"}
		for _, name := range order {
			fmt.Printf("\n================ %s ================\n\n", name)
			if err := runners[name](); err != nil {
				fmt.Fprintf(os.Stderr, "ndpcr-experiments: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return
	}
	run, ok := runners[exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "ndpcr-experiments: unknown experiment %q\n", exp)
		usage()
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ndpcr-experiments: %v\n", err)
		os.Exit(1)
	}
}
