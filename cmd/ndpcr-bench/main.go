// Command ndpcr-bench is the repository's end-to-end benchmark: one
// process boots the real loopback stack (gateway → node/NDP → shardstore →
// iod → backing store), drives one workload through it as a closed loop of
// save/cold-restore rounds over seeded payloads, verifies every restored
// byte, and prints every metric by name with its unit — the end-to-end
// metrics from an untraced run, the per-layer metrics from a traced one.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// contract is what this program reads of BENCHMARK.json: the workloads and
// the metric names, units, directions and regression bounds it is held to.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadContract(path string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// printResult writes the human-readable table and, as the last line, the
// one JSON object the driver reads.
func printResult(out io.Writer, name string, res result) error {
	fmt.Fprintf(out, "workload %s: %d operations attempted, %d failed, restores verified: %v\n",
		name, res.attempted, res.failed, res.correct)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		samples := ""
		if m.samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.samples)
		}
		fmt.Fprintf(out, "  %-36s %14.6g %s%s\n", m.name, m.value, m.unit, samples)
		values[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, values})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	var (
		name         = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed         = flag.Uint64("seed", 1, "seed of the generated payloads; generates inputs and nothing else")
		seconds      = flag.Float64("seconds", 25, "measure whole rounds until this many seconds have passed")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans        = flag.String("spans", "", "traced run: also write every span to this file, one JSON object per line")
		compare      = flag.Bool("compare", false, "compare two set files (arguments: a.json b.json) against the bounds in -contract")
		sets         = flag.Int("sets", 0, "run this many complete untraced sets and print the spread table bounds are derived from")
		outDir       = flag.String("out", "", "with -sets: directory to write set-NN.json files into, for -compare")
		contractPath = flag.String("contract", "BENCHMARK.json", "path of BENCHMARK.json")
		spinCPU      = flag.Int("spin", -1, "internal: be the idle-class spinner of this CPU (see keepCPUsAwake)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ndpcr-bench:", err)
		os.Exit(1)
	}
	switch {
	case *spinCPU >= 0:
		spin(*spinCPU)
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two set files"))
		}
		ok, err := compareSets(os.Stdout, *contractPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *sets > 0:
		if err := runSets(os.Stdout, *contractPath, *sets, *seed, *seconds, *outDir); err != nil {
			fail(err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		stop := keepCPUsAwake()
		res, err := run(w, runOpts{
			seed: *seed, seconds: *seconds, traced: *trace != 0,
			sleep: time.Sleep, spans: *spans,
		})
		stop()
		if err != nil && res.failed == 0 {
			fail(err) // the harness broke: no result to report
		}
		if perr := printResult(os.Stdout, w.name, res); perr != nil {
			fail(perr)
		}
		if err != nil {
			fail(err)
		}
	}
}
