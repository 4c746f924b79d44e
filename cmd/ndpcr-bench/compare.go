package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// set is one complete set of untraced runs: workload → metric → value.
type set map[string]map[string]float64

func loadSet(path string) (set, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareSets prints, per workload and end-to-end metric, both values,
// how much worse b is than a, and the bound; it reports whether every pair
// agrees within its bound, in either direction.
func compareSets(out io.Writer, contractPath, pathA, pathB string) (bool, error) {
	c, err := loadContract(contractPath)
	if err != nil {
		return false, err
	}
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(out, "%-20s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, okA := a[w.Name][m.Name]
			vb, okB := b[w.Name][m.Name]
			if !okA || !okB {
				return false, fmt.Errorf("%s/%s is missing from a set", w.Name, m.Name)
			}
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > m.Bound {
				verdict = "  OUTSIDE"
				ok = false
			}
			fmt.Fprintf(out, "%-20s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

// quartiles are the cut points of Python's statistics.quantiles(v, n=4),
// which the driver uses to judge the benchmark's spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runOnce runs one workload in a fresh process, as the driver does, and
// decodes the last line it prints.
func runOnce(workload string, seed uint64, seconds float64) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	last := bytes.TrimSpace(stdout)
	last = last[bytes.LastIndexByte(last, '\n')+1:]
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: decoding result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: %d operations failed", workload, seed, res.Failed)
	}
	values := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		values[name] = m.Value
	}
	return values, nil
}

// runSets runs n complete sets of the same inputs (one seed, so the counts
// of any two sets must agree exactly under -compare) and prints per
// workload and metric the median, the interquartile spread the driver
// computes, and the largest deviation of any set from the median — the
// numbers the bounds in BENCHMARK.json were derived from.
func runSets(out io.Writer, contractPath string, n int, seed uint64, seconds float64, outDir string) error {
	c, err := loadContract(contractPath)
	if err != nil {
		return err
	}
	if n < 2 {
		return fmt.Errorf("-sets needs at least 2 sets to have a spread")
	}
	all := make([]set, n)
	for i := range all {
		all[i] = make(set)
		for _, w := range c.Workloads {
			values, err := runOnce(w.Name, seed, seconds)
			if err != nil {
				return err
			}
			all[i][w.Name] = values
			fmt.Fprintf(out, "set %d/%d %s done\n", i+1, n, w.Name)
		}
		if outDir != "" {
			raw, err := json.MarshalIndent(all[i], "", "  ")
			if err != nil {
				return err
			}
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("set-%02d.json", i+1)), raw, 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "\n%-20s %-24s %14s %9s %9s %7s\n", "workload", "metric", "median", "iqr/med", "max dev", "bound")
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			values := make([]float64, n)
			for i := range all {
				values[i] = all[i][w.Name][m.Name]
			}
			q1, q2, q3 := quartiles(values)
			var dev float64
			for _, v := range values {
				dev = max(dev, math.Abs(ratio(v-q2, q2)))
			}
			fmt.Fprintf(out, "%-20s %-24s %14.6g %8.2f%% %8.2f%% %6.0f%%\n",
				w.Name, m.Name, q2, 100*ratio(q3-q1, q2), 100*dev, 100*m.Bound)
		}
	}
	return nil
}
