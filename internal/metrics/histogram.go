package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Unit declares what a histogram's raw int64 observations mean, which fixes
// the scale applied at exposition time.
type Unit int

// Histogram units.
const (
	// UnitSeconds observes nanoseconds and exposes seconds.
	UnitSeconds Unit = iota
	// UnitBytes observes and exposes bytes.
	UnitBytes
)

func (u Unit) scale() float64 {
	if u == UnitSeconds {
		return 1e-9
	}
	return 1
}

// numBuckets covers every possible bit length of a uint64 observation
// (0..64); bucket i counts raw values v with bits.Len64(v) == i, i.e. the
// half-open range [2^(i-1), 2^i) for i ≥ 1 and exactly {0} for i == 0.
const numBuckets = 65

// Histogram is a lock-free log2-bucketed histogram. Observations are raw
// int64 values (nanoseconds for UnitSeconds, bytes for UnitBytes); negative
// values clamp to zero. Log buckets trade fine resolution for a fixed
// footprint and wait-free observation, which is the right trade for latency
// and size distributions spanning many decades (a 4 KiB block write and an
// 18-minute I/O drain land 31 buckets apart).
type Histogram struct {
	unit    Unit
	count   atomic.Uint64
	sum     atomic.Int64 // raw units; saturation is unreachable in practice
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

func newHistogram(unit Unit) *Histogram {
	return &Histogram{unit: unit}
}

// Observe records one raw value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// ObserveDuration records a wall-clock duration (UnitSeconds histograms).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the observation total in exposed units (seconds or bytes).
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) * h.unit.scale() }

// Mean returns the mean observation in exposed units.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Max returns the largest observation in exposed units.
func (h *Histogram) Max() float64 { return float64(h.max.Load()) * h.unit.scale() }

// bucketUpper returns the exclusive raw upper bound of bucket i.
func bucketUpper(i int) float64 {
	if i >= 64 {
		return math.Inf(1)
	}
	return math.Ldexp(1, i) // 2^i
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) in
// exposed units: the upper edge of the bucket containing it. Log buckets
// make this exact to within a factor of two, which is all a latency
// breakdown needs.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			upper := bucketUpper(i)
			if m := float64(h.max.Load()); upper > m {
				upper = m // never report beyond the observed maximum
			}
			return upper * h.unit.scale()
		}
	}
	return h.Max()
}

// writeProm emits the series in Prometheus histogram form: cumulative
// `_bucket{le="..."}` lines up to the highest occupied bucket, then +Inf,
// `_sum`, and `_count`. name may carry constant labels, which are merged
// into the bucket label sets.
func (h *Histogram) writeProm(w io.Writer, name string) error {
	base, labels := splitLabels(name)
	scale := h.unit.scale()
	var cum uint64
	highest := 0
	for i := 0; i < numBuckets; i++ {
		if h.buckets[i].Load() > 0 {
			highest = i
		}
	}
	for i := 0; i <= highest; i++ {
		cum += h.buckets[i].Load()
		le := bucketUpper(i) * scale
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", base, labels, formatFloat(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, h.count.Load()); err != nil {
		return err
	}
	suffix := ""
	if l := trimComma(labels); l != "" {
		suffix = "{" + l + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %v\n", base, suffix, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, h.count.Load())
	return err
}

// writeDump emits the human-readable one-liner used by Registry.Dump.
func (h *Histogram) writeDump(w io.Writer, name string) error {
	unit := "s"
	if h.unit == UnitBytes {
		unit = "B"
	}
	_, err := fmt.Fprintf(w, "%-58s count=%d mean=%s p50=%s p99=%s max=%s\n",
		name, h.Count(),
		formatUnit(h.Mean(), unit), formatUnit(h.Quantile(0.5), unit),
		formatUnit(h.Quantile(0.99), unit), formatUnit(h.Max(), unit))
	return err
}

// splitLabels separates `name{a="b"}` into ("name", `a="b",`); a plain name
// yields ("name", "").
func splitLabels(name string) (base, labels string) {
	i := -1
	for j := 0; j < len(name); j++ {
		if name[j] == '{' {
			i = j
			break
		}
	}
	if i < 0 {
		return name, ""
	}
	inner := name[i+1 : len(name)-1]
	if inner == "" {
		return name[:i], ""
	}
	return name[:i], inner + ","
}

func trimComma(labels string) string {
	if n := len(labels); n > 0 && labels[n-1] == ',' {
		return labels[:n-1]
	}
	return labels
}

// formatFloat renders a bucket bound compactly ("0.000262144", "4096").
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// formatUnit renders a value with its unit for Dump output.
func formatUnit(v float64, unit string) string {
	if unit == "B" {
		return fmt.Sprintf("%.0fB", v)
	}
	switch {
	case v == 0:
		return "0s"
	case v < 1e-6:
		return fmt.Sprintf("%.0fns", v*1e9)
	case v < 1e-3:
		return fmt.Sprintf("%.1fus", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2fms", v*1e3)
	}
	return fmt.Sprintf("%.3fs", v)
}
