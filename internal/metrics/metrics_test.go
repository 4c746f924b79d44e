package metrics

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(2)
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %d, want 8000", g.Value())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h")
	b := r.Counter("x_total", "h")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "h")
}

// TestHistogramBucketEdges pins the log2 bucket boundaries: 0 lands in the
// first bucket, each exact power of two 2^k is the *first* value of the
// bucket with upper bound 2^(k+1), and 2^k-1 is the last value of the
// bucket bounded by 2^k.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram(UnitBytes)
	h.Observe(0) // bucket 0: {0}
	h.Observe(1) // bucket 1: [1,2)
	h.Observe(2) // bucket 2: [2,4)
	h.Observe(3) // bucket 2
	h.Observe(4) // bucket 3: [4,8)
	h.Observe(7) // bucket 3
	h.Observe(8) // bucket 4: [8,16)
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1}
	for i := 0; i < numBuckets; i++ {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 7 || h.Sum() != 25 {
		t.Errorf("count=%d sum=%v, want 7, 25", h.Count(), h.Sum())
	}
	if h.Max() != 8 {
		t.Errorf("max = %v, want 8", h.Max())
	}
	// Large-value edge: 2^62 and the all-ones value land in the top
	// buckets without overflow.
	h2 := newHistogram(UnitBytes)
	h2.Observe(1 << 62)
	h2.Observe((1 << 62) - 1)
	if h2.buckets[63].Load() != 1 || h2.buckets[62].Load() != 1 {
		t.Error("high buckets misplaced")
	}
	// Negative observations clamp to zero.
	h3 := newHistogram(UnitBytes)
	h3.Observe(-5)
	if h3.buckets[0].Load() != 1 || h3.Sum() != 0 {
		t.Error("negative observation not clamped to zero")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(UnitBytes)
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket [64,128)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10000) // bucket [8192,16384)
	}
	if q := h.Quantile(0.5); q < 100 || q > 128 {
		t.Errorf("p50 = %v, want within [100,128]", q)
	}
	// p99 falls in the large bucket; the bound is clamped to the observed max.
	if q := h.Quantile(0.99); q < 8192 || q > 10000 {
		t.Errorf("p99 = %v, want within [8192,10000]", q)
	}
	if q := h.Quantile(1); q != 10000 {
		t.Errorf("p100 = %v, want 10000", q)
	}
	empty := newHistogram(UnitSeconds)
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean not zero")
	}
}

func TestHistogramSeconds(t *testing.T) {
	h := newHistogram(UnitSeconds)
	h.ObserveDuration(1500 * time.Millisecond)
	if s := h.Sum(); s < 1.49 || s > 1.51 {
		t.Errorf("sum = %v s, want 1.5", s)
	}
	if h.Count() != 1 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ndpcr_test_total", "a counter").Add(3)
	r.Counter(`ndpcr_test_total{level="io"}`, "a counter").Add(4)
	r.Gauge("ndpcr_depth", "a gauge").Set(-2)
	r.GaugeFunc("ndpcr_fn", "a sampled gauge", func() float64 { return 1.5 })
	h := r.Histogram("ndpcr_lat_seconds", "latency", UnitSeconds)
	h.Observe(1000) // 1 µs
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE ndpcr_test_total counter",
		"ndpcr_test_total 3",
		`ndpcr_test_total{level="io"} 4`,
		"ndpcr_depth -2",
		"ndpcr_fn 1.5",
		"# TYPE ndpcr_lat_seconds histogram",
		"ndpcr_lat_seconds_count 1",
		`ndpcr_lat_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Each family's # TYPE line appears exactly once.
	if strings.Count(out, "# TYPE ndpcr_test_total ") != 1 {
		t.Errorf("family header duplicated:\n%s", out)
	}
}

// TestCounterFuncExposition: a sampled counter renders as a counter, as an
// integer at any size, reads its function at every exposition, and keeps the
// first function registered under its name.
func TestCounterFuncExposition(t *testing.T) {
	r := NewRegistry()
	n := uint64(12_345_678)
	r.CounterFunc("ndpcr_sampled_total", "a sampled counter", func() uint64 { return n })
	r.CounterFunc("ndpcr_sampled_total", "a sampled counter", func() uint64 { return 0 })
	render := func() (prom, dump string) {
		var p, d bytes.Buffer
		if err := r.WriteProm(&p); err != nil {
			t.Fatal(err)
		}
		if err := r.Dump(&d); err != nil {
			t.Fatal(err)
		}
		return p.String(), d.String()
	}
	prom, dump := render()
	if want := "# HELP ndpcr_sampled_total a sampled counter\n# TYPE ndpcr_sampled_total counter\nndpcr_sampled_total 12345678\n"; prom != want {
		t.Errorf("exposition:\n%s\nwant\n%s", prom, want)
	}
	if want := fmt.Sprintf("%-58s %d\n", "ndpcr_sampled_total", 12345678); dump != want {
		t.Errorf("dump %q, want %q", dump, want)
	}
	n++
	if prom, _ := render(); !strings.HasSuffix(prom, "ndpcr_sampled_total 12345679\n") {
		t.Errorf("a second exposition did not sample again:\n%s", prom)
	}
}

func TestLabeledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`ndpcr_phase_seconds{phase="commit"}`, "phase", UnitSeconds)
	h.Observe(2000)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`ndpcr_phase_seconds_bucket{phase="commit",le="+Inf"} 1`,
		`ndpcr_phase_seconds_count{phase="commit"} 1`,
		`ndpcr_phase_seconds_sum{phase="commit"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "x").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(buf.String(), "h_total 1") {
		t.Errorf("handler output:\n%s", buf.String())
	}
}

func TestDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "x").Add(7)
	h := r.Histogram("b_seconds", "y", UnitSeconds)
	h.ObserveDuration(2 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a_total") || !strings.Contains(out, "7") {
		t.Errorf("dump missing counter:\n%s", out)
	}
	if !strings.Contains(out, "count=1") {
		t.Errorf("dump missing histogram summary:\n%s", out)
	}
}
