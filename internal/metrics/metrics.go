// Package metrics is the checkpoint-pipeline observability layer: lock-free
// counters and gauges, log-bucketed histograms for latencies and byte
// volumes, per-checkpoint phase timelines, and a Prometheus-style text
// exposition so an I/O node (or any daemon embedding the runtime) can be
// scraped. The paper's whole argument rests on *where* checkpoint time goes
// (§4.2, Fig. 4–9) — commit vs. NDP compress vs. drain vs. restore — so
// every runtime layer (node, nvm, nic, ndp, iostore, iod, cluster) reports
// through this package, and the Monte-Carlo simulator can emit the same
// phase histograms for cross-validation against the functional runtime.
//
// All hot-path operations (Counter.Add, Gauge.Set, Histogram.Observe) are a
// handful of atomic instructions, safe for concurrent use, and allocation
// free; registration and exposition take a registry lock.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (callers must pass non-decreasing deltas).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// gaugeFunc samples a value at exposition time — occupancy-style metrics
// (store objects, stored bytes, healthy backends) that already live
// in the state of a component a registry has one of, and need no double
// accounting. A value several components on one registry add up to (a node's
// NVM occupancy) is a Gauge they each move: the first function registered
// under a name is the only one ever sampled.
type gaugeFunc func() float64

// metricKind labels a registered metric for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type registered struct {
	name string // full series name, may include {label="v"} pairs
	help string
	kind metricKind

	counter *Counter
	count   func() uint64
	gauge   *Gauge
	fn      gaugeFunc
	hist    *Histogram
}

// family strips the label part of a series name: `a_total{x="y"}` → `a_total`.
func (r registered) family() string {
	if i := strings.IndexByte(r.name, '{'); i >= 0 {
		return r.name[:i]
	}
	return r.name
}

// Registry holds named metrics and renders them. Series names follow
// Prometheus conventions (`ndpcr_ndp_drains_total`); a name may carry
// constant labels inline (`ndpcr_node_restores_total{level="local"}`) —
// series sharing the part before '{' form one family in the exposition.
// Registration is idempotent: asking for an existing name returns the
// existing metric, so components sharing a registry aggregate naturally.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*registered
	ordered []*registered
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*registered)}
}

func (r *Registry) lookup(name, help string, kind metricKind) (*registered, bool) {
	m, ok := r.byName[name]
	if ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %q re-registered with a different kind", name))
		}
		return m, true
	}
	m = &registered{name: name, help: help, kind: kind}
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m, false
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindCounter)
	if !existed {
		m.counter = &Counter{}
	}
	return m.counter
}

// CounterFunc registers a counter sampled by calling fn at exposition time,
// for a count that already lives in a component's state; fn must never
// decrease. Re-registering an existing name keeps the first function.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindCounterFunc)
	if !existed {
		m.count = fn
	}
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindGauge)
	if !existed {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a gauge sampled by calling fn at exposition time.
// Re-registering an existing name keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindGaugeFunc)
	if !existed {
		m.fn = fn
	}
}

// Histogram returns the histogram registered under name, creating it with
// the given unit on first use.
func (r *Registry) Histogram(name, help string, unit Unit) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindHistogram)
	if !existed {
		m.hist = newHistogram(unit)
	}
	return m.hist
}

// snapshot returns the registered metrics grouped by family, families and
// series sorted by name.
func (r *Registry) snapshot() [][]*registered {
	r.mu.Lock()
	defer r.mu.Unlock()
	byFamily := make(map[string][]*registered)
	var families []string
	for _, m := range r.ordered {
		f := m.family()
		if _, ok := byFamily[f]; !ok {
			families = append(families, f)
		}
		byFamily[f] = append(byFamily[f], m)
	}
	sort.Strings(families)
	out := make([][]*registered, 0, len(families))
	for _, f := range families {
		series := byFamily[f]
		sort.Slice(series, func(i, j int) bool { return series[i].name < series[j].name })
		out = append(out, series)
	}
	return out
}

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4): one # HELP/# TYPE pair per family, then each series.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, series := range r.snapshot() {
		head := series[0]
		promType := map[metricKind]string{
			kindCounter:     "counter",
			kindCounterFunc: "counter",
			kindGauge:       "gauge",
			kindGaugeFunc:   "gauge",
			kindHistogram:   "histogram",
		}[head.kind]
		if head.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", head.family(), head.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", head.family(), promType); err != nil {
			return err
		}
		for _, m := range series {
			var err error
			switch m.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
			case kindCounterFunc:
				_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.count())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
			case kindGaugeFunc:
				_, err = fmt.Fprintf(w, "%s %v\n", m.name, m.fn())
			case kindHistogram:
				err = m.hist.writeProm(w, m.name)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Dump renders a human-readable summary: counters and gauges as plain
// values, histograms as count/mean/p50/p99/max lines. This is what the
// -metrics flag of ndpcr-experiments and ndpcr-gateway's final metrics print.
func (r *Registry) Dump(w io.Writer) error {
	for _, series := range r.snapshot() {
		for _, m := range series {
			var err error
			switch m.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%-58s %d\n", m.name, m.counter.Value())
			case kindCounterFunc:
				_, err = fmt.Fprintf(w, "%-58s %d\n", m.name, m.count())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%-58s %d\n", m.name, m.gauge.Value())
			case kindGaugeFunc:
				_, err = fmt.Fprintf(w, "%-58s %v\n", m.name, m.fn())
			case kindHistogram:
				err = m.hist.writeDump(w, m.name)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus scrape endpoint.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
