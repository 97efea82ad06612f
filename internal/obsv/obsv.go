// Package obsv is a zero-dependency metrics layer for the runtime
// barrier: pre-registered counters, gauges, and fixed-bucket histograms
// with an allocation-free hot path, rendered in the Prometheus text
// exposition format.
//
// The design constraint comes from the runtime's member scheduler, which
// completes a 32-member barrier pass in ~58µs with 0 allocs/op: every
// Add/Set/Observe must be a handful of atomic operations on memory that
// was allocated at registration time. Anything that needs to allocate
// (name formatting, sorting, text rendering) happens at registration or
// scrape time, under the registry mutex, off the protocol goroutines.
//
// Metric names may carry a literal label set in braces, e.g.
//
//	obsv.NewCounter(`transport_frames_total{dir="sent"}`, "...")
//
// The registry treats the whole string as the identity; histograms merge
// their le="..." bucket label into an existing brace group when present.
package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Metric is anything the registry can render. Implementations must be
// safe for concurrent use.
type Metric interface {
	// Name returns the full metric name, including any label set.
	Name() string
	// Help returns the one-line HELP string ("" for none).
	Help() string
	// write renders the metric's sample lines (TYPE/HELP headers are the
	// registry's job, so that several labeled series of one family share
	// one header block).
	write(w io.Writer) error
	// kind is the Prometheus TYPE: "counter", "gauge", "histogram".
	kind() string
}

// Registry holds an ordered set of metrics and renders them. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics []Metric
	byName  map[string]Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Metric)}
}

// Register adds m. Registering two metrics with the same full name
// (including labels) is an error; re-registering the identical Metric
// value is a no-op, so several subsystems can idempotently install
// shared series.
func (r *Registry) Register(m Metric) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[m.Name()]; ok {
		if prev == m {
			return nil
		}
		return fmt.Errorf("obsv: duplicate metric %q", m.Name())
	}
	r.byName[m.Name()] = m
	r.metrics = append(r.metrics, m)
	return nil
}

// MustRegister is Register, panicking on error. Use at wiring time.
func (r *Registry) MustRegister(ms ...Metric) {
	for _, m := range ms {
		if err := r.Register(m); err != nil {
			panic(err)
		}
	}
}

// WriteText renders every registered metric in the Prometheus text
// exposition format, grouped by family so labeled series of one name
// share a single HELP/TYPE header.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]Metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	// Group into families (name sans labels) preserving first-seen order,
	// then emit one header per family followed by its series in
	// registration order.
	type family struct {
		name    string
		help    string
		kind    string
		members []Metric
	}
	var (
		order []string
		fams  = make(map[string]*family)
	)
	for _, m := range metrics {
		base := familyName(m.Name())
		f, ok := fams[base]
		if !ok {
			f = &family{name: base, help: m.Help(), kind: m.kind()}
			fams[base] = f
			order = append(order, base)
		}
		f.members = append(f.members, m)
	}
	for _, base := range order {
		f := fams[base]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, m := range f.members {
			if err := m.write(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// familyName strips a trailing {...} label set.
func familyName(full string) string {
	if i := strings.IndexByte(full, '{'); i >= 0 {
		return full[:i]
	}
	return full
}

// WithLabel merges a literal label pair (`key="value"`) into a metric
// name: a bare name gains a brace group, a name that already carries one
// gets the label appended. An empty label returns the name unchanged, so
// callers can thread an optional label without branching.
func WithLabel(name, label string) string {
	if label == "" {
		return name
	}
	if strings.IndexByte(name, '{') >= 0 {
		return strings.TrimSuffix(name, "}") + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// Unregister removes the metric registered under the given full name
// (including any label set) and reports whether one was removed.
// Subsystems with a bounded lifetime — a torn-down barrier group, say —
// use this so a successor can re-register the same series names.
func (r *Registry) Unregister(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		return false
	}
	delete(r.byName, name)
	for i, m := range r.metrics {
		if m.Name() == name {
			r.metrics = append(r.metrics[:i], r.metrics[i+1:]...)
			break
		}
	}
	return true
}

// ---- Counter ----

// Counter is a monotonically increasing int64. Add is one atomic add.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter returns an unregistered counter.
func NewCounter(name, help string) *Counter { return &Counter{name: name, help: help} }

// Add increments the counter. d must be ≥ 0.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) Name() string { return c.name }
func (c *Counter) Help() string { return c.help }
func (c *Counter) kind() string { return "counter" }
func (c *Counter) write(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
	return err
}

// ---- Gauge ----

// Gauge is a settable int64.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge(name, help string) *Gauge { return &Gauge{name: name, help: help} }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments (or, with d < 0, decrements) the gauge.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) Name() string { return g.name }
func (g *Gauge) Help() string { return g.help }
func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) write(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %d\n", g.name, g.v.Load())
	return err
}

// ---- scrape-time funcs ----

// CounterFunc exports an existing int64 source (say, an atomic counter a
// subsystem already maintains) as a counter, evaluated at scrape time.
// The hot path pays nothing beyond what it already did.
type CounterFunc struct {
	name, help string
	fn         func() int64
}

// NewCounterFunc returns an unregistered scrape-time counter.
func NewCounterFunc(name, help string, fn func() int64) *CounterFunc {
	return &CounterFunc{name: name, help: help, fn: fn}
}

func (c *CounterFunc) Name() string { return c.name }
func (c *CounterFunc) Help() string { return c.help }
func (c *CounterFunc) kind() string { return "counter" }
func (c *CounterFunc) write(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.fn())
	return err
}

// GaugeFunc is CounterFunc with gauge semantics.
type GaugeFunc struct {
	name, help string
	fn         func() int64
}

// NewGaugeFunc returns an unregistered scrape-time gauge.
func NewGaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	return &GaugeFunc{name: name, help: help, fn: fn}
}

func (g *GaugeFunc) Name() string { return g.name }
func (g *GaugeFunc) Help() string { return g.help }
func (g *GaugeFunc) kind() string { return "gauge" }
func (g *GaugeFunc) write(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %d\n", g.name, g.fn())
	return err
}

// ---- Histogram ----

// Histogram is a fixed-bucket histogram. Observe is a linear scan over
// the (typically ≤ 16) bucket bounds plus two atomic ops — no
// allocation, no locks — so it is safe on the barrier hot path when
// sampled.
type Histogram struct {
	name, help string
	bounds     []float64      // upper bounds, ascending; +Inf implicit
	counts     []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns an unregistered histogram with the given ascending
// upper bounds. Panics if bounds are empty or not strictly ascending.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obsv: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		name:   name,
		help:   help,
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
	}
}

// Observe records v.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v at the cost of one: a recorder that
// samples a common value one time in n keeps the count honest by giving
// the sample the weight of the observations it stands for.
func (h *Histogram) ObserveN(v float64, n int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) Name() string { return h.name }
func (h *Histogram) Help() string { return h.help }
func (h *Histogram) kind() string { return "histogram" }

func (h *Histogram) write(w io.Writer) error {
	base := familyName(h.name)
	labels := "" // existing label set body, no braces
	if i := strings.IndexByte(h.name, '{'); i >= 0 {
		labels = strings.TrimSuffix(h.name[i+1:], "}")
	}
	series := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`%s_bucket{le="%s"}`, base, le)
		}
		return fmt.Sprintf(`%s_bucket{%s,le="%s"}`, base, labels, le)
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n", series(formatBound(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s %d\n", series("+Inf"), cum); err != nil {
		return err
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", base, suffix, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, h.count.Load())
	return err
}

func formatBound(b float64) string {
	// %g gives "0.001", "1e-06" etc. — both valid le values.
	return fmt.Sprintf("%g", b)
}

// ExpBuckets returns n bounds growing geometrically from start by factor.
// Convenience for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obsv: ExpBuckets wants start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bounds start, start+width, ...
// Convenience for small-count histograms (instances per pass).
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic("obsv: LinearBuckets wants width > 0, n > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Names returns the registered full metric names in registration order.
// Test/debug helper.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.Name()
	}
	return out
}

// Sorted is Names, sorted. Convenience for stable test output.
func (r *Registry) Sorted() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}
