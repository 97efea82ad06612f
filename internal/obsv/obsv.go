// Package obsv is a zero-dependency metrics layer for the runtime
// barrier: a registry of component series sets and a fixed-bucket
// histogram with an allocation-free hot path, rendered in the Prometheus
// text exposition format.
//
// The design constraint comes from the runtime's member scheduler, which
// completes a 32-member barrier pass in ~58µs with 0 allocs/op: every
// recording must be a handful of atomic operations on memory that was
// allocated when the component was made. A component counts in its own
// atomics and Histogram.Observe touches only the histogram's buckets;
// nothing on the protocol goroutines allocates.
//
// Registration is the second budget: a process hosting 16 tenant groups
// builds 16 barriers at setup, each with 23 series. The unit of
// registration is therefore a Set, all the series of one component:
// RegisterSet is one insert under a (name, label) key, and UnregisterSet
// one removal. Neither allocates per series — at most the registry's own
// slice and map grow — and no series name exists until a scrape asks for
// it.
//
// Scrape (WriteText) is where the exposition allocates: it reads every
// entry's series in registration order — a set's Collect builds their
// names then — groups them into families and renders the text. The
// registry mutex is held only to copy the entry list; the sets and the
// rendering run outside it, off the protocol goroutines.
//
// Series names may carry a literal label set in braces, e.g.
//
//	transport_frames_total{dir="sent"}
//
// The family is the name without it; histograms merge their le="..."
// bucket label into an existing brace group when present.
package obsv

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// A Set is the series of one component — a barrier, a mux — registered as
// a single registry entry. Registering it costs one insert however many
// series it has; the series, names included, exist only while a scrape
// collects them. Implementations must be safe for concurrent use and
// comparable (a pointer), so re-registering the same set is recognized.
type Set interface {
	// Collect calls emit once per series, in a fixed order, reading each
	// value as it goes. The order is the set's place in the exposition:
	// the series join their families in it, as if registered one by one.
	Collect(emit func(Series))
}

// Kind is a series' Prometheus TYPE.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "histogram"
}

// Series is one series as a scrape reads it.
type Series struct {
	// Name is the full series name, including any label set.
	Name string
	// Help is the one-line HELP string of the series' family ("" for
	// none); the family's first series supplies it.
	Help string
	Kind Kind
	// Value is a counter's or gauge's sample.
	Value int64
	// Histogram is a histogram series' source, rendered under Name.
	Histogram *Histogram
}

func (s *Series) write(w io.Writer) error {
	if s.Kind == KindHistogram {
		return s.Histogram.write(w, s.Name)
	}
	_, err := fmt.Fprintf(w, "%s %d\n", s.Name, s.Value)
	return err
}

// Registry holds an ordered list of sets, each under its own key, and
// renders them. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	entries []entry
	byKey   map[entryKey]int // index into entries
	vacant  int              // entries left vacant by an unregistration
}

// entryKey is an entry's identity: a set's name and label.
type entryKey struct{ name, label string }

// entry is one registration. Unregistering it leaves it vacant (set nil)
// in its place, so a successor registering the same key — a restarted
// tenant group — is scraped where its predecessor was.
type entry struct {
	key entryKey
	set Set
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[entryKey]int)}
}

// RegisterSet adds s as one entry under the key (name, label): name says
// what kind of component it is ("barrier", "transport"), label which one
// (a barrier's MetricLabel; "" for a component alone on its registry).
// A key already registered is an error, except for the identical set,
// which is a no-op. The key is the only identity checked: the series of
// two sets under different keys are not compared for collisions.
func (r *Registry) RegisterSet(name, label string, s Set) error {
	if r == nil {
		return nil
	}
	k := entryKey{name, label}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byKey[k]
	if !ok {
		r.byKey[k] = len(r.entries)
		r.entries = append(r.entries, entry{k, s})
		return nil
	}
	switch prev := &r.entries[i]; prev.set {
	case nil:
		prev.set = s
		r.vacant--
		return nil
	case s:
		return nil
	}
	return fmt.Errorf("obsv: duplicate metric %q", WithLabel(name, label))
}

// UnregisterSet removes the set registered under (name, label) and
// reports whether one was removed: one removal for all of its series.
func (r *Registry) UnregisterSet(name, label string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byKey[entryKey{name, label}]
	if !ok || r.entries[i].set == nil {
		return false
	}
	r.entries[i].set = nil
	if r.vacant++; r.vacant > len(r.entries)/2 {
		r.compact()
	}
	return true
}

// compact drops the vacant entries once they are more than half of all,
// forgetting their places: the keys of components that do not come back
// do not pile up.
func (r *Registry) compact() {
	live := r.entries[:0]
	for _, e := range r.entries {
		if e.set == nil {
			delete(r.byKey, e.key)
			continue
		}
		r.byKey[e.key] = len(live)
		live = append(live, e)
	}
	clear(r.entries[len(live):])
	r.entries = live
	r.vacant = 0
}

// collect reads every registered series in registration order, a set's
// in the order its Collect emits them. The sets run outside the lock.
func (r *Registry) collect() []Series {
	r.mu.Lock()
	entries := make([]entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	out := make([]Series, 0, len(entries))
	emit := func(s Series) { out = append(out, s) }
	for _, e := range entries {
		if e.set != nil {
			e.set.Collect(emit)
		}
	}
	return out
}

// WriteText renders every registered series in the Prometheus text
// exposition format, grouped by family so labeled series of one name
// share a single HELP/TYPE header.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	series := r.collect()

	// Group into families (name sans labels) preserving first-seen order,
	// then emit one header per family followed by its series in
	// registration order.
	type family struct {
		name    string
		help    string
		kind    Kind
		members []int // indices into series
	}
	var (
		order []*family
		fams  = make(map[string]*family)
	)
	for i := range series {
		base := familyName(series[i].Name)
		f, ok := fams[base]
		if !ok {
			f = &family{name: base, help: series[i].Help, kind: series[i].Kind}
			fams[base] = f
			order = append(order, f)
		}
		f.members = append(f.members, i)
	}
	for _, f := range order {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, i := range f.members {
			if err := series[i].write(w); err != nil {
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

// NewHistogram returns a histogram with the given ascending upper
// bounds; the Set of the component that records it emits it as one of
// its series. Panics if bounds are empty or not strictly ascending.
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

// Name returns the name h was made with; the Set that emits h may add a
// label to it.
func (h *Histogram) Name() string { return h.name }

// Help returns h's one-line HELP string.
func (h *Histogram) Help() string { return h.help }

// write renders h's bucket, sum and count lines under name, which may
// differ from h's own: a Set names its histograms at scrape.
func (h *Histogram) write(w io.Writer, name string) error {
	base := familyName(name)
	labels := "" // existing label set body, no braces
	if i := strings.IndexByte(name, '{'); i >= 0 {
		labels = strings.TrimSuffix(name[i+1:], "}")
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
