package obsv

import (
	"strings"
	"sync"
	"testing"
)

// testSet is a test-local Set: it emits its series as they stand, so a
// test sets a counter or gauge by writing its Value.
type testSet struct{ series []Series }

func (s *testSet) Collect(emit func(Series)) {
	for _, x := range s.series {
		emit(x)
	}
}

// histSet is a Set of the one histogram h, under h's own name.
func histSet(h *Histogram) *testSet {
	return &testSet{series: []Series{{Name: h.Name(), Help: h.Help(), Kind: KindHistogram, Histogram: h}}}
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	s := &testSet{series: []Series{
		{Name: "barrier_passes_total", Help: "Completed barrier passes.", Kind: KindCounter, Value: 4},
		{Name: "barrier_participants", Help: "Configured participant count.", Kind: KindGauge, Value: 32},
	}}
	if err := r.RegisterSet("barrier", "", s); err != nil {
		t.Fatal(err)
	}
	got := scrape(t, r)
	for _, want := range []string{
		"# HELP barrier_passes_total Completed barrier passes.\n",
		"# TYPE barrier_passes_total counter\n",
		"barrier_passes_total 4\n",
		"# TYPE barrier_participants gauge\n",
		"barrier_participants 32\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
}

// Series of one family from two sets share one HELP/TYPE header, and the
// family's first series supplies it.
func TestLabeledFamiliesShareHeader(t *testing.T) {
	r := NewRegistry()
	for _, c := range []struct {
		label string
		v     int64
	}{{`dir="sent"`, 7}, {`dir="recv"`, 5}} {
		s := &testSet{series: []Series{{Name: WithLabel("transport_frames_total", c.label),
			Help: "Frames by direction.", Kind: KindCounter, Value: c.v}}}
		if err := r.RegisterSet("transport", c.label, s); err != nil {
			t.Fatal(err)
		}
	}
	got := scrape(t, r)
	if strings.Count(got, "# TYPE transport_frames_total counter") != 1 ||
		strings.Count(got, "# HELP transport_frames_total Frames by direction.") != 1 {
		t.Errorf("want exactly one HELP and one TYPE header for the family:\n%s", got)
	}
	if !strings.Contains(got, `transport_frames_total{dir="sent"} 7`) ||
		!strings.Contains(got, `transport_frames_total{dir="recv"} 5`) {
		t.Errorf("missing labeled series:\n%s", got)
	}
}

func TestHistogramExposition(t *testing.T) {
	h := NewHistogram("barrier_instances_per_pass", "Protocol instances consumed per pass.",
		LinearBuckets(1, 1, 4)) // 1,2,3,4
	for _, v := range []float64{1, 1, 1, 2, 5} {
		h.Observe(v)
	}
	r := NewRegistry()
	if err := r.RegisterSet("h", "", histSet(h)); err != nil {
		t.Fatal(err)
	}
	got := scrape(t, r)
	for _, want := range []string{
		"# TYPE barrier_instances_per_pass histogram\n",
		`barrier_instances_per_pass_bucket{le="1"} 3`,
		`barrier_instances_per_pass_bucket{le="2"} 4`,
		`barrier_instances_per_pass_bucket{le="3"} 4`,
		`barrier_instances_per_pass_bucket{le="4"} 4`,
		`barrier_instances_per_pass_bucket{le="+Inf"} 5`,
		"barrier_instances_per_pass_sum 10\n",
		"barrier_instances_per_pass_count 5\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
	if h.Count() != 5 || h.Sum() != 10 {
		t.Errorf("Count/Sum = %d/%g, want 5/10", h.Count(), h.Sum())
	}
}

func TestHistogramLabelMerge(t *testing.T) {
	h := NewHistogram(`barrier_phase_seconds{topology="tree"}`, "", []float64{0.001, 0.01})
	h.Observe(0.0005)
	r := NewRegistry()
	if err := r.RegisterSet("h", "", histSet(h)); err != nil {
		t.Fatal(err)
	}
	got := scrape(t, r)
	for _, want := range []string{
		`barrier_phase_seconds_bucket{topology="tree",le="0.001"} 1`,
		`barrier_phase_seconds_bucket{topology="tree",le="+Inf"} 1`,
		`barrier_phase_seconds_sum{topology="tree"} 0.0005`,
		`barrier_phase_seconds_count{topology="tree"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
}

// A taken key is an error; re-registering the identical set is a no-op.
func TestDuplicateRegistration(t *testing.T) {
	r := NewRegistry()
	s := &testSet{series: []Series{{Name: "x_total", Kind: KindCounter}}}
	if err := r.RegisterSet("x", "a", s); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterSet("x", "a", s); err != nil {
		t.Errorf("re-registering the same set: %v, want nil", err)
	}
	if err := r.RegisterSet("x", "a", &testSet{}); err == nil {
		t.Error("registering a different set under a taken key: want error")
	}
	if err := r.RegisterSet("x", "b", &testSet{}); err != nil {
		t.Errorf("registering under a free label: %v", err)
	}
	if got := scrape(t, r); strings.Count(got, "x_total 0\n") != 1 {
		t.Errorf("the identical set was scraped twice, or not at all:\n%s", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if err := r.RegisterSet("x", "", &testSet{}); err != nil {
		t.Errorf("nil registry RegisterSet: %v", err)
	}
	if r.UnregisterSet("x", "") {
		t.Error("nil registry UnregisterSet reported a removal")
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry WriteText: %v, %q", err, sb.String())
	}
}

// The whole point of the package: recording is allocation-free, so it
// can sit on the fused scheduler's 0 allocs/op barrier hot path.
func TestHotPathAllocs(t *testing.T) {
	h := NewHistogram("h_seconds", "", ExpBuckets(1e-6, 4, 10))
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(3.2e-4)
		h.ObserveN(1, 8)
	}); n != 0 {
		t.Errorf("hot-path ops allocate %v allocs/op, want 0", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("h", "", []float64{1, 2, 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 6))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
	// Per goroutine, i%6 over 0..999 hits 0..3 167 times and 4..5 166 times.
	want := 8.0 * (167*(0+1+2+3) + 166*(4+5))
	if h.Sum() != want {
		t.Errorf("Sum = %g, want %g", h.Sum(), want)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
