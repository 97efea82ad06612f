package obsv

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("barrier_passes_total", "Completed barrier passes.")
	g := NewGauge("barrier_participants", "Configured participant count.")
	r.MustRegister(c, g)
	c.Add(3)
	c.Inc()
	g.Set(32)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
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

func TestLabeledFamiliesShareHeader(t *testing.T) {
	r := NewRegistry()
	sent := NewCounter(`transport_frames_total{dir="sent"}`, "Frames by direction.")
	recv := NewCounter(`transport_frames_total{dir="recv"}`, "Frames by direction.")
	sent.Add(7)
	recv.Add(5)
	r.MustRegister(sent, recv)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if strings.Count(got, "# TYPE transport_frames_total counter") != 1 {
		t.Errorf("want exactly one TYPE header for the family:\n%s", got)
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
	r.MustRegister(h)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
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
	r.MustRegister(h)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
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

func TestDuplicateRegistration(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("x_total", "")
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(c); err != nil {
		t.Errorf("re-registering the same metric value: %v, want nil", err)
	}
	if err := r.Register(NewCounter("x_total", "")); err == nil {
		t.Error("registering a different metric under a taken name: want error")
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if err := r.Register(NewCounter("x_total", "")); err != nil {
		t.Errorf("nil registry Register: %v", err)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry WriteText: %v, %q", err, sb.String())
	}
}

// The whole point of the package: recording is allocation-free, so it
// can sit on the fused scheduler's 0 allocs/op barrier hot path.
func TestHotPathAllocs(t *testing.T) {
	c := NewCounter("c_total", "")
	g := NewGauge("g", "")
	h := NewHistogram("h_seconds", "", ExpBuckets(1e-6, 4, 10))
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(9)
		g.Add(-1)
		h.Observe(3.2e-4)
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
