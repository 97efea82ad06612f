package obsv

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Observations past the largest finite bound live only in the implicit
// +Inf bucket, and a bound hit exactly counts as inside it (le
// semantics). The rendered cumulative counts must reflect both.
func TestHistogramOverflowBucketRendering(t *testing.T) {
	h := NewHistogram("h_seconds", "", []float64{1, 2})
	for _, v := range []float64{3, 100, 2} { // two overflows, one exact bound hit
		h.Observe(v)
	}
	r := NewRegistry()
	if err := r.RegisterSet("h", "", histSet(h)); err != nil {
		t.Fatal(err)
	}
	got := scrape(t, r)
	for _, want := range []string{
		`h_seconds_bucket{le="1"} 0`,
		`h_seconds_bucket{le="2"} 1`, // the exact hit: le means ≤
		`h_seconds_bucket{le="+Inf"} 3`,
		"h_seconds_sum 105\n",
		"h_seconds_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
}

// Scraping while observers are running must be race-free (this test is
// the -race probe for WriteText vs Observe) and every individual scrape
// must stay internally consistent: cumulative bucket counts never
// decrease across bounds, and the +Inf bucket never undercounts the
// finite ones.
func TestHistogramObserveDuringScrape(t *testing.T) {
	h := NewHistogram("h_seconds", "", []float64{1, 2, 4})
	r := NewRegistry()
	if err := r.RegisterSet("h", "", histSet(h)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				h.Observe(float64((i + g) % 6))
			}
		}(g)
	}
	for scrapes := 0; scrapes < 200; scrapes++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		prev := int64(-1)
		for _, line := range strings.Split(sb.String(), "\n") {
			if !strings.HasPrefix(line, "h_seconds_bucket") {
				continue
			}
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("cumulative bucket count decreased (%d after %d) in:\n%s", v, prev, sb.String())
			}
			prev = v
		}
	}
	stop.Store(true)
	wg.Wait()
}

// A labelled set unregisters exactly once, and only the named label
// goes — the regression the tenant-group lifecycle depends on (StopGroup
// must free the key for the rejoin's successor without touching sibling
// groups' series). The successor is scraped in its predecessor's place,
// from zero.
func TestLabeledHistogramUnregisterOnce(t *testing.T) {
	r := NewRegistry()
	labelled := func(label string) (*Histogram, *testSet) {
		h := NewHistogram("barrier_phase_seconds", "", []float64{1})
		return h, &testSet{series: []Series{{Name: WithLabel(h.Name(), label), Kind: KindHistogram, Histogram: h}}}
	}
	ha, setA := labelled(`group="a"`)
	hb, setB := labelled(`group="b"`)
	for _, c := range []struct {
		label string
		s     *testSet
	}{{`group="a"`, setA}, {`group="b"`, setB}} {
		if err := r.RegisterSet("barrier", c.label, c.s); err != nil {
			t.Fatal(err)
		}
	}
	ha.Observe(0.5)
	hb.Observe(0.5)

	if !r.UnregisterSet("barrier", `group="a"`) {
		t.Fatal("first UnregisterSet returned false")
	}
	if r.UnregisterSet("barrier", `group="a"`) {
		t.Error("second UnregisterSet of the same key returned true")
	}
	if got := scrape(t, r); strings.Contains(got, `group="a"`) {
		t.Errorf("unregistered series still rendered:\n%s", got)
	} else if !strings.Contains(got, `barrier_phase_seconds_bucket{group="b",le="1"} 1`) {
		t.Errorf("sibling label set disappeared with the unregistered one:\n%s", got)
	}

	// The key is free again: a successor (a rejoined group) registers a
	// fresh histogram under it, starting from zero, ahead of its sibling.
	_, succ := labelled(`group="a"`)
	if err := r.RegisterSet("barrier", `group="a"`, succ); err != nil {
		t.Fatalf("re-registering a freed key: %v", err)
	}
	got := scrape(t, r)
	if !strings.Contains(got, `barrier_phase_seconds_count{group="a"} 0`) {
		t.Errorf("successor series not rendered from zero:\n%s", got)
	}
	if a, b := strings.Index(got, `group="a"`), strings.Index(got, `group="b"`); a > b {
		t.Errorf("successor not scraped in its predecessor's place:\n%s", got)
	}
}
