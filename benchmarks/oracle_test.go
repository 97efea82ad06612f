package main

import (
	"strings"
	"testing"
)

// The oracles are what makes a benchmark result trustworthy, so each is
// shown a hand-built wrong history and must object.

// round appends one correct barrier instance of phase ph for n processes.
func round(trace []event, n, ph int) []event {
	for p := 0; p < n; p++ {
		trace = append(trace, event{Kind: evBegin, Proc: p, Phase: ph})
	}
	for p := 0; p < n; p++ {
		trace = append(trace, event{Kind: evComplete, Proc: p, Phase: ph})
	}
	return trace
}

func TestPhaseStepOracle(t *testing.T) {
	good := []int{5, 6, 7, 0, 1}
	for i := 1; i < len(good); i++ {
		if !phaseStepOK(good[i-1], good[i], 8) {
			t.Errorf("step %d -> %d rejected", good[i-1], good[i])
		}
	}
	for _, bad := range [][2]int{{3, 3}, {3, 5}, {7, 1}, {0, 7}} {
		if phaseStepOK(bad[0], bad[1], 8) {
			t.Errorf("step %d -> %d accepted", bad[0], bad[1])
		}
	}
}

func TestSpecOracleOnline(t *testing.T) {
	const n, phases = 4, 8
	o := newSpecOracle(n, phases, false)
	var trace []event
	for ph := 0; ph < 3; ph++ {
		trace = round(trace, n, ph)
	}
	for _, e := range trace {
		o.observe(e)
	}
	if fail, barriers, _ := o.verdict(); fail != "" || barriers != 3 {
		t.Fatalf("three correct rounds: fail=%q barriers=%d", fail, barriers)
	}
	// Phase 3 is skipped: an instance of phase 4 begins after phase 2.
	o.observe(event{Kind: evBegin, Proc: 0, Phase: 4})
	fail, _, _ := o.verdict()
	if !strings.Contains(fail, "phase 4") || !strings.Contains(fail, "begin(proc=0, phase=4)") {
		t.Errorf("skipped phase: verdict %q does not name the offending event", fail)
	}

	// Overlapping instances: a process starts the next phase while
	// another is still executing the current one.
	o = newSpecOracle(n, phases, false)
	o.observe(event{Kind: evBegin, Proc: 0, Phase: 0})
	o.observe(event{Kind: evBegin, Proc: 1, Phase: 0})
	o.observe(event{Kind: evComplete, Proc: 0, Phase: 0})
	o.observe(event{Kind: evBegin, Proc: 0, Phase: 1})
	if fail, _, _ := o.verdict(); fail == "" {
		t.Error("overlapping instances accepted")
	}
}

func TestSpecOracleSegments(t *testing.T) {
	const n, phases = 4, 8
	// Segment 0 is masked: resets are fine, a skipped phase is not.
	o := newSpecOracle(n, phases, true)
	var trace []event
	trace = round(trace, n, 0)
	trace = append(trace, event{Kind: evBegin, Proc: 0, Phase: 1}, event{Kind: evReset, Proc: 0, Phase: 1})
	trace = round(trace, n, 1) // the re-executed instance
	for _, e := range trace {
		o.observe(e)
	}
	// A scramble, garbage, then a clean run from an arbitrary phase.
	o.markScramble()
	o.observe(event{Kind: evComplete, Proc: 2, Phase: 6})
	o.observe(event{Kind: evBegin, Proc: 1, Phase: 3})
	o.observe(event{Kind: evBegin, Proc: 3, Phase: 5})
	trace = trace[:0]
	for i := 0; i < 4*phases+4; i++ { // long enough to be judged
		trace = round(trace, n, (5+i)%phases)
	}
	for _, e := range trace {
		o.observe(e)
	}
	if fail, _, segs := o.verdict(); fail != "" || segs != 2 {
		t.Fatalf("masked segment + stabilizing segment: fail=%q segments=%d", fail, segs)
	}

	// A masked segment that skips a phase fails.
	o = newSpecOracle(n, phases, true)
	for _, e := range round(round(nil, n, 0), n, 2) {
		o.observe(e)
	}
	if fail, _, _ := o.verdict(); !strings.Contains(fail, "masking violated") {
		t.Errorf("masked segment skipping a phase: verdict %q", fail)
	}

	// A scramble segment that never settles — every round repeats the
	// same two phases out of order — fails.
	o = newSpecOracle(n, phases, true)
	o.markScramble()
	trace = trace[:0]
	for i := 0; i < 4*phases; i++ {
		trace = round(trace, n, []int{2, 5}[i%2])
	}
	for _, e := range trace {
		o.observe(e)
	}
	if fail, _, _ := o.verdict(); !strings.Contains(fail, "no suffix") {
		t.Errorf("segment that never stabilizes: verdict %q", fail)
	}
}

// TestEarlyReleaseOracle: the outside-in safety check objects when a
// caller's Await returns before the last caller has arrived.
func TestEarlyReleaseOracle(t *testing.T) {
	mk := func(spans ...[2]int64) *participant {
		p := &participant{}
		for _, s := range spans {
			p.spanStart = append(p.spanStart, s[0])
			p.spanDur = append(p.spanDur, uint32(s[1]-s[0]))
		}
		p.nSpans = len(spans)
		return p
	}
	r := &loadRun{c: &cluster{groups: []groupShape{{name: "g", n: 3, nPhases: 8, depth: 1}}}}
	td := &traceData{}
	// Pass 0: everyone arrives by 30, released at 40+. Pass 1: member 1
	// is released at 120 though member 2 only arrives at 150.
	ms := []*participant{
		mk([2]int64{10, 40}, [2]int64{100, 160}),
		mk([2]int64{20, 41}, [2]int64{101, 120}),
		mk([2]int64{30, 42}, [2]int64{150, 161}),
	}
	offset := make([]int, len(ms))
	ps, ok := r.linePass(0, 0, 1, ms, offset, td)
	if !ok || td.earlyReleases != 0 || ps.lastArr != 30 || ps.lastRel != 42 || ps.firstRel != 40 {
		t.Errorf("pass 0: ok=%v early=%d span=%+v", ok, td.earlyReleases, ps)
	}
	if _, ok := r.linePass(0, 1, 1, ms, offset, td); !ok || td.earlyReleases != 1 {
		t.Errorf("pass 1: ok=%v early releases=%d, want 1", ok, td.earlyReleases)
	}
	if _, ok := r.linePass(0, 2, 1, ms, offset, td); ok {
		t.Error("pass 2 lined up though no spans are left")
	}

	// Depth 2: the call that reaps wave 1 entered it during call 0, so a
	// release at 50 with the last entry at 12 is legal.
	r.c.groups[0].depth = 2
	td = &traceData{}
	ms = []*participant{
		mk([2]int64{10, 40}, [2]int64{41, 50}),
		mk([2]int64{12, 42}, [2]int64{43, 52}),
	}
	if _, ok := r.linePass(0, 1, 2, ms, make([]int, 2), td); !ok || td.earlyReleases != 0 {
		t.Errorf("depth 2 wave 1: ok=%v early=%d", ok, td.earlyReleases)
	}
}
