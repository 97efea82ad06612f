package conformance

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

var engineTargets = []string{"cb", "rb", "tb", "dt", "mb"}

// Schedules survive the round trip through their replay string.
func TestScheduleStringRoundTrip(t *testing.T) {
	cases := []Schedule{
		{Target: "cb", NProcs: 4, NPhases: 3, Seed: 17, Sched: SchedRandom,
			Ops: []Op{{Kind: OpStep}, {Kind: OpStep}, {Kind: OpReset, Proc: 2}, {Kind: OpStep}}},
		{Target: "rb", NProcs: 5, NPhases: 2, Seed: -3, Sched: SchedPick,
			Ops: []Op{{Kind: OpStep, Arg: 12}, {Kind: OpCrash, Proc: 0}, {Kind: OpStep, Arg: 7}, {Kind: OpRestart, Proc: 0}}},
		{Target: TargetRuntime, NProcs: 3, NPhases: 4, Seed: 99, Loss: 0.05, Corrupt: 0.125,
			Ops: []Op{{Kind: OpSpurious, Proc: 1, Arg: 42}, {Kind: OpStep}, {Kind: OpScramble, Proc: 2, Arg: -8}}},
		{Target: "mb", NProcs: 2, NPhases: 2, Seed: 0, Sched: SchedMaxParallel, Ops: nil},
	}
	for _, want := range cases {
		text := want.String()
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if got.String() != text {
			t.Errorf("round trip changed: %q -> %q", text, got.String())
		}
		if !reflect.DeepEqual(got.Ops, want.Ops) {
			t.Errorf("%q: ops %v -> %v", text, want.Ops, got.Ops)
		}
	}
	for _, bad := range []string{"", "cb", "cb:n=1:ph=3:seed=0:sched=random:ops=", "cb:n=4:ph=3:seed=0:sched=nope:ops=", "cb:n=4:ph=3:seed=0:sched=random:ops=x3"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", bad)
		}
	}
}

// Generate is a pure function of (cfg, seed), and Run is a pure function of
// the schedule on engine targets: the seed alone reproduces the verdict.
func TestDeterministicReplay(t *testing.T) {
	for _, tgt := range engineTargets {
		cfg := GenConfig{Target: tgt, NProcs: 4, NPhases: 3, Ops: 150,
			FaultRate: 0.12, Scrambles: true, Crashes: true}
		s1 := Generate(cfg, 42)
		s2 := Generate(cfg, 42)
		if s1.String() != s2.String() {
			t.Fatalf("%s: Generate not deterministic:\n%s\n%s", tgt, s1.String(), s2.String())
		}
		v1, v2 := Run(s1), Run(s1)
		if v1.String() != v2.String() || v1.Steps != v2.Steps || v1.Barriers != v2.Barriers {
			t.Fatalf("%s: Run not deterministic: %v vs %v", tgt, v1, v2)
		}
		// The replay string alone carries everything needed.
		parsed, err := Parse(s1.String())
		if err != nil {
			t.Fatal(err)
		}
		if v3 := Run(parsed); v3.String() != v1.String() {
			t.Fatalf("%s: replay from string diverged: %v vs %v", tgt, v3, v1)
		}
	}
}

// Every engine refinement masks detectable faults (resets, crashes,
// spurious-free schedules) under every scheduler.
func TestEngineTargetsMaskDetectable(t *testing.T) {
	for _, tgt := range engineTargets {
		for _, sched := range []SchedKind{SchedRandom, SchedRoundRobin, SchedMaxParallel, SchedPick} {
			for seed := int64(1); seed <= 5; seed++ {
				s := Generate(GenConfig{Target: tgt, NProcs: 4, NPhases: 3, Sched: sched,
					Ops: 200, FaultRate: 0.1, Crashes: true}, seed)
				if v := Run(s); !v.OK {
					t.Errorf("%s/%v seed=%d: %v\n  replay: %s", tgt, sched, seed, v, s.String())
				}
			}
		}
	}
}

// Every engine refinement stabilizes from undetectable faults.
func TestEngineTargetsStabilize(t *testing.T) {
	for _, tgt := range engineTargets {
		for seed := int64(1); seed <= 5; seed++ {
			s := Generate(GenConfig{Target: tgt, NProcs: 4, NPhases: 3, Sched: SchedRandom,
				Ops: 200, FaultRate: 0.15, Scrambles: true, Crashes: true}, seed)
			if v := Run(s); !v.OK {
				t.Errorf("%s seed=%d: %v\n  replay: %s", tgt, seed, v, s.String())
			} else if s.HasUndetectable() && !v.Stabilized {
				t.Errorf("%s seed=%d: verdict OK but not marked stabilized", tgt, seed)
			}
		}
	}
}

// The live barrier passes both tolerance checks on the ring and on the
// tree, including under message loss, corruption, resets, scrambles and
// spurious messages. One body, one row per topology target.
func TestRuntimeTarget(t *testing.T) { runtimeTolerates(t, TargetRuntime, 4) }
func TestTreeTarget(t *testing.T)    { runtimeTolerates(t, TargetTree, 5) }

func runtimeTolerates(t *testing.T, target string, nProcs int) {
	if testing.Short() {
		t.Skip("wall-clock paced")
	}
	for seed := int64(1); seed <= 3; seed++ {
		// Resets plus message loss and detected corruption: masking.
		s := Generate(GenConfig{Target: target, NProcs: nProcs, NPhases: 3, Ops: 60,
			FaultRate: 0.15, Loss: 0.05, Corrupt: 0.05}, seed)
		if v := Run(s); !v.OK {
			t.Errorf("masking seed=%d: %v\n  replay: %s", seed, v, s.String())
		}
		s = Generate(GenConfig{Target: target, NProcs: nProcs, NPhases: 3, Ops: 60,
			FaultRate: 0.15, Scrambles: true, Spurious: true, Loss: 0.05, Corrupt: 0.05}, seed)
		if v := Run(s); !v.OK {
			t.Errorf("stabilizing seed=%d: %v\n  replay: %s", seed, v, s.String())
		}
	}
}

// A schedule ported from the channel-transport ring to another target must
// produce the same verdict. Each target is a refinement, not an
// observable:
//
//   - tcp runs the identical protocol over loopback sockets, including a
//     schedule drawn exactly as FuzzRuntime draws it, so any corpus entry
//     is portable between the two fuzz targets;
//   - tree is the other topology: fault-free schedules check pure barrier
//     equivalence, the masking and byte-derived mixes that the tree masks
//     the same fault classes;
//   - hybrid fuses members pairwise onto per-host schedulers, a deployment
//     choice — including resets landing on fused (non-root) members whose
//     faults never touch a cross-host edge;
//   - mux multiplexes the scheduled barrier with background tenant groups
//     on shared connections: multi-tenancy is a transport refinement.
func TestTargetsMatchChannelTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock paced")
	}
	faultFree := []Schedule{
		// Fault-free: both topologies must run spec-clean barriers. The odd
		// roster leaves one hybrid host with a single member.
		Generate(GenConfig{Target: TargetRuntime, NProcs: 4, NPhases: 3, Ops: 40}, 10),
		Generate(GenConfig{Target: TargetRuntime, NProcs: 7, NPhases: 2, Ops: 40}, 11),
		// Masking mix: resets over lossy, corrupting links.
		Generate(GenConfig{Target: TargetRuntime, NProcs: 4, NPhases: 3, Ops: 40,
			FaultRate: 0.15, Loss: 0.05, Corrupt: 0.05}, 12),
		// A byte-derived schedule, as the fuzzers construct them.
		FromBytes(TargetRuntime, 13, []byte{1, 1, 2, 3, 10, 20, 0xB2, 1, 5, 40}),
	}
	// faulty is the masking mix, the stabilizing mix (scrambles and spurious
	// messages on top) and a byte-derived schedule, from seed on.
	faulty := func(seed int64) []Schedule {
		return []Schedule{
			Generate(GenConfig{Target: TargetRuntime, NProcs: 4, NPhases: 3, Ops: 40,
				FaultRate: 0.15, Loss: 0.05, Corrupt: 0.05}, seed),
			Generate(GenConfig{Target: TargetRuntime, NProcs: 3, NPhases: 2, Ops: 40,
				FaultRate: 0.15, Scrambles: true, Spurious: true, Loss: 0.05, Corrupt: 0.05}, seed+1),
			FromBytes(TargetRuntime, seed+2, []byte{1, 1, 2, 3, 10, 20, 0xB2, 1, 5, 40}),
		}
	}
	for _, tc := range []struct {
		name      string
		target    string
		schedules []Schedule
	}{
		{"tcp", TargetTCP, faulty(11)},
		{"tree", TargetTree, faultFree},
		{"hybrid", TargetHybrid, faultFree},
		{"mux", TargetMux, faulty(21)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, s := range tc.schedules {
				s.Target = TargetRuntime
				vChan := Run(s)
				s.Target = tc.target
				v := Run(s)
				if vChan.OK != v.OK || vChan.Reason != v.Reason {
					t.Errorf("schedule %d: verdicts diverge:\n  channel: %v\n  %s: %v\n  replay: %s",
						i, vChan, tc.name, v, s.String())
				}
				if !vChan.OK {
					t.Errorf("schedule %d: expected OK on both targets, got %v", i, vChan)
				}
				if s.HasUndetectable() && (vChan.Stabilized != v.Stabilized) {
					t.Errorf("schedule %d: stabilization verdicts diverge: channel=%v %s=%v",
						i, vChan.Stabilized, tc.name, v.Stabilized)
				}
			}
		})
	}
}

// All five refinements are observationally equivalent on fault-free
// computations: the same sequence of successful barrier phases.
func TestRefinementTraceEquivalence(t *testing.T) {
	const n, nPhases, steps = 4, 3, 4000
	var wantPhases []int
	for _, tgt := range engineTargets {
		var trace []core.Event
		p, err := NewTarget(tgt, n, nPhases, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		p.SetSink(func(e core.Event) { trace = append(trace, e) })
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < steps; i++ {
			if !p.Step(SchedRandom, rng, 0) {
				t.Fatalf("%s: deadlock at step %d", tgt, i)
			}
		}
		phases, err := core.SuccessPhases(trace, n, nPhases)
		if err != nil {
			t.Fatalf("%s: fault-free trace violates the spec: %v", tgt, err)
		}
		if len(phases) < 3 {
			t.Fatalf("%s: only %d successful barriers in %d steps", tgt, len(phases), steps)
		}
		for i, ph := range phases {
			if ph != i%nPhases {
				t.Fatalf("%s: barrier %d succeeded at phase %d, want %d", tgt, i, ph, i%nPhases)
			}
		}
		if wantPhases == nil {
			wantPhases = phases
		}
		// Lengths may differ (different step budgets per barrier), but the
		// common prefix must be identical across refinements.
		m := min(len(phases), len(wantPhases))
		if !reflect.DeepEqual(phases[:m], wantPhases[:m]) {
			t.Errorf("%s: success-phase history diverges from %s: %v vs %v",
				tgt, engineTargets[0], phases[:m], wantPhases[:m])
		}
	}
}

// mislabeledFaultTarget is a deliberately broken refinement: its detectable
// fault injection actually scrambles state undetectably (a mislabeled
// fault), so schedules promised masking tolerance violate the spec.
type mislabeledFaultTarget struct{ Target }

func (m mislabeledFaultTarget) InjectDetectable(j int) { m.Target.InjectUndetectable(j) }

// The harness catches a planted bug, and shrinking is deterministic: the
// same failing schedule always reduces to the same minimal counterexample
// with the same verdict.
func TestPlantedBugDetectedAndShrunk(t *testing.T) {
	Register("bug-cb", func(n, nPhases int, rng *rand.Rand) (Target, error) {
		p, err := NewTarget("cb", n, nPhases, rng)
		if err != nil {
			return nil, err
		}
		return mislabeledFaultTarget{p}, nil
	})
	defer func() { delete(builders, "bug-cb") }()

	var failing Schedule
	found := false
	for seed := int64(1); seed <= 30 && !found; seed++ {
		s := Generate(GenConfig{Target: "bug-cb", NProcs: 4, NPhases: 3,
			Sched: SchedRandom, Ops: 150, FaultRate: 0.15}, seed)
		if s.CountKind(OpReset) == 0 {
			continue
		}
		if v := Run(s); !v.OK {
			failing, found = s, true
		}
	}
	if !found {
		t.Fatal("harness failed to detect the planted mislabeled-fault bug in 30 seeds")
	}

	fails := func(c Schedule) bool { return !Run(c).OK }
	m1 := Shrink(failing, fails)
	m2 := Shrink(failing, fails)
	if m1.String() != m2.String() {
		t.Fatalf("shrinking not deterministic:\n%s\n%s", m1.String(), m2.String())
	}
	if !fails(m1) {
		t.Fatalf("shrunk schedule no longer fails: %s", m1.String())
	}
	if len(m1.Ops) >= len(failing.Ops) {
		t.Errorf("shrink made no progress: %d -> %d ops", len(failing.Ops), len(m1.Ops))
	}
	// Local minimality: every remaining op is necessary.
	for i := range m1.Ops {
		c := m1
		c.Ops = append(append([]Op{}, m1.Ops[:i]...), m1.Ops[i+1:]...)
		if fails(c) {
			t.Fatalf("shrunk schedule not minimal: op %d removable from %s", i, m1.String())
		}
	}
	// The minimal counterexample replays from its string to the same verdict.
	parsed, err := Parse(m1.String())
	if err != nil {
		t.Fatal(err)
	}
	if v1, v2 := Run(m1), Run(parsed); v1.String() != v2.String() {
		t.Fatalf("minimal counterexample replay diverged: %v vs %v", v1, v2)
	}
	t.Logf("planted bug shrunk %d -> %d ops: %s", len(failing.Ops), len(m1.Ops), m1.String())
}

// FromBytes is total: arbitrary bytes map to schedules that run to a
// verdict without panicking, and the derived schedule replays via String.
func TestFromBytesTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		for _, tgt := range engineTargets {
			s := FromBytes(tgt, int64(i), data)
			v := Run(s)
			parsed, err := Parse(s.String())
			if err != nil {
				t.Fatalf("FromBytes schedule does not round-trip: %v (%s)", err, s.String())
			}
			if v2 := Run(parsed); v2.String() != v.String() {
				t.Fatalf("byte-derived schedule replay diverged: %v vs %v\n  %s", v, v2, s.String())
			}
		}
	}
}
