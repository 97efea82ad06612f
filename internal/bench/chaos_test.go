package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/conformance"
)

// Generated chaos must replay: the schedule is a pure function of
// (shape, seed), and its text form round-trips through the conformance
// parser — the property that makes a printed seed a full repro.
func TestGenerateChaosDeterministicRoundTrip(t *testing.T) {
	a := GenerateChaos(8, 16, 120, 42)
	b := GenerateChaos(8, 16, 120, 42)
	if a.String() != b.String() {
		t.Fatalf("same seed, different schedules:\n%s\n%s", a.String(), b.String())
	}
	parsed, err := conformance.Parse(a.String())
	if err != nil {
		t.Fatalf("Parse(generated): %v", err)
	}
	if parsed.String() != a.String() {
		t.Errorf("round trip changed the schedule:\n%s\n%s", a.String(), parsed.String())
	}
}

// Every generated schedule carries at least one kill+rejoin window (the
// smoke acceptance requires one), and every kill is paired with a
// restart so outages stay bounded.
func TestGenerateChaosGuaranteesKillWindow(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		s := GenerateChaos(4, 8, 40, seed)
		kills := s.CountKind(conformance.OpKill)
		restarts := s.CountKind(conformance.OpRestart)
		if kills < 1 {
			t.Errorf("seed %d: no kill window in %s", seed, s.String())
		}
		if kills != restarts {
			t.Errorf("seed %d: %d kills vs %d restarts", seed, kills, restarts)
		}
	}
}

// fakeCluster records the operations the runner applies, refusing the
// ones a mode might not support.
type fakeCluster struct {
	ops        []string
	skipChurns bool
}

func (f *fakeCluster) Kill(j int) error {
	f.ops = append(f.ops, fmt.Sprintf("kill %d", j))
	return nil
}
func (f *fakeCluster) Restart(j int) error {
	f.ops = append(f.ops, fmt.Sprintf("restart %d", j))
	return nil
}
func (f *fakeCluster) Partition(j int, d time.Duration) error {
	f.ops = append(f.ops, fmt.Sprintf("partition %d %s", j, d))
	return nil
}
func (f *fakeCluster) Churn(g int) error {
	if f.skipChurns {
		return skipError{"churn"}
	}
	f.ops = append(f.ops, fmt.Sprintf("churn %d", g))
	return nil
}
func (f *fakeCluster) Reset(j, g int) error {
	f.ops = append(f.ops, fmt.Sprintf("reset %d@%d", j, g))
	return nil
}

func TestRunChaosAppliesSchedule(t *testing.T) {
	s, err := conformance.Parse("bench:n=3:ph=4:seed=1:sched=random:ops=k0,2s,R0,P1:60,g5,r1:2,s")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCluster{}
	st := runChaos(context.Background(), f, s, 4, time.Millisecond, nil)
	want := []string{"kill 0", "restart 0", "partition 1 60ms", "churn 1", "reset 1@2"}
	if len(f.ops) != len(want) {
		t.Fatalf("applied ops %v, want %v", f.ops, want)
	}
	for i := range want {
		if f.ops[i] != want[i] {
			t.Errorf("op %d = %q, want %q", i, f.ops[i], want[i])
		}
	}
	if st.Kills != 1 || st.Restarts != 1 || st.Partitions != 1 || st.Churns != 1 || st.Resets != 1 {
		t.Errorf("stats %+v, want one of each", st)
	}
	if st.Faults() != 4 || st.StateFaults() != 1 {
		t.Errorf("Faults() = %d StateFaults() = %d, want 4 and 1", st.Faults(), st.StateFaults())
	}
}

// A mode that cannot express an op reports a skip; the runner moves on
// and the op never counts as an injected fault.
func TestRunChaosCountsSkips(t *testing.T) {
	s, err := conformance.Parse("bench:n=2:ph=4:seed=1:sched=random:ops=g0,g1,r0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCluster{skipChurns: true}
	st := runChaos(context.Background(), f, s, 4, time.Millisecond, nil)
	if st.Skipped != 2 || st.Churns != 0 || st.Resets != 1 {
		t.Errorf("stats %+v, want 2 skips, 0 churns, 1 reset", st)
	}
}

// A kill the schedule (or an early cancel) leaves open is restarted
// before scoring: the runner never hands a dead cluster to quiescence.
func TestRunChaosRestartsLeftoverKills(t *testing.T) {
	s, err := conformance.Parse("bench:n=3:ph=4:seed=1:sched=random:ops=k2,s")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeCluster{}
	st := runChaos(context.Background(), f, s, 4, time.Millisecond, nil)
	want := []string{"kill 2", "restart 2"}
	if len(f.ops) != 2 || f.ops[0] != want[0] || f.ops[1] != want[1] {
		t.Errorf("applied ops %v, want %v", f.ops, want)
	}
	if st.Kills != 1 || st.Restarts != 1 {
		t.Errorf("stats %+v, want the kill closed", st)
	}
}
