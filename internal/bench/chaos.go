package bench

import (
	"context"
	"time"

	"repro/internal/conformance"
)

// ChaosTarget names the pseudo-target barrierbench schedules declare.
// The conformance engines never run it; it only marks the schedule as a
// cluster-harness schedule in its replayable text form.
const ChaosTarget = "bench"

// Cluster is the chaos runner's handle on a running deployment. A mode
// that cannot express an operation returns errSkip from it; the runner
// counts the skip and moves on, so one schedule drives all three modes.
type Cluster interface {
	// Kill tears down process j's entire stack (SIGKILL in daemon mode).
	Kill(j int) error
	// Restart brings a killed process back with rejoin semantics.
	Restart(j int) error
	// Partition isolates process j from every peer for d, healing
	// automatically.
	Partition(j int, d time.Duration) error
	// Churn stops group g on every process and recreates it.
	Churn(g int) error
	// Reset injects a detectable fault at process j's member of group g.
	Reset(j, g int) error
}

// errSkip marks an operation a cluster mode cannot express.
type skipError struct{ what string }

func (e skipError) Error() string { return "bench: " + e.what + " not supported by this mode" }

// ChaosStats tallies what a chaos schedule actually did to the cluster.
type ChaosStats struct {
	Kills      int
	Restarts   int
	Partitions int
	Churns     int
	Resets     int
	Skipped    int
}

// Faults is the total number of injected faults — the denominator of the
// wasted-work-per-fault SLO. A kill+restart window counts once.
func (c ChaosStats) Faults() int { return c.Kills + c.Partitions + c.Churns + c.Resets }

// StateFaults counts the injections that arm the recovery histogram.
func (c ChaosStats) StateFaults() int { return c.Resets }

// GenerateChaos derives the chaos schedule deterministically from the
// profile seed: kills (with bounded outage windows), timed partitions,
// group churn and detectable resets, mixed over ~ops operations. At least
// one kill+rejoin window is guaranteed — the smoke acceptance — by
// splicing one into the middle when the draw produced none.
func GenerateChaos(procs, groups, ops int, seed int64) conformance.Schedule {
	s := conformance.Generate(conformance.GenConfig{
		Target:  ChaosTarget,
		NProcs:  procs,
		NPhases: 4,
		Ops:     ops,
		// Faults stay rare — the paper's Section 4 failure model, and what
		// keeps a default run's verdict about tolerance rather than about
		// surviving a fault storm: ~5% of paced steps, so a 30s window at
		// the default pacing sees on the order of 15 faults.
		FaultRate:  0.05,
		Kills:      true,
		Partitions: true,
		Churns:     true,
	}, seed)
	// Spread reset targets over the groups too: Generate leaves Arg 0, and
	// the runner reads Arg as the group selector.
	g := int(seed)
	if g < 0 {
		g = -g
	}
	for i := range s.Ops {
		if s.Ops[i].Kind == conformance.OpReset {
			s.Ops[i].Arg = int64((g + i) % maxInt(groups, 1))
		}
	}
	if s.CountKind(conformance.OpKill) == 0 {
		j := g % maxInt(procs, 1)
		window := []conformance.Op{
			{Kind: conformance.OpKill, Proc: j},
			{Kind: conformance.OpStep}, {Kind: conformance.OpStep}, {Kind: conformance.OpStep},
			{Kind: conformance.OpRestart, Proc: j},
		}
		mid := len(s.Ops) / 2
		s.Ops = append(s.Ops[:mid:mid], append(window, s.Ops[mid:]...)...)
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runChaos applies the schedule's operations to the cluster with
// wall-clock pacing: every step sleeps `pacing`, so a schedule of k ops
// spreads over roughly k × pacing of the load window. Kills left open at
// the end are restarted, so the cluster is whole before quiescence. The
// runner is single-threaded by design — fault windows never overlap, as
// in the conformance harness.
func runChaos(ctx context.Context, c Cluster, s conformance.Schedule, groups int, pacing time.Duration, logf func(string, ...any)) ChaosStats {
	var st ChaosStats
	killed := make(map[int]bool)
	clamp := func(j, n int) int {
		j %= n
		if j < 0 {
			j += n
		}
		return j
	}
	apply := func(what string, err error) bool {
		if err == nil {
			return true
		}
		st.Skipped++
		if _, skip := err.(skipError); !skip && logf != nil {
			logf("chaos: %s failed: %v", what, err)
		}
		return false
	}
	for _, op := range s.Ops {
		select {
		case <-ctx.Done():
			break
		default:
		}
		if ctx.Err() != nil {
			break
		}
		switch op.Kind {
		case conformance.OpStep:
			select {
			case <-ctx.Done():
			case <-time.After(pacing):
			}
		case conformance.OpKill:
			j := clamp(op.Proc, s.NProcs)
			if killed[j] {
				continue
			}
			if apply("kill", c.Kill(j)) {
				killed[j] = true
				st.Kills++
			}
		case conformance.OpRestart:
			j := clamp(op.Proc, s.NProcs)
			if !killed[j] {
				continue
			}
			if apply("restart", c.Restart(j)) {
				delete(killed, j)
				st.Restarts++
			}
		case conformance.OpPartition:
			d := time.Duration(op.Arg) * time.Millisecond
			if d <= 0 {
				d = 100 * time.Millisecond
			}
			if apply("partition", c.Partition(clamp(op.Proc, s.NProcs), d)) {
				st.Partitions++
			}
		case conformance.OpChurn:
			if apply("churn", c.Churn(clamp(op.Proc, groups))) {
				st.Churns++
			}
		case conformance.OpReset:
			if apply("reset", c.Reset(clamp(op.Proc, s.NProcs), clamp(int(op.Arg), groups))) {
				st.Resets++
			}
		default:
			// Scrambles/spurious/crash-gate ops have no cluster analogue.
			st.Skipped++
		}
	}
	// Restore every process the schedule (or an early ctx cancel) left
	// dead: scoring judges a whole cluster.
	for j := range killed {
		if apply("final restart", c.Restart(j)) {
			st.Restarts++
		}
	}
	return st
}
