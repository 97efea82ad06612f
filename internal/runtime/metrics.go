package runtime

import (
	"time"

	"repro/internal/obsv"
)

// This file is the barrier's observability surface: the live versions of
// the paper's Section 6 measurements, recorded inside scheduler turns
// without allocating and exported through an obsv.Registry.
//
// The budget is set by the one-scheduler tree — 0 allocs/op at ~58µs
// per 32-member pass — so recording is restricted to plain field updates
// on state the scheduler already owns, plus a histogram Observe
// (a short bounded scan and two atomic adds) on sampled or rare events:
//
//   - barrier_instances_per_pass (Fig 3/5): re-executed instances are
//     recorded as they happen (only under faults, which are rare); the
//     fault-free value 1 is tallied in a plain field and recorded every
//     eighth pass at the weight of the passes it stands for, so the
//     histogram count trails barrier_passes_total by under 8 per member.
//   - barrier_phase_seconds (Fig 4/6): pass-to-pass latency of one pass
//     in every 8, timed with two time.Now calls per sample.
//   - barrier_recovery_seconds (Fig 7): injected reset/scramble to the
//     next delivered pass, recorded on every fault (faults are cold).

// newHistograms allocates the measurement histograms. They exist whether
// or not a registry is configured, so the recording paths are branch-free.
// label is Config.MetricLabel ("" keeps the unlabelled names).
func (b *Barrier) newHistograms(label string) {
	b.mInstances = obsv.NewHistogram(obsv.WithLabel("barrier_instances_per_pass", label),
		"Protocol instances consumed per delivered pass (Fig 3/5; 1 = fault-free, >1 = re-executions).",
		obsv.LinearBuckets(1, 1, 8))
	b.mPhase = obsv.NewHistogram(obsv.WithLabel("barrier_phase_seconds", label),
		"Pass-to-pass barrier latency in seconds, sampled 1-in-8 per member (live Fig 4/6 overhead).",
		obsv.ExpBuckets(16e-6, 2, 16)) // 16µs .. ~0.5s
	b.mRecovery = obsv.NewHistogram(obsv.WithLabel("barrier_recovery_seconds", label),
		"Injected reset/scramble to next delivered pass, seconds (live Fig 7; paper bound ≤ 5hc).",
		obsv.ExpBuckets(16e-6, 2, 16))
}

// registerMetrics installs the exported series. Counter values ride the
// existing atomics via scrape-time funcs, so enabling metrics changes
// nothing on the protocol paths. label, when non-empty, is merged into
// every series name so per-group barriers can share one registry.
func (b *Barrier) registerMetrics(r *obsv.Registry, topology Topology, label string) error {
	topoName := "ring"
	switch topology {
	case TopologyTree:
		topoName = "tree"
	case TopologyHybrid:
		topoName = "hybrid"
	}
	name := func(base string) string { return obsv.WithLabel(base, label) }
	metrics := []obsv.Metric{
		obsv.NewCounterFunc(name("barrier_passes_total"),
			"Barrier passes delivered to participants.", b.statPasses.Load),
		obsv.NewCounterFunc(name("barrier_resets_total"),
			"ErrReset results delivered to participants (phase work voided by a detectable fault).", b.statResets.Load),
		obsv.NewCounterFunc(name("barrier_sends_total"),
			"Protocol messages sent.", b.statSends.Load),
		obsv.NewCounterFunc(name("barrier_drops_total"),
			"Protocol messages lost or dropped as detected-corrupt.", b.statDrops.Load),
		obsv.NewCounterFunc(name("barrier_spurious_total"),
			"Spurious (undetectably forged) messages injected.", b.statSpurious.Load),
		obsv.NewCounterFunc(name("barrier_injected_resets_total"),
			"Reset fault injections accepted for delivery.", b.statInjResets.Load),
		obsv.NewCounterFunc(name("barrier_injected_scrambles_total"),
			"Scramble fault injections accepted for delivery.", b.statInjScrambles.Load),
		obsv.NewCounterFunc(name("barrier_injected_crashes_total"),
			"Crash fault injections accepted for delivery.", b.statInjCrashes.Load),
		obsv.NewCounterFunc(name("barrier_injected_restarts_total"),
			"Restart (crash-recovery) injections accepted for delivery.", b.statInjRestarts.Load),
		obsv.NewCounterFunc(name("barrier_injected_byz_total"),
			"Byzantine forgeries accepted for delivery.", b.statInjByz.Load),
		obsv.NewCounterFunc(name("barrier_injections_dropped_total"),
			"Fault injections discarded because the target's control buffer was full.", b.statInjDropped.Load),
		obsv.NewCounterFunc(name(`barrier_rejected_frames_total{reason="seqwindow"}`),
			"Frames rejected: sequence number outside the edge's legal receive window.", b.statRejSeq.Load),
		obsv.NewCounterFunc(name(`barrier_rejected_frames_total{reason="phasewindow"}`),
			"Frames rejected: phase outside the legal window, or a current-wave acknowledgment with a foreign phase.", b.statRejPhase.Load),
		obsv.NewCounterFunc(name(`barrier_rejected_frames_total{reason="topwindow"}`),
			"Frames rejected: ⊤ restart marker received by a settled process.", b.statRejTop.Load),
		obsv.NewCounterFunc(name(`barrier_rejected_frames_total{reason="sender"}`),
			"Frames rejected: claimed sender does not exist on the receiving edge.", b.statRejSender.Load),
		obsv.NewCounterFunc(name("barrier_wasted_instances_total"),
			"Protocol instances consumed beyond one per delivered pass (re-executions forced by faults; the wasted-work-per-fault numerator).", b.statWasted.Load),
		obsv.NewCounterFunc(name("barrier_pulls_total"),
			"Co-hosted neighbour registers re-read at scheduler quiescence to mask a lost or corrupted frame without waiting for the resend sweep (reads, not messages).", b.statPulls.Load),
		obsv.NewGaugeFunc(name("barrier_participants"),
			"Configured participant count.", func() int64 { return int64(b.n) }),
		obsv.NewGaugeFunc(name(`barrier_topology{topology="`+topoName+`"}`),
			"Barrier topology in use (value is always 1; the label carries the name).", func() int64 { return 1 }),
		obsv.NewGaugeFunc(name("barrier_halted"),
			"1 if the barrier is fail-safe halted, else 0.", func() int64 {
				if b.Halted() {
					return 1
				}
				return 0
			}),
		b.mInstances,
		b.mPhase,
		b.mRecovery,
	}
	registered := make([]string, 0, len(metrics))
	for _, m := range metrics {
		if err := r.Register(m); err != nil {
			for _, n := range registered {
				r.Unregister(n)
			}
			return err
		}
		registered = append(registered, m.Name())
	}
	b.metricsReg = r
	b.metricNames = registered
	return nil
}

// UnregisterMetrics removes the barrier's series from the registry it was
// created with. Call it after Stop when the registry outlives the barrier
// — a torn-down tenant group whose successor (a rejoin) will register the
// same labelled names. Safe to call on a barrier without a registry, and
// idempotent.
func (b *Barrier) UnregisterMetrics() {
	if b.metricsReg == nil {
		return
	}
	for _, n := range b.metricNames {
		b.metricsReg.Unregister(n)
	}
	b.metricsReg = nil
	b.metricNames = nil
}

// observePass records the per-pass measurements. Called by the hosting
// scheduler at the pass commit point, immediately before the
// pass is counted and delivered.
func (g *gate) observePass() {
	n := g.beginsSince
	g.beginsSince = 0
	seq := g.passSeq
	g.passSeq++
	if n > 1 {
		g.b.statWasted.Add(n - 1)
	}
	if n == 1 {
		g.onesSince++
	} else {
		g.b.mInstances.Observe(float64(n))
	}
	if seq&7 == 0 && g.onesSince > 0 {
		g.b.mInstances.ObserveN(1, int64(g.onesSince))
		g.onesSince = 0
	}
	if g.faultAtNs != 0 {
		g.b.mRecovery.Observe(float64(time.Now().UnixNano()-g.faultAtNs) / 1e9)
		g.faultAtNs = 0
	}
	// Pass-to-pass latency: arm at seq ≡ 7 (mod 8), observe the very next
	// pass. Only sampled passes pay for time.Now.
	switch seq & 7 {
	case 7:
		g.sampleStartNs = time.Now().UnixNano()
	case 0:
		if g.sampleStartNs != 0 {
			g.b.mPhase.Observe(float64(time.Now().UnixNano()-g.sampleStartNs) / 1e9)
			g.sampleStartNs = 0
		}
	}
}

// noteFault timestamps an injected reset/scramble for the recovery
// histogram. Called by the hosting scheduler from the member's control
// handler (cold path: faults are rare by assumption — the paper's
// Section 4 failure model).
func (g *gate) noteFault() {
	g.faultAtNs = time.Now().UnixNano()
}
