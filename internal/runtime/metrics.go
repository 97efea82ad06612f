package runtime

import (
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// This file is the barrier's observability surface: the live versions of
// the paper's Section 6 measurements, recorded inside scheduler turns
// without allocating and exported through an obsv.Registry.
//
// Export costs one registry entry per barrier: New inserts the barrier
// itself as an obsv.Set under its MetricLabel (barrierSet), and
// UnregisterMetrics removes that one entry. The 23 series — 17 counters,
// 3 gauges and the 3 histograms below — and their labelled names are
// built only when a scrape collects them, from the atomics and
// histograms the barrier keeps whether or not a registry is configured.
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

// Bucket bounds of the measurement histograms, shared by every barrier
// (NewHistogram copies them).
var (
	instancesBounds = obsv.LinearBuckets(1, 1, 8)
	secondsBounds   = obsv.ExpBuckets(16e-6, 2, 16) // 16µs .. ~0.5s
)

// newHistograms allocates the measurement histograms. They exist whether
// or not a registry is configured, so the recording paths are branch-free.
// They carry their bare family names; the barrier's label joins them at
// scrape (barrierSet).
func (b *Barrier) newHistograms() {
	b.mInstances = obsv.NewHistogram("barrier_instances_per_pass",
		"Protocol instances consumed per delivered pass (Fig 3/5; 1 = fault-free, >1 = re-executions).",
		instancesBounds)
	b.mPhase = obsv.NewHistogram("barrier_phase_seconds",
		"Pass-to-pass barrier latency in seconds, sampled 1-in-8 per member (live Fig 4/6 overhead).",
		secondsBounds)
	b.mRecovery = obsv.NewHistogram("barrier_recovery_seconds",
		"Injected reset/scramble to next delivered pass, seconds (live Fig 7; paper bound ≤ 5hc).",
		secondsBounds)
}

// registerMetrics installs the barrier's series as one registry entry,
// keyed by its label: one insert, whatever the series count, and nothing
// built until a scrape. label, when non-empty, is merged into every
// series name so per-group barriers can share one registry; a second
// barrier with the same label on the same registry fails here.
func (b *Barrier) registerMetrics(r *obsv.Registry, topology Topology, label string) error {
	b.topology, b.metricLabel = topology, label
	if err := r.RegisterSet("barrier", label, (*barrierSet)(b)); err != nil {
		return err
	}
	b.metricsReg = r
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
	b.metricsReg.UnregisterSet("barrier", b.metricLabel)
	b.metricsReg = nil
}

// barrierSet is the barrier as its registry entry. Counter values ride
// the existing atomics, read at scrape, so enabling metrics changes
// nothing on the protocol paths.
type barrierSet Barrier

// Collect emits the barrier's 20 counter and gauge series and its 3
// histograms, each name carrying the barrier's label.
func (s *barrierSet) Collect(emit func(obsv.Series)) {
	b := (*Barrier)(s)
	series := func(kind obsv.Kind, name, help string, v int64) {
		emit(obsv.Series{Name: obsv.WithLabel(name, b.metricLabel), Help: help, Kind: kind, Value: v})
	}
	counter := func(name, help string, v *atomic.Int64) { series(obsv.KindCounter, name, help, v.Load()) }
	counter("barrier_passes_total",
		"Barrier passes delivered to participants.", &b.statPasses)
	counter("barrier_resets_total",
		"ErrReset results delivered to participants (phase work voided by a detectable fault).", &b.statResets)
	counter("barrier_sends_total",
		"Protocol messages sent.", &b.statSends)
	counter("barrier_drops_total",
		"Protocol messages lost or dropped as detected-corrupt.", &b.statDrops)
	counter("barrier_spurious_total",
		"Spurious (undetectably forged) messages injected.", &b.statSpurious)
	counter("barrier_injected_resets_total",
		"Reset fault injections accepted for delivery.", &b.statInjResets)
	counter("barrier_injected_scrambles_total",
		"Scramble fault injections accepted for delivery.", &b.statInjScrambles)
	counter("barrier_injected_crashes_total",
		"Crash fault injections accepted for delivery.", &b.statInjCrashes)
	counter("barrier_injected_restarts_total",
		"Restart (crash-recovery) injections accepted for delivery.", &b.statInjRestarts)
	counter("barrier_injected_byz_total",
		"Byzantine forgeries accepted for delivery.", &b.statInjByz)
	counter("barrier_injections_dropped_total",
		"Fault injections discarded because the target's control buffer was full.", &b.statInjDropped)
	counter(`barrier_rejected_frames_total{reason="seqwindow"}`,
		"Frames rejected: sequence number outside the edge's legal receive window.", &b.statRejSeq)
	counter(`barrier_rejected_frames_total{reason="phasewindow"}`,
		"Frames rejected: phase outside the legal window, or a current-wave acknowledgment with a foreign phase.", &b.statRejPhase)
	counter(`barrier_rejected_frames_total{reason="topwindow"}`,
		"Frames rejected: ⊤ restart marker received by a settled process.", &b.statRejTop)
	counter(`barrier_rejected_frames_total{reason="sender"}`,
		"Frames rejected: claimed sender does not exist on the receiving edge.", &b.statRejSender)
	counter("barrier_wasted_instances_total",
		"Protocol instances consumed beyond one per delivered pass (re-executions forced by faults; the wasted-work-per-fault numerator).", &b.statWasted)
	counter("barrier_pulls_total",
		"Co-hosted neighbour registers re-read at scheduler quiescence to mask a lost or corrupted frame without waiting for the resend sweep (reads, not messages).", &b.statPulls)
	series(obsv.KindGauge, "barrier_participants",
		"Configured participant count.", int64(b.n))
	topoName := "ring"
	switch b.topology {
	case TopologyTree:
		topoName = "tree"
	case TopologyHybrid:
		topoName = "hybrid"
	}
	series(obsv.KindGauge, `barrier_topology{topology="`+topoName+`"}`,
		"Barrier topology in use (value is always 1; the label carries the name).", 1)
	var halted int64
	if b.Halted() {
		halted = 1
	}
	series(obsv.KindGauge, "barrier_halted",
		"1 if the barrier is fail-safe halted, else 0.", halted)
	for _, h := range []*obsv.Histogram{b.mInstances, b.mPhase, b.mRecovery} {
		emit(obsv.Series{Name: obsv.WithLabel(h.Name(), b.metricLabel), Help: h.Help(), Kind: obsv.KindHistogram, Histogram: h})
	}
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
