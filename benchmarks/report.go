package main

import (
	"fmt"
	"math"
	"time"
)

// nPhases is the phase modulus of every workload (the runtime default).
const nPhases = 8

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Name      string    `json:"name"`
	Why       string    `json:"why"`
	Correct   bool      `json:"correct"`
	Noisy     bool      `json:"noisy"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer"`
	Problems  []string  `json:"problems,omitempty"`

	WindowSeconds float64 `json:"window_seconds"`
	Windows       int     `json:"windows"`
	TracedSeconds float64 `json:"traced_seconds"`
	// WindowRates is each untraced window's collective pass rate.
	WindowRates []float64 `json:"window_rates"`
	WindowP50Us []float64 `json:"window_p50_us"`
	// SampleCounts states how many samples each percentile rests on.
	SampleCounts map[string]int `json:"sample_counts"`
	Faults       *faultSchedule `json:"fault_schedule,omitempty"`
	TraceFile    string         `json:"trace_file,omitempty"`
}

// faultSchedule is the generated schedule and what was applied of it.
type faultSchedule struct {
	Rule    string         `json:"rule"`
	Applied int64          `json:"applied"`
	Skipped int64          `json:"skipped_inside_open_window"`
	First   []appliedFault `json:"first_applied"`
}

// workloadPlan is how long one workload measures.
type workloadPlan struct {
	seed        int64
	warm        time.Duration
	window      time.Duration
	windows     int
	traced      time.Duration // 0: no traced run
	setupMin    int
	setupBudget time.Duration
	outDir      string
}

// runWorkload measures one workload end to end: set-up cycles, the
// untraced windows, then (when the plan asks) the traced run. probes may
// be nil when no per-layer metrics are wanted.
func runWorkload(spec *workloadSpec, plan workloadPlan, probes *probeRun) (*workloadResult, error) {
	res := &workloadResult{
		Name: spec.name, Why: spec.why, EndToEnd: metricSet{}, PerLayer: metricSet{},
		WindowSeconds: plan.window.Seconds(), Windows: plan.windows, TracedSeconds: plan.traced.Seconds(),
		SampleCounts: map[string]int{},
	}
	setups, err := measureSetup(spec, plan.seed, plan.setupMin, plan.setupBudget)
	if err != nil {
		return nil, err
	}
	d, err := measure(spec, runOpts{seed: plan.seed, warm: plan.warm, window: plan.window,
		windows: plan.windows, outDir: plan.outDir})
	if err != nil {
		return nil, err
	}
	var dt *runData
	if plan.traced > 0 && d.trips == 0 {
		dt, err = measure(spec, runOpts{seed: plan.seed, warm: plan.warm, window: plan.traced,
			windows: 1, tracing: true, outDir: plan.outDir})
		if err != nil {
			return nil, err
		}
	}
	res.WindowRates = d.windowRates
	for _, ns := range d.windowP50 {
		res.WindowP50Us = append(res.WindowP50Us, ns/1e3)
	}
	res.fillEndToEnd(spec, setups, d)
	res.fillLayers(spec, d, dt, probes)
	res.judge(spec, d, dt)
	return res, nil
}

func perPass(count int64, passes int64) float64 {
	if passes == 0 {
		return 0
	}
	return float64(count) / float64(passes)
}

// fillEndToEnd computes the issue's eleven end-to-end metrics from the
// untraced windows.
func (res *workloadResult) fillEndToEnd(spec *workloadSpec, setups []float64, d *runData) {
	e := res.EndToEnd
	e.set("setup_s", median(setups), fmt.Sprintf("median of %d build/teardown cycles", len(setups)))
	res.SampleCounts["setup_s"] = len(setups)
	nw := len(d.windowRates)
	e.set("passes_per_s", quantile(d.windowRates, 90), fmt.Sprintf("90th percentile of %d window rates", nw))
	e.set("pass_p50_us", quantile(d.windowP50, 10)/1e3,
		fmt.Sprintf("10th percentile of %d windows' median latency; %d samples", nw, len(d.samples)))
	res.SampleCounts["pass_p50_us"] = len(d.samples)
	e.set("cpu_us_per_pass", quantile(d.windowCPU, 10), fmt.Sprintf("10th percentile of %d windows' CPU per pass", nw))
	note := fmt.Sprintf("median over %d windows of each window's p%g", len(d.windowTail), d.tailPct)
	if d.tailPct != 99 {
		note += " (windows too short for p99: fewer than 1000 samples)"
	}
	e.set("pass_p99_us", median(d.windowTail)/1e3, note)
	if len(d.windowTail) > 0 {
		res.SampleCounts["pass_p99_us"] = len(d.samples) / len(d.windowTail)
	}
	e.set("await_fail_ratio", perPass(d.failures, d.attempts), fmt.Sprintf("%d of %d Awaits", d.failures, d.attempts))
	e.set("phase_violations", float64(d.violations), "")
	e.set("instances_per_pass", 1+perPass(d.rtc.wasted, d.rtc.passes), "1 + wasted instances / passes delivered")
	if f := d.faults; f != nil {
		faults := d.rtc.resetsInjected + d.rtc.scramblesInjected
		e.set("wasted_per_fault", perPass(d.rtc.wasted, faults), fmt.Sprintf("%d wasted over %d faults", d.rtc.wasted, faults))
		rs, ss := sortedCopy(f.resetUs), sortedCopy(f.scrambleUs)
		e.set("recovery_reset_p50_us", percentile(rs, 50), fmt.Sprintf("%d resets", len(rs)))
		e.set("recovery_scramble_p50_us", percentile(ss, 50), fmt.Sprintf("%d scrambles", len(ss)))
		res.SampleCounts["recovery_reset_p50_us"] = len(rs)
		res.SampleCounts["recovery_scramble_p50_us"] = len(ss)
		res.Faults = &faultSchedule{
			Rule:    "at member 0's pass k: Scramble(victim, seed) if k%512==0, else Reset(victim) if k%64==0; victim, seed = splitmix64(run seed, k)",
			Applied: f.applied, Skipped: f.skipped, First: f.log,
		}
	}
	e.fill(endToEndDefs())
}

// fillLayers computes the per-layer metrics: counter deltas from the
// untraced windows, timings from the traced run, and the probes.
func (res *workloadResult) fillLayers(spec *workloadSpec, d, dt *runData, probes *probeRun) {
	l := res.PerLayer
	passes := d.passes
	kpass := float64(passes) / 1000

	// Counter deltas over the measured windows. Barrier.Stats counts one
	// pass per participant; a collective pass is one by every participant.
	l.set("runtime.sends_per_pass", perPass(d.rtc.sends, passes), "")
	l.set("runtime.drops_per_kpass", float64(d.rtc.drops)/kpass, "")
	l.set("runtime.resets_per_kpass", float64(d.rtc.resets)/kpass, "")
	l.set("runtime.rejected_per_kpass", float64(d.rtc.rejected)/kpass, "")
	l.set("runtime.wasted_instances", float64(d.rtc.wasted), "")
	l.set("runtime.dropped_injections", float64(d.rtc.droppedInjections), "")

	l.set("transport.frames_sent_per_pass", perPass(d.wire.framesSent, passes), "")
	l.set("transport.frames_recv_per_pass", perPass(d.wire.framesRecv, passes), "")
	ioNote := ""
	if !d.io.ok {
		ioNote = "/proc/self/io unreadable"
	}
	if spec.wire {
		l.set("transport.frames_per_write", perPass(d.wire.framesSent, d.io.writes), ioNote)
	}
	l.set("kernel.write_syscalls_per_pass", perPass(d.io.writes, passes), ioNote)
	l.set("kernel.read_syscalls_per_pass", perPass(d.io.reads, passes), ioNote)
	if cpu := d.cpu.user + d.cpu.sys; cpu > 0 {
		l.set("kernel.sys_cpu_share", float64(d.cpu.sys)/float64(cpu), "stime / (utime + stime)")
	}
	l.set("transport.conn_drops", float64(d.wire.connDrops), "")
	l.set("transport.decode_errors", float64(d.wire.decodeErrors), "")
	l.set("transport.failed_dials", float64(d.wire.failedDials), "")
	l.set("transport.group_frames_dropped", float64(d.wire.groupDropped), "")
	l.set("transport.reconcile_gap", float64(d.gap), d.gapErr)

	l.set("go.allocs_per_pass", perPass(int64(d.goc.mallocs), passes), fmt.Sprintf("%d mallocs", d.goc.mallocs))
	l.set("go.gc_pause_total_ms", float64(d.goc.gcPause)/1e6, "")
	l.set("go.heap_mb", float64(d.goc.heapBytes)/(1<<20), "HeapAlloc at the end of the windows")
	l.set("go.goroutines", float64(d.goc.goroutines), "")

	l.set("bench.window_cv", coefVar(d.windowRates), "")
	l.set("bench.passes_per_s_median", median(d.windowRates), "the issue's definition: median of the window rates")
	p50Note := fmt.Sprintf("median of all %d samples", len(d.samples))
	if d.truncated {
		p50Note += "; a sampler's buffer filled, later passes are counted but not timed"
	}
	l.set("bench.pass_p50_us_pooled", percentile(d.samples, 50)/1e3, p50Note)
	l.set("bench.cpu_us_per_pass_mean", perPass((d.cpu.user+d.cpu.sys).Microseconds(), passes), fmt.Sprintf("%d passes", passes))
	l.set("bench.watchdog_trips", float64(d.trips), "")
	l.set("bench.pass_samples", float64(len(d.samples)), "")
	l.set("bench.tail_percentile", d.tailPct, "the percentile pass_p99_us actually reports")
	l.set("bench.setup_cycles", float64(res.SampleCounts["setup_s"]), "")
	drift := 0.0
	if d.spinBefore > 0 {
		drift = math.Abs(d.spinAfter-d.spinBefore) / d.spinBefore * 100
	}
	l.set("host.spin_ns", d.spinBefore, "before the windows")
	l.set("host.spin_drift_pct", drift, "")
	res.Noisy = drift > 10 || coefVar(d.windowRates) > 0.15
	noisy := 0.0
	if res.Noisy {
		noisy = 1
	}
	l.set("bench.noisy", noisy, "1 when spin drift > 10% or window cv > 0.15")

	if f := d.faults; f != nil {
		l.set("runtime.phase_anomalies_per_scramble", f.anomPerScramble, "worst caller's anomalous steps per stabilization window, mean")
		rs, ss := sortedCopy(f.resetUs), sortedCopy(f.scrambleUs)
		l.set("recovery_reset_tail_us", percentile(rs, tailPercentile(len(rs))), fmt.Sprintf("p%g", tailPercentile(len(rs))))
		l.set("recovery_scramble_tail_us", percentile(ss, tailPercentile(len(ss))), fmt.Sprintf("p%g", tailPercentile(len(ss))))
	}

	if dt != nil && dt.trace != nil {
		t := dt.trace
		l.set("runtime.sync_p50_us", percentile(t.syncUs, 50), fmt.Sprintf("%d passes: last arrival -> last release", t.passes))
		l.set("runtime.arrival_skew_p50_us", percentile(t.arrivalSkewUs, 50), "first -> last arrival")
		l.set("runtime.release_skew_p50_us", percentile(t.releaseSkewUs, 50), "first -> last release")
		l.set("runtime.await_wait_share", t.waitShare, "share of Await time spent waiting for stragglers")
		l.set("runtime.early_releases", float64(t.earlyReleases), "")
		if untraced := float64(d.passes) / d.elapsed.Seconds(); d.elapsed > 0 && untraced > 0 {
			l.set("bench.trace_overhead_pct", (untraced-t.rate)/untraced*100, "(untraced - traced mean rate) / untraced")
		}
		res.SampleCounts["runtime.sync_p50_us"] = t.passes
		res.SampleCounts["strong_oracle_barriers"] = t.oracleBarriers
		res.SampleCounts["strong_oracle_segments"] = t.oracleSegments
		res.SampleCounts["trace_passes_realigned"] = t.realigned
		res.SampleCounts["trace_passes_unaligned"] = t.unaligned
		res.TraceFile = t.file
		if spec.restart {
			l.set("groups.restart_to_pass_ms", dt.restartMs, "StopGroup+StartGroup(rejoin) on process 3 -> its next pass, under load")
			l.set("groups.sibling_p99_shift_pct", t.siblingShiftPct, t.siblingNote)
			l.set("obsv.scrape_ms", median(dt.scrapeMs), fmt.Sprintf("%d scrapes of process 0 under load", len(dt.scrapeMs)))
			l.set("obsv.scrape_bytes", float64(dt.scrapeBytes), "")
		}
		if spec.faults {
			// Fig 3 next to the live number. One model time unit is the
			// measured pass period T: f is faults per pass, and the three
			// waves' latency 3hc is the share of T that is synchronization.
			faults := d.rtc.resetsInjected + d.rtc.scramblesInjected
			period := percentile(d.samples, 50) / 1e3
			if period > 0 && passes > 0 {
				const h = 5
				c := percentile(t.syncUs, 50) / period / (3 * h)
				l.set("model.instances_per_pass", modelInstances(h, c, perPass(faults, passes)),
					fmt.Sprintf("AnalyticalModel{H:5, C:%.4f, F:%.5f}", c, perPass(faults, passes)))
			}
		}
	}

	if probes != nil {
		for name, m := range probes.metrics {
			if name == "host.spin_ns" {
				continue // the workload reports its own, taken right before its windows
			}
			l[name] = m
		}
		switch spec.name {
		case "hybrid8-tcp":
			l.set("transport.connect_ms", probes.treeConnectMs, "NewLoopbackTreeParent -> 3 connections up")
		case "groups16x4-mux", "ring4-mux-depth4":
			l.set("transport.connect_ms", probes.muxConnectMs, "NewLoopbackMuxes(4, 16 groups) -> 6 connections up")
		}
		if spec.name == "tree32-inproc" {
			if central := probes.metrics["runtime.central_pass_us"].Value; central > 0 {
				l.set("runtime.ft_overhead_x", 1e6/res.EndToEnd["passes_per_s"].Value/central, "tree32-inproc pass time over the intolerant barrier's")
			}
		}
		if spec.wire {
			codec := probes.metrics["transport.codec_encode_ns"].Value*perPass(d.wire.framesSent, passes) +
				probes.metrics["transport.codec_decode_ns"].Value*perPass(d.wire.framesRecv, passes)
			if cpu := res.EndToEnd["cpu_us_per_pass"].Value; cpu > 0 {
				l.set("transport.codec_cpu_share_pct", codec/1e3/cpu*100, "(encode x frames sent + decode x frames received) / cpu per pass")
			}
		}
	}

	// The ungated end-to-end metrics ride in the per-layer list too.
	for _, def := range ungated {
		l[def.name] = res.EndToEnd[def.name]
	}
	l.fill(perLayerDefs())
}

// judge decides Correct: every oracle must be silent.
func (res *workloadResult) judge(spec *workloadSpec, d, dt *runData) {
	res.Attempted, res.Failed = d.attempts, d.failures
	problem := func(format string, args ...any) { res.Problems = append(res.Problems, fmt.Sprintf(format, args...)) }
	check := func(d *runData, which string) {
		traced := d.trace != nil
		if d.violations > 0 {
			problem("%s: %d phase violations: %v", which, d.violations, d.violationNotes)
		}
		if d.trips > 0 {
			problem("%s: watchdog tripped: no pass for %v", which, watchdogAfter)
		}
		if d.failures > 0 && !spec.faults {
			problem("%s: %d of %d Awaits failed (first error: %v; %d over the %v deadline)", which, d.failures, d.attempts, d.firstErr, d.late, awaitDeadline)
		}
		if spec.faults && perPass(d.failures, d.attempts) > 0.001 {
			problem("%s: await_fail_ratio %.5f > 0.001", which, perPass(d.failures, d.attempts))
		}
		if d.gap != 0 || d.gapErr != "" {
			problem("%s: transport.reconcile_gap = %d %s", which, d.gap, d.gapErr)
		}
		// The traced groups run restarts a tenant, which is a detectable
		// fault by design; everywhere else a fault-free run wastes nothing.
		if !spec.faults && !(spec.restart && traced) && d.rtc.rejected+d.rtc.wasted > 0 {
			problem("%s: fault-free workload rejected %d frames and wasted %d instances", which, d.rtc.rejected, d.rtc.wasted)
		}
		if !spec.wire && d.wire.framesSent+d.wire.framesRecv > 0 {
			problem("%s: in-process workload moved %d frames", which, d.wire.framesSent+d.wire.framesRecv)
		}
		if d.passes == 0 {
			problem("%s: no pass completed in the measured windows", which)
		}
		if f := d.faults; f != nil && f.anomPerScramble > nPhases {
			problem("%s: %.1f anomalous phases per scramble exceeds the %d distinct phases", which, f.anomPerScramble, nPhases)
		}
		if !spec.wire && !traced && d.goc.mallocs >= 100 && perPass(int64(d.goc.mallocs), d.passes) >= 0.01 {
			problem("untraced: %.4f allocations per pass breaks the 0-alloc invariant", perPass(int64(d.goc.mallocs), d.passes))
		}
	}
	check(d, "untraced")
	if dt != nil {
		check(dt, "traced")
		res.Attempted += dt.attempts
		res.Failed += dt.failures
		if t := dt.trace; t != nil {
			if t.oracleFail != "" {
				problem("strong oracle: %s", t.oracleFail)
			}
			if t.earlyReleases > 0 {
				problem("traced: %d passes released a caller before the last one arrived", t.earlyReleases)
			}
			if spec.specOracle && t.oracleSegments == 0 {
				problem("strong oracle judged nothing")
			}
		}
	}
	res.Correct = len(res.Problems) == 0
}
