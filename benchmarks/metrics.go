package main

import (
	"math"
	"sort"
)

// Metric is one reported measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note qualifies the value: sample counts, the percentile actually
	// reported when a window held too few samples, "n/a on this workload".
	Note string `json:"note,omitempty"`
}

// metricDef is one row of the benchmark's metric catalogue. The
// catalogue is the single list of names: BENCHMARK.json must agree with
// it (main_test.go checks) and every run fills exactly these names.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound > 0: gated end-to-end metric (BENCHMARK.json end_to_end).
	// bound == 0: informational (BENCHMARK.json per_layer).
	bound float64
}

// gated lists the end-to-end metrics that are defined and non-zero on all
// six workloads, so the driver can bound them; they are measured in the
// untraced windows only.
//
// On this two-core host a workload's speed wanders between a fast and a
// slow regime for seconds at a time (Go scheduler placement and the
// host's other tenants), and how long a run spends in each is not
// reproducible: medians over a run differ by 10-30% between identical
// runs. The level of the fast regime repeats about twice as well, so the
// steady-state metrics are quantiles over many short windows that sit
// inside it: the rate's 90th percentile (gated) and the 10th percentile
// of the windows' median latency and CPU cost (ungated). The run-wide
// medians and means ride along as bench.* per-layer metrics.
var gated = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"passes_per_s", "1/s", "higher", 0.25},
}

// ungated lists the remaining end-to-end metrics of the issue. They are
// user-visible but cannot carry a relative bound: two must read 0, four
// exist only on the faults workload, and pass_p50_us, pass_p99_us and
// cpu_us_per_pass spread too widely in the A/A sets (README "Bounds"):
// in a closed loop with zero think time the rate already gates the pass
// period, and member 0's own Await also depends on where it lands in the
// run queue. They keep their names, are measured in the untraced windows
// like the gated ones, and ride in the per_layer list.
var ungated = []metricDef{
	{"pass_p50_us", "us", "lower", 0},
	{"pass_p99_us", "us", "lower", 0},
	{"cpu_us_per_pass", "us", "lower", 0},
	{"await_fail_ratio", "ratio", "lower", 0},
	{"phase_violations", "count", "lower", 0},
	{"instances_per_pass", "ratio", "lower", 0},
	{"wasted_per_fault", "instances", "lower", 0},
	{"recovery_reset_p50_us", "us", "lower", 0},
	{"recovery_scramble_p50_us", "us", "lower", 0},
}

// layers lists the per-layer metrics, <module>.<metric>.
var layers = []metricDef{
	// internal/runtime: counter deltas over the untraced windows.
	{"runtime.sends_per_pass", "count", "lower", 0},
	{"runtime.drops_per_kpass", "count", "lower", 0},
	{"runtime.resets_per_kpass", "count", "lower", 0},
	{"runtime.rejected_per_kpass", "count", "lower", 0},
	{"runtime.wasted_instances", "count", "lower", 0},
	{"runtime.dropped_injections", "count", "lower", 0},
	// internal/runtime: traced run.
	{"runtime.sync_p50_us", "us", "lower", 0},
	{"runtime.arrival_skew_p50_us", "us", "lower", 0},
	{"runtime.release_skew_p50_us", "us", "lower", 0},
	{"runtime.await_wait_share", "ratio", "lower", 0},
	{"runtime.early_releases", "count", "lower", 0},
	{"runtime.phase_anomalies_per_scramble", "count", "lower", 0},
	{"recovery_reset_tail_us", "us", "lower", 0},
	{"recovery_scramble_tail_us", "us", "lower", 0},
	// internal/runtime, internal/topo: isolated probes.
	{"runtime.chanlink_hop_ns", "ns", "lower", 0},
	{"runtime.new_ms", "ms", "lower", 0},
	{"topo.hybrid_build_us", "us", "lower", 0},
	{"runtime.central_pass_us", "us", "lower", 0},
	{"runtime.ft_overhead_x", "ratio", "lower", 0},
	// internal/transport and the kernel under it.
	{"transport.tcp_hop_us", "us", "lower", 0},
	{"transport.tree_hop_us", "us", "lower", 0},
	{"transport.mux_hop_us", "us", "lower", 0},
	{"kernel.loopback_hop_us", "us", "lower", 0},
	{"transport.frames_sent_per_pass", "count", "lower", 0},
	{"transport.frames_recv_per_pass", "count", "lower", 0},
	{"transport.frames_per_write", "ratio", "higher", 0},
	{"kernel.write_syscalls_per_pass", "count", "lower", 0},
	{"kernel.read_syscalls_per_pass", "count", "lower", 0},
	{"kernel.sys_cpu_share", "ratio", "lower", 0},
	{"transport.codec_encode_ns", "ns", "lower", 0},
	{"transport.codec_decode_ns", "ns", "lower", 0},
	{"transport.frame_bytes", "bytes", "lower", 0},
	{"transport.codec_cpu_share_pct", "%", "lower", 0},
	{"transport.conn_drops", "count", "lower", 0},
	{"transport.decode_errors", "count", "lower", 0},
	{"transport.failed_dials", "count", "lower", 0},
	{"transport.group_frames_dropped", "count", "lower", 0},
	{"transport.connect_ms", "ms", "lower", 0},
	{"transport.reconcile_gap", "count", "lower", 0},
	// internal/groups.
	{"groups.start_ms", "ms", "lower", 0},
	{"groups.restart_to_pass_ms", "ms", "lower", 0},
	{"groups.sibling_p99_shift_pct", "%", "lower", 0},
	// internal/obsv.
	{"obsv.observe_ns", "ns", "lower", 0},
	{"obsv.scrape_ms", "ms", "lower", 0},
	{"obsv.scrape_bytes", "bytes", "lower", 0},
	// The Go runtime under everything.
	{"go.allocs_per_pass", "count", "lower", 0},
	{"go.gc_pause_total_ms", "ms", "lower", 0},
	{"go.heap_mb", "MB", "lower", 0},
	{"go.goroutines", "count", "lower", 0},
	// Analytical comparison column.
	{"model.instances_per_pass", "ratio", "lower", 0},
	// Noise and validity indicators.
	{"host.spin_ns", "ns", "lower", 0},
	{"host.spin_drift_pct", "%", "lower", 0},
	{"bench.window_cv", "ratio", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.watchdog_trips", "count", "lower", 0},
	{"bench.passes_per_s_median", "1/s", "higher", 0},
	{"bench.pass_p50_us_pooled", "us", "lower", 0},
	{"bench.cpu_us_per_pass_mean", "us", "lower", 0},
	{"bench.pass_samples", "count", "higher", 0},
	{"bench.tail_percentile", "%", "higher", 0},
	{"bench.setup_cycles", "count", "higher", 0},
	{"bench.noisy", "count", "lower", 0},
}

// endToEndDefs is the issue's full end-to-end list (gated + ungated), the
// rows -compare prints.
func endToEndDefs() []metricDef { return append(append([]metricDef{}, gated...), ungated...) }

// perLayerDefs is BENCHMARK.json's per_layer list: everything unbounded.
func perLayerDefs() []metricDef { return append(append([]metricDef{}, ungated...), layers...) }

// metricSet maps a catalogue name to its measurement.
type metricSet map[string]Metric

// unitOf is the catalogue's name -> unit map.
var unitOf = func() map[string]string {
	units := map[string]string{}
	for _, d := range append(endToEndDefs(), layers...) {
		units[d.name] = d.unit
	}
	return units
}()

func (s metricSet) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, note = 0, "undefined ("+note+")"
	}
	s[name] = Metric{Value: v, Unit: unitOf[name], Note: note}
}

// fill gives every catalogue name in defs a 0 "n/a" entry where the run
// produced no value: the driver wants every listed name on every workload.
func (s metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := s[d.name]; !ok {
			s.set(d.name, 0, "n/a on this workload")
		}
	}
}

// --- order statistics ---

// percentile returns the p-th percentile (0..100) of sorted xs by the
// nearest-rank rule; 0 for an empty slice.
func percentile[T int64 | uint32 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return float64(sorted[rank])
}

// tailPercentile picks the highest of 99.9, 99, 95, 90, 75 that leaves at
// least ten samples beyond it; 50 when even p75 does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// quantile is the p-th percentile of unsorted xs.
func quantile(xs []float64, p float64) float64 { return percentile(sortedCopy(xs), p) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// coefVar is the coefficient of variation (population stddev / mean).
func coefVar(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

func sortedCopy[T int64 | uint32 | float64](xs []T) []T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
