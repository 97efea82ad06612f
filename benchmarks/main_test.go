package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smokePlan is the issue's schedule at 100 ms windows (five of them, the
// fewest the issue allows): every code path, no timing assertions.
func smokePlan(outDir string) workloadPlan {
	return workloadPlan{
		seed: 1, warm: 50 * time.Millisecond, window: 100 * time.Millisecond, windows: 5,
		traced: 150 * time.Millisecond, setupMin: 2, outDir: outDir,
	}
}

// TestSmoke runs every probe and every workload, untraced and traced,
// and checks what a result must always hold.
func TestSmoke(t *testing.T) {
	outDir := t.TempDir()
	probes := runProbes(0.01)
	for _, e := range probes.errs {
		t.Errorf("probe: %s", e)
	}
	if err := probes.writeTrace(outDir); err != nil {
		t.Error(err)
	}
	if len(workloads) != 6 {
		t.Fatalf("%d workloads, want 6", len(workloads))
	}
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			w, err := runWorkload(spec, smokePlan(outDir), probes)
			if err != nil {
				t.Fatal(err)
			}
			if !w.Correct {
				t.Errorf("not correct: %v", w.Problems)
			}
			if got := len(w.EndToEnd); got != 11 {
				t.Errorf("%d end-to-end metrics, want 11", got)
			}
			if got := len(w.PerLayer); got > 128 || got != len(perLayerDefs()) {
				t.Errorf("%d per-layer metrics, want %d (at most 128)", got, len(perLayerDefs()))
			}
			for _, set := range []metricSet{w.EndToEnd, w.PerLayer} {
				for name, m := range set {
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q is outside the contract", name)
					}
					if !unitRE.MatchString(m.Unit) {
						t.Errorf("metric %s: unit %q is outside the contract", name, m.Unit)
					}
				}
			}
			applies := func(set metricSet, name string) {
				t.Helper()
				m, ok := set[name]
				if !ok || m.Note == "n/a on this workload" {
					t.Errorf("%s missing on %s", name, spec.name)
				}
			}
			for _, name := range []string{"setup_s", "passes_per_s", "pass_p50_us", "pass_p99_us", "cpu_us_per_pass",
				"await_fail_ratio", "phase_violations", "instances_per_pass"} {
				applies(w.EndToEnd, name)
			}
			for _, name := range []string{"runtime.sends_per_pass", "runtime.sync_p50_us", "runtime.await_wait_share",
				"runtime.chanlink_hop_ns", "transport.tcp_hop_us", "transport.tree_hop_us", "transport.mux_hop_us",
				"kernel.loopback_hop_us", "transport.codec_encode_ns", "transport.codec_decode_ns", "obsv.observe_ns",
				"go.allocs_per_pass", "go.goroutines", "host.spin_ns", "bench.window_cv", "bench.trace_overhead_pct",
				"runtime.new_ms", "topo.hybrid_build_us", "groups.start_ms", "runtime.central_pass_us"} {
				applies(w.PerLayer, name)
			}
			if spec.faults {
				for _, name := range []string{"wasted_per_fault", "recovery_reset_p50_us"} {
					applies(w.EndToEnd, name)
				}
				applies(w.PerLayer, "model.instances_per_pass")
				if w.Faults == nil || w.Faults.Applied == 0 {
					t.Error("no fault of the schedule was applied")
				}
			} else if got := w.EndToEnd["instances_per_pass"].Value; got != 1 {
				t.Errorf("instances_per_pass = %v on a fault-free workload", got)
			}
			if spec.restart {
				for _, name := range []string{"groups.restart_to_pass_ms", "obsv.scrape_ms", "obsv.scrape_bytes"} {
					applies(w.PerLayer, name)
				}
			}
			if spec.wire {
				for _, name := range []string{"transport.frames_sent_per_pass", "transport.frames_per_write",
					"transport.connect_ms", "kernel.write_syscalls_per_pass"} {
					applies(w.PerLayer, name)
				}
			} else if sent := w.PerLayer["transport.frames_sent_per_pass"].Value; sent != 0 {
				t.Errorf("in-process workload reports %v frames per pass", sent)
			}
			if v := w.EndToEnd["phase_violations"].Value; v != 0 {
				t.Errorf("phase_violations = %v", v)
			}
			if v := w.PerLayer["transport.reconcile_gap"].Value; v != 0 {
				t.Errorf("transport.reconcile_gap = %v", v)
			}
			if w.Attempted < 1 || w.Failed != 0 && !spec.faults {
				t.Errorf("attempted %d, failed %d", w.Attempted, w.Failed)
			}
			checkTraceFile(t, w.TraceFile)

			line := driverResult(w, true)
			if len(line.Metrics) != len(perLayerDefs()) {
				t.Errorf("driver line with trace holds %d metrics, want %d", len(line.Metrics), len(perLayerDefs()))
			}
			line = driverResult(w, false)
			for _, d := range gated {
				if m := line.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("driver line: %s = %+v; a gated metric is never 0", d.name, m)
				}
			}
		})
	}
}

// checkTraceFile checks the span tree: run -> pass -> await, children
// inside the pass identifier of their parent.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("trace file: %v", err)
		return
	}
	var tr struct {
		Spans []struct {
			ID, Parent int
			Name       string
			Group      string
			Pass       int
			Start, End int64
		}
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	byID := map[int]int{}
	for i, s := range tr.Spans {
		byID[s.ID] = i
	}
	passes, awaits := 0, 0
	for _, s := range tr.Spans {
		switch s.Name {
		case "run":
			if s.Parent != 0 {
				t.Errorf("run span has parent %d", s.Parent)
			}
		case "pass":
			passes++
			if tr.Spans[byID[s.Parent]].Name != "run" {
				t.Errorf("pass span %d is not under the run", s.ID)
			}
		case "await":
			awaits++
			p := tr.Spans[byID[s.Parent]]
			if p.Name != "pass" || p.Group != s.Group || p.Pass != s.Pass {
				t.Errorf("await span %d (%s pass %d) sits under %s %s pass %d", s.ID, s.Group, s.Pass, p.Name, p.Group, p.Pass)
			}
			if s.End > p.End || s.End < s.Start {
				t.Errorf("await span %d ends outside its pass", s.ID)
			}
		}
	}
	if passes == 0 || awaits < passes {
		t.Errorf("%s: %d pass spans, %d await spans", path, passes, awaits)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the catalogue and to the
// limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if strings.Join(spec.Command, " ") != "bash benchmarks/run.sh" {
		t.Errorf("command = %v", spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, harness has %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the harness's %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics listed, catalogue gates %d", len(spec.EndToEnd), len(gated))
	}
	haveSetup := false
	for i, m := range spec.EndToEnd {
		unique(m.Name)
		d := gated[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %s: bound %v / unit %q outside the contract", m.Name, m.Bound, m.Unit)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s metric")
	}
	defs := perLayerDefs()
	if len(spec.PerLayer) != len(defs) || len(defs) > 128 {
		t.Fatalf("%d per_layer metrics listed, catalogue has %d (limit 128)", len(spec.PerLayer), len(defs))
	}
	for i, m := range spec.PerLayer {
		unique(m.Name)
		if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %s: unit %q outside the contract", m.Name, m.Unit)
		}
	}
}

// TestWatchdog: a workload that never completes a pass is dumped, torn
// down and reported, not waited for.
func TestWatchdog(t *testing.T) {
	defer func(d time.Duration) { watchdogAfter = d }(watchdogAfter)
	watchdogAfter = 150 * time.Millisecond
	hung := &workloadSpec{
		name: "hung", n: 2,
		build: func(int64, eventSink) (*cluster, error) {
			c := &cluster{groups: []groupShape{{name: "hung", n: 2, nPhases: nPhases, depth: 1}}}
			for id := 0; id < 2; id++ {
				c.callers = append(c.callers, caller{id: id, await: func(ctx context.Context) (int, error) {
					<-ctx.Done()
					return 0, ctx.Err()
				}})
			}
			return c, nil
		},
	}
	outDir := t.TempDir()
	d, err := measure(hung, runOpts{seed: 1, warm: 10 * time.Millisecond, window: 50 * time.Millisecond, windows: 2, outDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	if d.trips != 1 {
		t.Errorf("trips = %d, want 1", d.trips)
	}
	if d.failures != 2 || d.attempts != 2 {
		t.Errorf("outstanding Awaits: %d failed of %d attempted, want 2 of 2", d.failures, d.attempts)
	}
	dump, err := os.ReadFile(filepath.Join(outDir, "hang-hung.txt"))
	if err != nil || !strings.Contains(string(dump), "goroutine") {
		t.Errorf("hang dump: %v", err)
	}
	res := &workloadResult{EndToEnd: metricSet{}, PerLayer: metricSet{}, SampleCounts: map[string]int{}}
	res.judge(hung, d, nil)
	if res.Correct {
		t.Error("a hung workload was judged correct")
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b, bound float64
		better      string
		want        string
	}{
		{100, 105, 0.10, "lower", verdictWithin},
		{100, 111, 0.10, "lower", verdictWorse},
		{100, 89, 0.10, "lower", verdictBetter},
		{100, 89, 0.10, "higher", verdictWorse},
		{100, 111, 0.10, "higher", verdictBetter},
		{0, 0, 0.10, "lower", verdictWithin},
		{0, 1, 0.10, "lower", verdictUnresolved},
	} {
		if got := judgeRelative(tc.a, tc.b, tc.bound, tc.better); got != tc.want {
			t.Errorf("judgeRelative(%v, %v, %v, %s) = %s, want %s", tc.a, tc.b, tc.bound, tc.better, got, tc.want)
		}
	}

	// A result against itself is within every bound; against a copy with
	// a third less throughput it is worse.
	dir := t.TempDir()
	mk := func(rate float64) string {
		w := &workloadResult{Name: "tree32-inproc", EndToEnd: metricSet{}}
		w.EndToEnd.set("passes_per_s", rate, "")
		w.EndToEnd.set("pass_p50_us", 80, "")
		w.EndToEnd.fill(endToEndDefs())
		path := filepath.Join(dir, strings.ReplaceAll(time.Duration(rate).String(), ".", "_")+".json")
		if err := writeJSON(path, &result{Workloads: []*workloadResult{w}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := mk(12000), mk(8000)
	spec := filepath.Join("..", "BENCHMARK.json")
	if code := compareMain([]string{a, a}, spec); code != 0 {
		t.Errorf("A/A compare exits %d", code)
	}
	if code := compareMain([]string{a, b}, spec); code != 1 {
		t.Errorf("compare against a third less throughput exits %d, want 1", code)
	}
}
