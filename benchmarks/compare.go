package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict of one (metric, workload) pair: b against a.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judgeRelative applies a relative bound: b may be worse than a by at
// most bound of a; better by more than the bound is reported as better.
func judgeRelative(a, b, bound float64, better string) string {
	if a == 0 {
		if b == 0 {
			return verdictWithin
		}
		return verdictUnresolved
	}
	change := (b - a) / a
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return verdictWorse
	case change < -bound:
		return verdictBetter
	}
	return verdictWithin
}

// compareMain prints one row per (end-to-end metric, workload). Gated
// metrics use BENCHMARK.json's bounds; await_fail_ratio and
// phase_violations use the issue's absolute rules; the four faults-only
// metrics are compared at a tenth for information and never fail the
// comparison. Either side marked noisy makes a relative row unresolved.
func compareMain(args []string, specPath string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmarks -compare a.json b.json")
		return 2
	}
	var spec benchmarkSpec
	var a, b result
	for _, in := range []struct {
		path string
		into any
	}{{specPath, &spec}, {args[0], &a}, {args[1], &b}} {
		data, err := os.ReadFile(in.path)
		if err == nil {
			err = json.Unmarshal(data, in.into)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmarks: %s: %v\n", in.path, err)
			return 2
		}
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	bw := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		bw[w.Name] = w
	}

	worse := 0
	fmt.Printf("%-22s %-26s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, wa := range a.Workloads {
		wb := bw[wa.Name]
		if wb == nil {
			fmt.Printf("%-22s missing from %s\n", wa.Name, args[1])
			worse++
			continue
		}
		noisy := wa.Noisy || wb.Noisy
		for _, def := range endToEndDefs() {
			ma, mb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			if ma.Note == "n/a on this workload" {
				continue
			}
			var verdict string
			gates := true
			switch def.name {
			case "phase_violations":
				verdict = verdictWithin
				if mb.Value != 0 {
					verdict = verdictWorse
				}
			case "await_fail_ratio":
				// 0 on fault-free workloads; at most the parent's + 0.001
				// on the faults workload.
				verdict = verdictWithin
				if mb.Value > ma.Value+0.001 || (wa.Faults == nil && mb.Value != 0) {
					verdict = verdictWorse
				}
			default:
				bound, ok := bounds[def.name]
				if !ok {
					bound, gates = 0.10, false
				}
				verdict = judgeRelative(ma.Value, mb.Value, bound, def.better)
				if noisy {
					verdict = verdictUnresolved
				}
				if !gates {
					verdict += " (informational)"
				}
			}
			change := ""
			if ma.Value != 0 {
				change = fmt.Sprintf("%+.1f%%", (mb.Value-ma.Value)/ma.Value*100)
			}
			fmt.Printf("%-22s %-26s %14.4f %14.4f %8s  %s\n", wa.Name, def.name, ma.Value, mb.Value, change, verdict)
			if gates && verdict == verdictWorse {
				worse++
			}
		}
	}
	if worse > 0 {
		fmt.Printf("%d pair(s) worse\n", worse)
		return 1
	}
	return 0
}
