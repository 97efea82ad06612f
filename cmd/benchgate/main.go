// Command benchgate fails CI when the barrier hot path loses a
// structural property that can be judged from one `go test -bench` run.
//
// It reads bench output (stdin, or -input) and exits non-zero if
//
//   - any measured BenchmarkAwait* reports allocs/op > 0 (the hot path is
//     allocation-free by design — see DESIGN.md — and must stay so); a
//     benchmark whose callers allocate per call (a fresh ctx per Await)
//     reports those allocations as caller-allocs/op, and its allocs/op
//     may not exceed them, or
//   - a same-run structural ratio fails: the hybrid topology must beat the
//     flat ring over loopback TCP at n=8 (the crossover the topology
//     exists for), and a depth-4 pipeline window must sustain at least
//     1.5x the depth=1 pass rate over the shared mux connection. Both
//     ratios compare two measurements from the same run on the same
//     machine, so machine speed cancels; each gate is active only when
//     both of its rows are present in the input.
//
// It does not compare ns/op against a recorded table: a cross-host
// number gates on the machine, not the code. Speed regressions are
// judged by the repo benchmark (BENCHMARK.json, benchmarks/), which runs
// parent and change on one host; BENCH_runtime.json is a recorded table,
// not a gate.
//
// Run the benchmarks with -count=3 or more: repeated result lines for
// one benchmark are folded to their minimum (ns/op and allocs/op), the
// standard way to strip scheduler noise and one-time amortized costs
// from short runs.
//
//	go test -run '^$' -bench Await -benchtime 2000x -count 3 -benchmem . | benchgate
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

var inputFlag = flag.String("input", "-", `bench output to check ("-": stdin)`)

type measurement struct {
	nsPerOp   float64
	allocsSet bool
	allocs    int64
	// callerAllocs is the caller-allocs/op metric: allocations per op
	// that are the benchmark's callers', not the barrier's.
	callerAllocs float64
}

// benchLine matches one result line of `go test -bench -benchmem`
// output; the -N GOMAXPROCS suffix is stripped from the name so the
// ratio gates find their rows regardless of the runner's CPU count.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)
var allocsField = regexp.MustCompile(`([\d.]+) allocs/op`)
var callerAllocsField = regexp.MustCompile(`([\d.]+) caller-allocs/op`)

func parseBench(r io.Reader) (map[string]measurement, error) {
	out := map[string]measurement{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		match := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if match == nil {
			continue
		}
		ns, err := strconv.ParseFloat(match[2], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
		}
		m := measurement{nsPerOp: ns}
		if a := allocsField.FindStringSubmatch(match[3]); a != nil {
			v, err := strconv.ParseFloat(a[1], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
			m.allocsSet, m.allocs = true, int64(v)
		}
		if a := callerAllocsField.FindStringSubmatch(match[3]); a != nil {
			v, err := strconv.ParseFloat(a[1], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
			m.callerAllocs = v
		}
		// -count repeats fold to the minimum: the best run is the one
		// least disturbed by the machine.
		if prev, ok := out[match[1]]; ok {
			if prev.nsPerOp < m.nsPerOp {
				m.nsPerOp = prev.nsPerOp
			}
			if prev.allocsSet && (!m.allocsSet || prev.allocs < m.allocs) {
				m.allocsSet, m.allocs = true, prev.allocs
			}
		}
		out[match[1]] = m
	}
	return out, sc.Err()
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run() error {
	in := os.Stdin
	if *inputFlag != "-" {
		f, err := os.Open(*inputFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark result lines in input")
	}

	// Allocation gate: strict zero on every Await benchmark measured.
	failed, checked := false, 0
	for name, m := range measured {
		if !strings.HasPrefix(name, "BenchmarkAwait") {
			continue
		}
		checked++
		if !m.allocsSet {
			fmt.Fprintf(os.Stderr, "FAIL %s: no allocs/op field (run with -benchmem)\n", name)
			failed = true
		} else if float64(m.allocs) > m.callerAllocs {
			fmt.Fprintf(os.Stderr, "FAIL %s: %d allocs/op beyond the callers' %g, hot path must be allocation-free\n",
				name, m.allocs, m.callerAllocs)
			failed = true
		}
	}
	if !failed {
		fmt.Printf("ok     %d Await benchmarks allocate nothing beyond their callers' caller-allocs/op (0 unless reported)\n", checked)
	}

	if !ratioGates(measured) {
		failed = true
	}

	if failed {
		return fmt.Errorf("gate failed")
	}
	return nil
}

// ratioGates checks the same-run structural ratios. Both sides of each
// ratio come from one run on one machine, so machine speed cancels; a
// gate whose rows are absent from the input is skipped, so partial bench
// runs still pass.
func ratioGates(measured map[string]measurement) bool {
	ok := true
	check := func(name, num, den string, maxRatio float64, why string) {
		n, haveNum := measured[num]
		d, haveDen := measured[den]
		if !haveNum || !haveDen {
			return
		}
		ratio := n.nsPerOp / d.nsPerOp
		verdict := "ok"
		if ratio > maxRatio {
			verdict = "FAIL"
			ok = false
		}
		fmt.Printf("%-6s %-34s %s/%s x%.3f (max x%.3f): %s\n",
			verdict, name, num, den, ratio, maxRatio, why)
	}
	check("hybrid-crossover",
		"BenchmarkAwaitTCPLoopbackHybrid/n=8", "BenchmarkAwaitTCPLoopback/n=8",
		1.0, "host fusion must beat the flat ring over the wire")
	check("pipeline-depth",
		"BenchmarkAwaitPipelined/depth=4", "BenchmarkAwaitPipelined/depth=1",
		1.0/1.5, "a depth-4 window must sustain >=1.5x the depth=1 pass rate")
	return ok
}
