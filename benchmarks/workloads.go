package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// workloadSpec is one of the six permanent workloads. Later issues cite
// the names; do not rename them.
type workloadSpec struct {
	name  string
	why   string // one line, mirrored in BENCHMARK.json
	build func(seed int64, sink eventSink) (*cluster, error)

	n          int  // participants of the (first) group
	wire       bool // frames cross loopback TCP
	faults     bool // pass-indexed Reset/Scramble schedule plus 1% loss
	restart    bool // traced run also cycles one group and scrapes /metrics
	specOracle bool // the cluster takes an event sink for the strong oracle
}

var workloads = []*workloadSpec{
	{
		name:       "ring32-inproc",
		why:        "32-member ring on the channel transport: every hop is a goroutine handoff through the per-member run loop, transport idle",
		build:      buildRing32,
		n:          32,
		specOracle: true,
	},
	{
		name:       "tree32-inproc",
		why:        "32-member binary tree fused on one scheduler goroutine: Await ticketing, guarded step and receive validation are the whole cost",
		build:      buildTree32,
		n:          32,
		specOracle: true,
	},
	{
		name:       "hybrid8-tcp",
		why:        "4 hosts x 2 members over a loopback TCP host tree, depth 1: latency-bound wire path with an unsaturated writer",
		build:      buildHybrid8,
		n:          8,
		wire:       true,
		specOracle: true,
	},
	{
		name:    "groups16x4-mux",
		why:     "16 ring/tree groups on 4 processes sharing mux connections, 64 callers: throughput-bound slots, batching writer and demux under contention",
		build:   buildGroups16,
		n:       muxProcs,
		wire:    true,
		restart: true,
	},
	{
		name:  "ring4-mux-depth4",
		why:   "one ring group with Depth 4 on 4 processes over the mux: windowed-ticket Await and cross-lane batching with a single tenant",
		build: buildDepth4,
		n:     muxProcs,
		wire:  true,
	},
	{
		name:       "faults-tree32-inproc",
		why:        "tree32-inproc plus 1% loss, a Reset every 64th pass and a Scramble every 512th: recovery, re-execution and resend paths carry the load",
		build:      buildFaultsTree32,
		n:          32,
		faults:     true,
		specOracle: true,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupCycle is one build/teardown cycle: constructors called -> first
// pass completed by every participant. Teardown is outside the interval.
func setupCycle(spec *workloadSpec, seed int64) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), watchdogAfter)
	defer cancel()
	start := time.Now()
	c, err := spec.build(seed, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	defer c.close()
	errs := make(chan error, len(c.callers))
	var wg sync.WaitGroup
	for _, cl := range c.callers {
		wg.Add(1)
		go func(cl caller) {
			defer wg.Done()
			for {
				_, err := cl.await(ctx)
				if err == nil {
					return
				}
				if !errors.Is(err, errReset) {
					errs <- err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	took := time.Since(start)
	select {
	case err := <-errs:
		return 0, fmt.Errorf("%s: first pass: %w", spec.name, err)
	default:
	}
	return took, nil
}

// measureSetup repeats setupCycle at least minCycles times and for up to
// budget, and returns every cycle's duration.
func measureSetup(spec *workloadSpec, seed int64, minCycles int, budget time.Duration) ([]float64, error) {
	var took []float64
	start := time.Now()
	for len(took) < minCycles || (time.Since(start) < budget && len(took) < 201) {
		// A fresh seed per cycle: the faults workload's first pass is quick
		// or slow by the luck of its seed's loss draws, and the median
		// should see that distribution, not one draw of it 41 times.
		d, err := setupCycle(spec, seed+int64(len(took))*7919)
		if err != nil {
			return nil, err
		}
		took = append(took, d.Seconds())
	}
	return took, nil
}
