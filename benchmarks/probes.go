package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// probeSpan is one probe iteration batch in the probe trace.
type probeSpan struct {
	Name       string `json:"name"`
	StartNs    int64  `json:"start"`
	EndNs      int64  `json:"end"`
	Iterations int    `json:"iterations"`
}

// probeRun collects the isolated layer probes: each calls one layer's
// exported functions in a loop with the CPU otherwise idle, before any
// workload runs.
type probeRun struct {
	scale   float64 // iteration multiplier: 1 for a full run, less for smoke
	start   time.Time
	metrics metricSet
	// connect times per transport kind; a workload reports its own kind's
	// as transport.connect_ms.
	muxConnectMs, treeConnectMs float64
	spans                       []probeSpan
	errs                        []string
}

func (p *probeRun) iters(n int) int { return max(int(float64(n)*p.scale), 50) }

// batch times one probe iteration batch and records its span.
func (p *probeRun) batch(name string, iters int, f func() error) {
	s := time.Since(p.start)
	err := f()
	p.spans = append(p.spans, probeSpan{Name: name, StartNs: int64(s), EndNs: int64(time.Since(p.start)), Iterations: iters})
	if err != nil {
		p.errs = append(p.errs, name+": "+err.Error())
	}
}

// hop records one link ping-pong probe; unitNs converts its ns result
// into the metric's unit.
func (p *probeRun) hop(metric string, unitNs float64, iters int, probe func(iters int) (float64, error)) {
	p.batch(metric, iters, func() error {
		hop, err := probe(iters)
		p.metrics.set(metric, hop/unitNs, fmt.Sprintf("half round trip, %d round trips", iters))
		return err
	})
}

// medianOf runs n timed calls as one batch and returns their median in
// units of unitNs.
func (p *probeRun) medianOf(name string, unitNs float64, n int, probe func() (time.Duration, error)) float64 {
	took := make([]float64, 0, n)
	p.batch(name, n, func() error {
		for i := 0; i < n; i++ {
			d, err := probe()
			if err != nil {
				return err
			}
			took = append(took, float64(d)/unitNs)
		}
		return nil
	})
	return median(took)
}

// runProbes runs every layer probe once.
func runProbes(scale float64) *probeRun {
	p := &probeRun{scale: scale, start: time.Now(), metrics: metricSet{}}

	p.batch("host.spin_ns", 5, func() error {
		p.metrics.set("host.spin_ns", spinNs(), "1e6 xorshift rounds, min of 5")
		return nil
	})

	p.hop("runtime.chanlink_hop_ns", 1, p.iters(200_000), chanHop)
	n := p.iters(4000)
	p.hop("transport.tcp_hop_us", 1e3, n, tcpHop)
	p.hop("transport.mux_hop_us", 1e3, n, muxHop)
	p.hop("transport.tree_hop_us", 1e3, n, treeHop)
	p.hop("kernel.loopback_hop_us", 1e3, n, rawLoopbackHop) // 32-byte payload on a raw net.Conn

	n = p.iters(1_000_000)
	p.batch("transport.codec", n, func() error {
		enc, dec, size, err := codecProbe(n)
		p.metrics.set("transport.codec_encode_ns", enc, "AppendState incl. AppendFrame")
		p.metrics.set("transport.codec_decode_ns", dec, "FrameReader.Read + DecodeState")
		p.metrics.set("transport.frame_bytes", float64(size), "one state frame on the wire")
		return err
	})
	p.batch("obsv.observe_ns", n, func() error {
		p.metrics.set("obsv.observe_ns", observeProbe(n), "Histogram.Observe, 16 buckets")
		return nil
	})

	p.metrics.set("runtime.new_ms", p.medianOf("runtime.new_ms", 1e6, 9, newBarrierProbe),
		"ftbarrier.New, 32-member ring, median of 9")
	p.metrics.set("topo.hybrid_build_us", p.medianOf("topo.hybrid_build_us", 1e3, 9, hybridBuildProbe),
		"NewHybridTree, 32 members in 16 hosts, median of 9")
	var muxConnects []float64
	p.metrics.set("groups.start_ms", p.medianOf("groups.start_ms", 1e6, 3, func() (time.Duration, error) {
		connect, start, err := muxProbe()
		muxConnects = append(muxConnects, float64(connect)/1e6)
		return start, err
	}), "groups.NewWithMux, 16 groups, one process, median of 3")
	p.muxConnectMs = median(muxConnects)
	p.treeConnectMs = p.medianOf("transport.connect_ms.tree", 1e6, 3, treeConnectProbe)

	n = p.iters(20_000)
	p.batch("runtime.central_pass_us", n, func() error {
		p.metrics.set("runtime.central_pass_us", centralBarrierPass(32, n)/1e3,
			"intolerant sync.Cond barrier, n=32: the Fig 4/6 denominator")
		return nil
	})
	return p
}

// writeTrace writes the probe iteration batches as spans.
func (p *probeRun) writeTrace(outDir string) error {
	data, err := json.MarshalIndent(map[string]any{"clock": "ns since probes started", "spans": p.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-probes.json"), append(data, '\n'), 0o644)
}

// centralBarrier is the classic two-phase counter barrier with no fault
// tolerance whatsoever (the ablation in bench_test.go): what a pass costs
// when nothing is masked, stabilized or retransmitted.
type centralBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	phase int
	n     int
}

func (c *centralBarrier) await() {
	c.mu.Lock()
	phase := c.phase
	c.count++
	if c.count == c.n {
		c.count = 0
		c.phase++
		c.cond.Broadcast()
	} else {
		for c.phase == phase {
			c.cond.Wait()
		}
	}
	c.mu.Unlock()
}

// centralBarrierPass is the mean pass time of the intolerant barrier
// under the same closed loop.
func centralBarrierPass(n, passes int) float64 {
	cb := &centralBarrier{n: n}
	cb.cond = sync.NewCond(&cb.mu)
	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < passes; i++ {
				cb.await()
			}
		}()
	}
	wg.Wait()
	return perOp(time.Since(start), passes)
}
