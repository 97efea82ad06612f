package ftbarrier

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/rbtree"
	"repro/internal/topo"
	"repro/internal/transport"
)

// The benchmarks below regenerate every figure and table of the paper's
// evaluation (Section 6) plus the ablations called out in DESIGN.md. Each
// figure benchmark reports the figure's y-axis value for a representative
// grid point via b.ReportMetric; cmd/experiments prints the full series.

// --- Figure 3: analytical — expected instances per successful phase vs
// fault frequency, for several latencies, 32 processes (h = 5). ---

func BenchmarkFig3AnalyticalInstances(b *testing.B) {
	for _, c := range []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05} {
		for _, f := range []float64{0, 0.001, 0.01, 0.05, 0.1} {
			c, f := c, f
			b.Run(fmt.Sprintf("c=%g/f=%g", c, f), func(b *testing.B) {
				m := AnalyticalModel{H: 5, C: c, F: f}
				var v float64
				for i := 0; i < b.N; i++ {
					v = m.ExpectedInstances()
				}
				b.ReportMetric(v, "instances/phase")
			})
		}
	}
}

// --- Figure 4: analytical — overhead of fault-tolerance vs latency, for
// several fault frequencies (spot values 4.5%, 5.7%, 10.8% at c=0.01). ---

func BenchmarkFig4AnalyticalOverhead(b *testing.B) {
	for _, f := range []float64{0, 0.01, 0.05} {
		for _, c := range []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05} {
			c, f := c, f
			b.Run(fmt.Sprintf("f=%g/c=%g", f, c), func(b *testing.B) {
				m := AnalyticalModel{H: 5, C: c, F: f}
				var v float64
				for i := 0; i < b.N; i++ {
					v = m.Overhead()
				}
				b.ReportMetric(v*100, "overhead-%")
			})
		}
	}
}

// --- Figure 5: simulated — instances per successful phase vs fault
// frequency (tree program under the timed maximal parallel semantics). ---

func BenchmarkFig5SimulatedInstances(b *testing.B) {
	for _, c := range []float64{0, 0.01, 0.05} {
		for _, f := range []float64{0, 0.01, 0.05, 0.1} {
			c, f := c, f
			b.Run(fmt.Sprintf("c=%g/f=%g", c, f), func(b *testing.B) {
				var last SimResult
				for i := 0; i < b.N; i++ {
					res, err := SimulateDetectable(SimConfig{
						Procs: 32, C: c, F: f, Seed: int64(i), Phases: 100,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.InstancesPerPhase, "instances/phase")
			})
		}
	}
}

// --- Figure 6: simulated — overhead of fault-tolerance vs latency
// (relative to the intolerant 1+2hc baseline). ---

func BenchmarkFig6SimulatedOverhead(b *testing.B) {
	for _, f := range []float64{0, 0.01, 0.05} {
		for _, c := range []float64{0.01, 0.03, 0.05} {
			c, f := c, f
			b.Run(fmt.Sprintf("f=%g/c=%g", f, c), func(b *testing.B) {
				var last SimResult
				for i := 0; i < b.N; i++ {
					res, err := SimulateDetectable(SimConfig{
						Procs: 32, C: c, F: f, Seed: int64(i), Phases: 100,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.Overhead*100, "overhead-%")
			})
		}
	}
}

// --- Figure 7: simulated — recovery time from an arbitrary state vs
// latency, for tree heights h = 1..7 (2..128 processes). ---

func BenchmarkFig7Recovery(b *testing.B) {
	for _, procs := range []int{2, 7, 32, 128} {
		for _, c := range []float64{0.01, 0.03, 0.05} {
			procs, c := procs, c
			b.Run(fmt.Sprintf("procs=%d/c=%g", procs, c), func(b *testing.B) {
				sum := 0.0
				for i := 0; i < b.N; i++ {
					r, err := SimulateRecovery(SimConfig{Procs: procs, C: c, Seed: int64(i)})
					if err != nil {
						b.Fatal(err)
					}
					sum += r.Time
				}
				b.ReportMetric(sum/float64(b.N), "recovery-time")
			})
		}
	}
}

// --- Table 1: the cost of each tolerance mechanism on the runtime
// barrier: fault-free pass, masking a detectable reset, stabilizing an
// undetectable scramble. (Fail-safe halt and trivially-masked faults have
// no per-pass protocol cost; they are validated in the test suite.) ---

func benchRuntimePasses(b *testing.B, n int, disturb func(*Barrier, int)) {
	benchRuntimePassesCfg(b, Config{Participants: n, Seed: 1}, disturb)
}

func benchRuntimePassesCfg(b *testing.B, cfg Config, disturb func(*Barrier, int)) {
	benchRuntimePassesCtx(b, cfg, disturb, false)
}

// benchRuntimePassesCtx runs the closed loop of benchRuntimePassesCfg.
// Every Await shares one cancellable ctx, as a closed-loop caller does,
// unless fresh: then each Await gets a new child of it, canceled when the
// Await returns, and the contexts' own allocations are reported as
// caller-allocs/op (cmd/benchgate holds allocs/op to that).
func benchRuntimePassesCtx(b *testing.B, cfg Config, disturb func(*Barrier, int), fresh bool) {
	n := cfg.Participants
	bar, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer bar.Stop()

	// Workers keep participating until EVERY worker has reached b.N passes:
	// under injected faults (especially undetectable scrambles) individual
	// pass counts may transiently skew, and a worker that stopped arriving
	// at its own target would stall the rest forever.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	passes := make([]atomic.Int64, n)
	allDone := func() bool {
		for i := range passes {
			if passes[i].Load() < int64(b.N) {
				return false
			}
		}
		return true
	}

	await := func(id int) error {
		_, err := bar.Await(ctx, id)
		return err
	}
	var perCtx float64
	if fresh {
		perCtx = testing.AllocsPerRun(100, func() {
			c, cancel := context.WithCancel(ctx)
			_ = c.Done() // Await looks at Done, which makes the channel
			cancel()
		})
		await = func(id int) error {
			c, cancel := context.WithCancel(ctx)
			_, err := bar.Await(c, id)
			cancel()
			return err
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if id == 0 && disturb != nil {
					disturb(bar, int(passes[0].Load()))
				}
				err := await(id)
				switch {
				case err == nil:
					passes[id].Add(1)
					if allDone() {
						cancel()
						return
					}
				case errors.Is(err, ErrReset):
					// redo the phase
				default:
					return // ctx canceled: the collective is done
				}
			}
		}()
	}
	wg.Wait()
	if fresh {
		b.ReportMetric(perCtx*float64(n), "caller-allocs/op")
	}
}

func BenchmarkTable1ToleranceCost(b *testing.B) {
	b.Run("masking/fault-free", func(b *testing.B) {
		benchRuntimePasses(b, 4, nil)
	})
	b.Run("masking/detectable-reset-every-8", func(b *testing.B) {
		benchRuntimePasses(b, 4, func(bar *Barrier, i int) {
			if i%8 == 3 {
				bar.Reset(1)
			}
		})
	})
	b.Run("stabilizing/scramble-every-16", func(b *testing.B) {
		benchRuntimePasses(b, 4, func(bar *Barrier, i int) {
			if i%16 == 5 {
				bar.Scramble(2, int64(i))
			}
		})
	})
}

// --- Placement comparison: a full barrier pass with every member on one
// scheduler (no transport; BenchmarkAwaitChannel keeps its name from when
// that meant a goroutine per member over channel links) vs a scheduler
// per member over the loopback TCP transport, for both the ring and the
// tree topology. The in-process/TCP delta is the cost of real links —
// a wakeup per hop, framing, checksums, kernel round trips — for the
// identical protocol; the ring/tree delta is 3N hops against O(log N)
// hops carrying about twice the messages. BENCH_runtime.json and
// EXPERIMENTS.md record representative numbers. ---

func BenchmarkAwaitChannel(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			benchRuntimePassesCfg(b, Config{Participants: n, Seed: 1}, nil)
		})
	}
}

// BenchmarkAwaitChannelFreshCtx is AwaitChannel/n=32 for callers that pass
// a fresh cancellable ctx on every Await. Each park is then the ctx's
// first sighting, so Leave waits in the select over its wake and the ctx
// and registers nothing (the reused-ctx benches park on wake alone once
// their ctx is watched). Compare with AwaitChannel/n=32 from the same run;
// its allocations are the callers' contexts (caller-allocs/op), none the
// barrier's.
func BenchmarkAwaitChannelFreshCtx(b *testing.B) {
	b.Run("n=32", func(b *testing.B) {
		b.ReportAllocs()
		benchRuntimePassesCtx(b, Config{Participants: 32, Seed: 1}, nil, true)
	})
}

func BenchmarkAwaitTree(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			benchRuntimePassesCfg(b, Config{Participants: n, Seed: 1, Topology: TopologyTree}, nil)
		})
	}
}

// BenchmarkAwaitTreeLossy is AwaitTree/n=32 with 1% message loss, the
// repo benchmark's faults-tree32-inproc without its resets and scrambles:
// on one scheduler a dropped frame is masked at the next quiescence by
// re-reading the sender's register (DESIGN.md section 12), so the cost of
// loss is the pull round, not a resend period — and the pull round may
// not allocate. Compare with AwaitTree/n=32 from the same run.
func BenchmarkAwaitTreeLossy(b *testing.B) {
	b.Run("n=32", func(b *testing.B) {
		b.ReportAllocs()
		benchRuntimePassesCfg(b, Config{Participants: 32, Seed: 1, Topology: TopologyTree, LossRate: 0.01}, nil)
	})
}

func BenchmarkAwaitTCPLoopback(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			tr, err := NewLoopbackRing(n)
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			benchRuntimePassesCfg(b, Config{Participants: n, Seed: 1, Transport: tr}, nil)
		})
	}
}

func BenchmarkAwaitTCPLoopbackTree(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			tr, err := NewLoopbackTree(n)
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			benchRuntimePassesCfg(b, Config{
				Participants: n, Seed: 1, Topology: TopologyTree, Transport: tr,
			}, nil)
		})
	}
}

// --- Hybrid topology: members fused two per host, hosts joined in a
// binary tree. In-process the whole cluster fuses onto one scheduler (the
// pure fusion win); over loopback TCP only host roots touch the wire, so
// an n-member barrier pays O(log(n/2)) socket hops instead of the ring's
// O(n) — the deployment shape for multicore hosts in a cluster. ---

// benchPairHosts groups n members two per host ({0,1},{2,3},...).
func benchPairHosts(n int) [][]int {
	var hosts [][]int
	for i := 0; i < n; i += 2 {
		roster := []int{i}
		if i+1 < n {
			roster = append(roster, i+1)
		}
		hosts = append(hosts, roster)
	}
	return hosts
}

func BenchmarkAwaitHybrid(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			benchRuntimePassesCfg(b, Config{
				Participants: n, Seed: 1, Topology: TopologyHybrid, Hosts: benchPairHosts(n),
			}, nil)
		})
	}
}

// benchHybridCluster is benchRuntimePassesCfg for the distributed hybrid
// shape: one Barrier per host sharing the host-tree transport, every
// member of every host looping Await until all have b.N passes.
func benchHybridCluster(b *testing.B, hosts [][]int, tr Transport) {
	n := 0
	for _, roster := range hosts {
		n += len(roster)
	}
	bars := make([]*Barrier, len(hosts))
	for h := range hosts {
		bar, err := New(Config{
			Participants: n, Seed: 1, Topology: TopologyHybrid,
			Hosts: hosts, Transport: tr, Members: hosts[h],
		})
		if err != nil {
			b.Fatal(err)
		}
		defer bar.Stop()
		bars[h] = bar
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	passes := make([]atomic.Int64, n)
	allDone := func() bool {
		for i := range passes {
			if passes[i].Load() < int64(b.N) {
				return false
			}
		}
		return true
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for h, roster := range hosts {
		for _, id := range roster {
			h, id := h, id
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := bars[h].Await(ctx, id)
					switch {
					case err == nil:
						passes[id].Add(1)
						if allDone() {
							cancel()
							return
						}
					case errors.Is(err, ErrReset):
					default:
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

func BenchmarkAwaitTCPLoopbackHybrid(b *testing.B) {
	// n=2 would fuse onto a single host — no wire at all — so the TCP
	// comparison starts at two hosts.
	for _, n := range []int{4, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			hosts := benchPairHosts(n)
			hy, err := NewHybridTopology(hosts, 0)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := NewLoopbackTreeParent(hy.HostTree.Parent)
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			benchHybridCluster(b, hosts, tr)
		})
	}
}

// --- Wave pipelining: Depth outstanding barrier instances per group over
// the multiplexed loopback TCP transport. The lanes share one connection
// per process pair, so overlapped waves batch their frames into single
// writes; one op is still one delivered pass by every participant, and
// ns/op falls as the window hides the per-pass round-trip latency. ---

func BenchmarkAwaitPipelined(b *testing.B) {
	const n = 4
	for _, depth := range []int{1, 2, 4} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			specs := make([]transport.GroupSpec, depth)
			for li := range specs {
				specs[li] = transport.GroupSpec{ID: uint32(li), Name: fmt.Sprintf("lane%d", li)}
			}
			set, err := transport.NewLoopbackMuxes(n, specs)
			if err != nil {
				b.Fatal(err)
			}
			defer set.Close()
			lanes := make([]Transport, depth)
			for li := range lanes {
				lanes[li] = set.Group(uint32(li))
			}
			benchRuntimePassesCfg(b, Config{
				Participants: n, Seed: 1, Depth: depth, LaneTransports: lanes,
			}, nil)
		})
	}
}

// --- Ablation: ring (O(N)) vs tree (O(h)) synchronization rounds under
// maximal parallelism (a processor per process: rounds are latency). The
// live runtime's one-scheduler placement pays per message instead, and
// there the ring is no slower than the tree (BenchmarkAwaitChannel/Tree). ---

func BenchmarkAblationRingVsTree(b *testing.B) {
	roundsPerBarrier := func(parent []int) float64 {
		rng := rand.New(rand.NewSource(1))
		n := len(parent)
		checker := core.NewSpecChecker(n, 2)
		p, err := rbtree.New(parent, 2, n+1, rng, checker.Observe)
		if err != nil {
			b.Fatal(err)
		}
		rounds := 0
		for checker.SuccessfulBarriers() < 20 {
			if p.Guarded().StepMaxParallel(nil) == 0 {
				b.Fatal("deadlock")
			}
			rounds++
		}
		return float64(rounds) / 20
	}
	for _, n := range []int{8, 32, 128} {
		n := n
		b.Run(fmt.Sprintf("ring/n=%d", n), func(b *testing.B) {
			parent := make([]int, n)
			parent[0] = -1
			for i := 1; i < n; i++ {
				parent[i] = i - 1
			}
			var v float64
			for i := 0; i < b.N; i++ {
				v = roundsPerBarrier(parent)
			}
			b.ReportMetric(v, "rounds/barrier")
		})
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			tr, err := topo.NewBinaryTree(n)
			if err != nil {
				b.Fatal(err)
			}
			var v float64
			for i := 0; i < b.N; i++ {
				v = roundsPerBarrier(tr.Parent)
			}
			b.ReportMetric(v, "rounds/barrier")
		})
	}
}

// --- Ablation: sequence-number domain size K (K > N required; larger K
// buys nothing — the paper's O(log N) state claim depends on K = N+1). ---

func BenchmarkAblationSequenceDomain(b *testing.B) {
	const n = 32
	for _, k := range []int{n + 1, 2 * n, 4 * n} {
		k := k
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tr, err := topo.NewBinaryTree(n)
			if err != nil {
				b.Fatal(err)
			}
			var rounds int
			for i := 0; i < b.N; i++ {
				checker := core.NewSpecChecker(n, 2)
				p, err := rbtree.New(tr.Parent, 2, k, rng, checker.Observe)
				if err != nil {
					b.Fatal(err)
				}
				rounds = 0
				for checker.SuccessfulBarriers() < 10 {
					if p.Guarded().StepMaxParallel(nil) == 0 {
						b.Fatal("deadlock")
					}
					rounds++
				}
			}
			b.ReportMetric(float64(rounds)/10, "rounds/barrier")
		})
	}
}

// --- Ablation: the runtime fault-tolerant barrier vs a plain centralized
// (fault-intolerant) barrier built from sync primitives — the cost of
// tolerance in a real goroutine system. ---

// centralBarrier is the classic two-phase counter barrier: no fault
// tolerance whatsoever.
type centralBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	phase int
	n     int
}

func newCentralBarrier(n int) *centralBarrier {
	cb := &centralBarrier{n: n}
	cb.cond = sync.NewCond(&cb.mu)
	return cb
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

func BenchmarkAblationRuntimeVsCentral(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("ft-barrier/n=%d", n), func(b *testing.B) {
			benchRuntimePasses(b, n, nil)
		})
		b.Run(fmt.Sprintf("central-intolerant/n=%d", n), func(b *testing.B) {
			cb := newCentralBarrier(n)
			b.ResetTimer()
			var wg sync.WaitGroup
			for id := 0; id < n; id++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						cb.await()
					}
				}()
			}
			wg.Wait()
		})
	}
}

// --- Ablation: guarded-engine scheduler throughput (steps/sec for the
// tree protocol under interleaving vs maximal parallelism). ---

func BenchmarkSchedulerThroughput(b *testing.B) {
	build := func() *rbtree.Program {
		rng := rand.New(rand.NewSource(1))
		tr, _ := topo.NewBinaryTree(32)
		p, err := rbtree.New(tr.Parent, 2, 33, rng, nil)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("roundRobin", func(b *testing.B) {
		p := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Guarded().StepRoundRobin()
		}
	})
	b.Run("maxParallel", func(b *testing.B) {
		p := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Guarded().StepMaxParallel(nil)
		}
	})
}

// --- Reference: the intolerant baseline under the timed semantics (used
// by Figure 6's denominator). ---

func BenchmarkIntolerantBaselineSim(b *testing.B) {
	for _, c := range []float64{0, 0.01, 0.05} {
		c := c
		b.Run(fmt.Sprintf("c=%g", c), func(b *testing.B) {
			var last SimResult
			for i := 0; i < b.N; i++ {
				res, err := SimulateIntolerant(SimConfig{Procs: 32, C: c, Seed: 1, Phases: 100})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.TimePerPhase, "time/phase")
			b.ReportMetric(baseline.AnalyticPhaseTime(5, c), "analytic-1+2hc")
		})
	}
}

// --- Ablation: Fig 2(c) leaf→root wires vs Fig 2(d) convergecast — the
// topology trade-off of Section 4.2. ---

func BenchmarkAblationTopologyFig2cVsFig2d(b *testing.B) {
	for _, cfg := range []struct {
		name         string
		convergecast bool
	}{
		{"fig2c-leaf-wires", false},
		{"fig2d-convergecast", true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var last SimResult
			for i := 0; i < b.N; i++ {
				res, err := SimulateDetectable(SimConfig{
					Procs: 32, C: 0.02, F: 0.01, Seed: int64(i), Phases: 100,
					Convergecast: cfg.convergecast,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.TimePerPhase, "time/phase")
		})
	}
}
