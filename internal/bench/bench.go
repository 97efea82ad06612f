package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conformance"
	"repro/internal/prng"
	"repro/internal/runtime"
)

// Profile describes one load run: the deployment mode and shape, the
// offered load, the chaos schedule, and the SLO the run is judged by.
type Profile struct {
	// Mode selects the deployment: "inproc" (every group a plain runtime
	// barrier, channel transport), "loopback" (one mux per simulated
	// process over loopback TCP — the smoke configuration), or "daemon"
	// (spawned cmd/barrierd -groups processes).
	Mode string
	// Groups is the number of multiplexed barrier groups; every fifth is
	// a tree group, the rest rings.
	Groups int
	// Procs is the number of simulated processes; every group spans all
	// of them, so the client population is Groups × Procs.
	Procs int
	// NPhases is every group's phase-counter modulus.
	NPhases int
	// Duration is the load window (chaos and arrivals both stop at its
	// end; quiescence and scoring follow).
	Duration time.Duration
	// Rate is each client's open-loop arrival rate in passes/second.
	Rate float64
	// Seed resolves all residual randomness — the chaos schedule, the
	// arrival jitter, and the groups' internal draws. A run is
	// reproducible from (Profile, Seed).
	Seed int64
	// Resend is the groups' retransmission period. The default is 5ms:
	// resend is the liveness fallback, not the fast path, and at cluster
	// scale an aggressive period (hundreds of member-barriers × kHz
	// retransmission) saturates the shared muxes and dominates the very
	// latencies the run is measuring.
	Resend time.Duration
	// Corrupt is a per-message corruption rate injected into every group.
	Corrupt float64
	// Depth is every group's wave-pipelining window (default 1): up to
	// Depth barrier instances overlap per group, and a fault landing in
	// the window can force up to Depth re-executed waves per member —
	// the wasted-work axis DepthSweep measures.
	Depth int

	// Chaos enables the fault schedule, one step per chaosPacing;
	// Schedule overrides the generated one (Duration/chaosPacing steps)
	// with an explicit conformance schedule text (target "bench").
	Chaos    bool
	Schedule string

	// SLO judges the final snapshot; zero-valued fields take the
	// DefaultSLO bounds for the profile shape.
	SLO SLO

	// BarrierdPath is a prebuilt cmd/barrierd binary for daemon mode
	// ("" builds one into a temp dir).
	BarrierdPath string

	Logf func(format string, args ...any)
}

// DefaultSLO derives CI-safe bounds from the profile shape. The absolute
// numbers are deliberately loose — a 1-core CI box under -race is not a
// benchmark host — while every check still has teeth: a wedged rejoin, a
// leaked partition, a halt, or runaway re-execution all fail it.
func (p *Profile) DefaultSLO() SLO {
	// barrier_passes_total counts per barrier instance: one per group in
	// inproc mode (a single shared barrier), one per (process, group)
	// member in the loopback and daemon modes.
	instances := p.Groups * p.Procs
	if p.Mode == "inproc" {
		instances = p.Groups
	}
	ideal := p.Rate * p.Duration.Seconds() * float64(instances)
	return SLO{
		// 0.15: kill windows stall every group cluster-wide, and a churned
		// or restarted member's counters restart from zero with it, so the
		// retained cluster total sits well below the offered load even on a
		// healthy run.
		MinPasses:      ideal * 0.15,
		PassP99:        500 * time.Millisecond,
		RecoveryFactor: 5,
		RecoveryFloor:  300 * time.Millisecond,
		// A fault landing in a Depth-deep window can waste up to Depth
		// waves per member, so the per-fault envelope scales with the
		// window.
		MaxWastedPerFault: 4 * float64(p.Groups*p.Procs) * float64(max(p.Depth, 1)),
		MaxMeanInstances:  1.5,
	}
}

func (p *Profile) normalize() error {
	if p.Mode == "" {
		p.Mode = "loopback"
	}
	switch p.Mode {
	case "inproc", "loopback", "daemon":
	default:
		return fmt.Errorf("bench: unknown mode %q", p.Mode)
	}
	if p.Groups < 1 || p.Procs < 2 {
		return fmt.Errorf("bench: need groups ≥ 1 and procs ≥ 2, got %d×%d", p.Groups, p.Procs)
	}
	if p.NPhases == 0 {
		p.NPhases = 4
	}
	if p.Duration <= 0 {
		p.Duration = 30 * time.Second
	}
	if p.Rate <= 0 {
		p.Rate = 20
	}
	if p.Resend == 0 {
		p.Resend = 5 * time.Millisecond
	}
	if p.Depth == 0 {
		p.Depth = 1
	}
	if p.Depth < 1 {
		return fmt.Errorf("bench: need depth ≥ 1, got %d", p.Depth)
	}
	if p.SLO == (SLO{}) {
		p.SLO = p.DefaultSLO()
	}
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
	return nil
}

// ClientStats tallies the simulated clients' outcomes.
type ClientStats struct {
	Passes         int64 // successful Awaits
	Resets         int64 // ErrReset re-executions observed
	StoppedRetries int64 // Awaits against a stopped (killed/churned) group
	Timeouts       int64 // per-attempt Await deadlines during outages
}

// Report is the full outcome of a run.
type Report struct {
	Schedule conformance.Schedule
	Chaos    ChaosStats
	Client   ClientStats
	Snapshot *Snapshot
	Verdict  Verdict
	Elapsed  time.Duration

	// Headline snapshot numbers, cluster-wide.
	Passes float64
	Wasted float64
}

// cluster is the mode-specific deployment behind a run: the chaos surface
// plus lifecycle, load control, and scraping.
type cluster interface {
	Cluster
	// Start brings the deployment and its client load up.
	Start(ctx context.Context) error
	// Quiesce stops the arrivals, heals outstanding faults, and waits for
	// the cluster counters to go stable (a Safra-style double collection:
	// a snapshot counts as final only after two successive scrapes agree),
	// so scoring reads a drained cluster, not a moving one.
	Quiesce(ctx context.Context) error
	Scrape() (*Snapshot, error)
	ClientStats() ClientStats
	Close() error
}

// Run executes a profile end to end and returns its judged report.
func Run(ctx context.Context, p Profile) (*Report, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	var schedule conformance.Schedule
	if p.Chaos {
		if p.Schedule != "" {
			s, err := conformance.Parse(p.Schedule)
			if err != nil {
				return nil, fmt.Errorf("bench: -chaos schedule: %w", err)
			}
			schedule = s
		} else {
			schedule = GenerateChaos(p.Procs, p.Groups, int(p.Duration/chaosPacing), p.Seed)
		}
	}

	var c cluster
	var err error
	switch p.Mode {
	case "inproc":
		c, err = newInprocCluster(&p)
	case "loopback":
		c, err = newLoopbackCluster(&p)
	case "daemon":
		c, err = newDaemonCluster(&p)
	}
	if err != nil {
		return nil, err
	}
	defer c.Close()

	start := time.Now()
	if err := c.Start(ctx); err != nil {
		return nil, err
	}
	p.Logf("bench: %s cluster up: %d groups × %d procs, rate %g/s/client, seed %d",
		p.Mode, p.Groups, p.Procs, p.Rate, p.Seed)

	loadCtx, loadDone := context.WithTimeout(ctx, p.Duration)
	defer loadDone()
	var chaos ChaosStats
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		if p.Chaos {
			chaos = runChaos(loadCtx, c, schedule, p.Groups, chaosPacing, p.Logf)
		}
	}()
	<-loadCtx.Done()
	<-chaosDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.Logf("bench: load window over (%s); chaos applied %+v", p.Duration, chaos)

	if err := c.Quiesce(ctx); err != nil {
		return nil, fmt.Errorf("bench: quiesce: %w", err)
	}
	snap, err := c.Scrape()
	if err != nil {
		return nil, fmt.Errorf("bench: final scrape: %w", err)
	}

	r := &Report{
		Schedule: schedule,
		Chaos:    chaos,
		Client:   c.ClientStats(),
		Snapshot: snap,
		Elapsed:  time.Since(start),
		Passes:   snap.Sum("barrier_passes_total"),
		Wasted:   snap.Sum("barrier_wasted_instances_total"),
	}
	r.Verdict = p.SLO.Evaluate(snap, chaos.Faults(), chaos.StateFaults())
	return r, nil
}

// clientPool runs the simulated clients shared by the inproc and
// loopback modes: one goroutine per (process, group) pair, each pacing
// its arrivals open-loop from its own PRNG. An arrival that finds the
// previous Await still blocked is absorbed by running the loop behind
// schedule (arrival targets are anchored to the schedule, not to
// completions, so a slow barrier does not thin the offered load).
type clientPool struct {
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	passes, resets, stopped, timeouts atomic.Int64

	errMu sync.Mutex
	err   error
}

// chaosPacing is the wall-clock length of one chaos step: a generated
// schedule has one step per chaosPacing of the load window.
const chaosPacing = 100 * time.Millisecond

// awaitTimeout bounds one client attempt, so a client stalled by a kill
// or partition window returns to its arrival schedule instead of
// blocking through it. The abandoned ticket stays outstanding; the next
// attempt collects the pass.
const awaitTimeout = 2 * time.Second

func newClientPool(parent context.Context) *clientPool {
	ctx, stop := context.WithCancel(parent)
	return &clientPool{ctx: ctx, stop: stop}
}

func (cp *clientPool) fail(err error) {
	cp.errMu.Lock()
	if cp.err == nil {
		cp.err = err
	}
	cp.errMu.Unlock()
}

func (cp *clientPool) spawn(aw func(context.Context) (int, error), seed int64, rate float64) {
	interval := time.Duration(float64(time.Second) / rate)
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		rng := prng.New(seed)
		next := time.Now()
		for cp.ctx.Err() == nil {
			// Open-loop arrival: interval with ±25% jitter.
			next = next.Add(time.Duration(float64(interval) * (0.75 + 0.5*rng.Float64())))
			if d := time.Until(next); d > 0 {
				select {
				case <-cp.ctx.Done():
					return
				case <-time.After(d):
				}
			}
			actx, cancel := context.WithTimeout(cp.ctx, awaitTimeout)
			_, err := aw(actx)
			cancel()
			switch {
			case err == nil:
				cp.passes.Add(1)
			case errors.Is(err, runtime.ErrReset):
				cp.resets.Add(1)
			case errors.Is(err, runtime.ErrStopped):
				// The group's local member is down (kill/churn window).
				cp.stopped.Add(1)
				select {
				case <-cp.ctx.Done():
					return
				case <-time.After(2 * time.Millisecond):
				}
			case cp.ctx.Err() != nil:
				return
			case errors.Is(err, context.DeadlineExceeded):
				cp.timeouts.Add(1)
			default:
				cp.fail(err)
				return
			}
		}
	}()
}

// drain stops the arrivals and waits for every client to return.
func (cp *clientPool) drain() error {
	cp.stop()
	cp.wg.Wait()
	cp.errMu.Lock()
	defer cp.errMu.Unlock()
	return cp.err
}

func (cp *clientPool) stats() ClientStats {
	return ClientStats{
		Passes:         cp.passes.Load(),
		Resets:         cp.resets.Load(),
		StoppedRetries: cp.stopped.Load(),
		Timeouts:       cp.timeouts.Load(),
	}
}

// clientSeed decorrelates the per-client PRNGs from the profile seed.
func clientSeed(seed int64, proc, group int) int64 {
	return seed ^ int64(uint64(proc)*0x9e3779b97f4a7c15) ^ int64(uint64(group)*0xbf58476d1ce4e5b9)
}

// waitStable polls total until two successive reads `gap` apart agree —
// the double-collection quiescence check — or the deadline passes.
func waitStable(ctx context.Context, gap time.Duration, timeout time.Duration, total func() (float64, error)) error {
	deadline := time.Now().Add(timeout)
	prev, err := total()
	if err != nil {
		return err
	}
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("counters still moving after %s", timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(gap):
		}
		cur, err := total()
		if err != nil {
			return err
		}
		if cur == prev {
			return nil
		}
		prev = cur
	}
}
