package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// awaitDeadline is the per-attempt limit: an Await that returns later
	// counts as failed. It is checked after the call returns, so the
	// fault-free path carries no timer and no allocation; an Await that
	// never returns is the watchdog's.
	awaitDeadline = 2 * time.Second
	// warmPasses is the minimum every group completes before measuring.
	warmPasses = 100
	// sampleBudgetPerSec bounds the memory of the untimed-path latency
	// samples (uint32 ns each), shared among a workload's samplers.
	sampleBudgetPerSec = 150_000
	// spanBudget bounds the traced run's preallocated span memory.
	spanBudget = 2_400_000
)

// watchdogAfter is how long a workload may go without any completed pass
// before it is declared hung (a variable so its test need not wait 5 s).
var watchdogAfter = 5 * time.Second

// runOpts shapes one load run: either the untraced windows or the traced
// run of a workload.
type runOpts struct {
	seed    int64
	warm    time.Duration
	window  time.Duration
	windows int
	tracing bool
	outDir  string
}

// participant is one closed-loop caller plus everything it records. The
// fields below the atomics are owned by the participant's goroutine and
// read only after the run has joined.
type participant struct {
	caller
	nPhases int
	sampler bool // member 0 of its group: times every Await

	passes  atomic.Int64 // successful passes, read at window boundaries
	resetAt atomic.Int64 // run-clock stamp of an injected Reset not yet recovered from

	attempts, resets, failures, late int64
	firstErr                         error
	lastPhase                        int
	havePhase                        bool
	violations                       int64

	// Stabilization-window state (faults workload).
	seenEpoch   uint32
	cleanLen    int
	countedDone bool
	epochAnoms  int64

	samples  []uint32 // pass latencies, ns (sampler, untraced)
	nSamples atomic.Int64
	// entered[k%Depth] is when the Await that reaps wave k began. That
	// call entered wave k+Depth-1, so wave k was entered Depth-1 calls
	// earlier and its latency runs from entered[(k+1)%Depth] to the
	// reaping call's return; with Depth 1 that is the Await's own duration.
	entered []int64

	spanStart []int64 // traced: Await start per successful pass, run clock ns
	spanDur   []uint32
	nSpans    int

	hook      func(p *participant) // runs before each Await
	restartAt int64                // run-clock stamp of a group restart this caller performed

	_ [64]byte // keep neighbours' hot counters off this cache line
}

// faultState drives the faults workload's pass-indexed schedule and
// measures recovery. epoch is odd while a scramble's stabilization
// window is open: phase anomalies inside it are the fault's permitted
// damage, outside it they are violations.
type faultState struct {
	seed     int64
	epoch    atomic.Uint32
	done     atomic.Int32 // participants holding a clean run of cleanNeed passes
	maxAnoms atomic.Int64 // most anomalous steps any one participant saw this window

	scrambleAt atomic.Int64
	cleanStart []atomic.Int64 // per participant: end of the first pass of its clean run
	pubPhase   []atomic.Int32 // per participant: phase after its latest pass
	cleanNeed  int

	lastAt                     int64 // injector-owned
	skipped, overruns, applied int64
	log                        []appliedFault

	mu           sync.Mutex
	resetRec     []float64 // µs
	scrambleRec  []float64 // µs
	anomSum      int64
	windows      int64
	inconsistent int64
}

// appliedFault is one entry of the fault log stored in the result.
type appliedFault struct {
	Pass   int64  `json:"pass"`
	Op     string `json:"op"`
	Victim int    `json:"victim"`
	Seed   int64  `json:"seed,omitempty"`
}

// scheduledFault is the pure function pass index -> fault: a Scramble at
// every 512th pass of member 0, a Reset at every other 64th; victim and
// scramble seed drawn from the run seed and the pass index alone.
func scheduledFault(seed, pass int64, n int) (op string, victim int, fseed int64, ok bool) {
	if pass == 0 || pass%64 != 0 {
		return "", 0, 0, false
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(pass)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	victim = int(x % uint64(n))
	if pass%512 == 0 {
		return "scramble", victim, int64(x >> 8), true
	}
	return "reset", victim, 0, true
}

// loadRun is one built cluster under closed-loop load.
type loadRun struct {
	spec  *workloadSpec
	opts  runOpts
	c     *cluster
	start time.Time
	parts []*participant
	f     *faultState

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	tripped atomic.Bool

	restartDue  atomic.Bool
	restartMu   sync.Mutex
	restartFrom int64 // run clock: StopGroup called
	restartTook int64 // ns until the restarted member's next pass
	restartErr  error

	oracle *specOracle
}

func (r *loadRun) now() int64 { return int64(time.Since(r.start)) }

// runData is what one load run measured, before it is turned into named
// metrics.
type runData struct {
	elapsed     time.Duration
	passes      int64 // collective passes, summed over groups
	windowRates []float64
	windowCPU   []float64 // per-window CPU time per collective pass, µs
	windowP50   []float64 // per-window median of the pooled samples, ns
	windowTail  []float64 // per-window tail percentile of the pooled samples, ns
	tailPct     float64
	samples     []uint32 // all pooled samples, sorted
	truncated   bool

	cpu    cpuTimes
	io     ioCalls
	goc    goCounters // mallocs, gcPause: deltas; heapBytes, goroutines: at end
	rtc    runtimeCounters
	wire   wireCounters
	gap    int64 // frames sent - frames received at quiescence
	gapErr string

	attempts, failures, late, resets int64
	violations                       int64
	violationNotes                   []string
	firstErr                         error
	trips                            int64

	faults *faultReport
	trace  *traceData

	scrapeMs    []float64
	scrapeBytes int
	restartMs   float64

	spinBefore, spinAfter float64
}

type faultReport struct {
	resetUs, scrambleUs []float64
	anomPerScramble     float64
	skipped, applied    int64
	log                 []appliedFault
}

// startLoad builds the workload's cluster and sets its callers looping.
func startLoad(spec *workloadSpec, opts runOpts) (*loadRun, error) {
	r := &loadRun{spec: spec, opts: opts}
	var sink eventSink
	if opts.tracing && spec.specOracle {
		r.oracle = newSpecOracle(spec.n, nPhases, spec.faults)
		sink = r.oracle.observe
	}
	c, err := spec.build(opts.seed, sink)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	r.c = c
	for _, g := range c.groups {
		if g.n != spec.n || g.nPhases != nPhases {
			c.close()
			return nil, fmt.Errorf("%s: group %s is %d members x %d phases, the harness assumes %d x %d",
				spec.name, g.name, g.n, g.nPhases, spec.n, nPhases)
		}
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())

	measured := opts.window * time.Duration(opts.windows)
	samplers := len(c.groups)
	sampleCap := int(measured.Seconds()*sampleBudgetPerSec)/samplers + 1024
	spanCap := spanBudget / len(c.callers)
	r.parts = make([]*participant, len(c.callers))
	for i, cl := range c.callers {
		g := c.groups[cl.group]
		p := &participant{caller: cl, nPhases: g.nPhases, sampler: cl.id == 0, entered: make([]int64, g.depth)}
		if opts.tracing {
			p.spanStart = make([]int64, spanCap)
			p.spanDur = make([]uint32, spanCap)
		} else if p.sampler {
			p.samples = make([]uint32, sampleCap)
		}
		r.parts[i] = p
	}
	if spec.faults {
		n := c.groups[0].n
		r.f = &faultState{
			seed:        opts.seed,
			cleanStart:  make([]atomic.Int64, n),
			pubPhase:    make([]atomic.Int32, n),
			cleanNeed:   2 * c.groups[0].nPhases,
			resetRec:    make([]float64, 0, 1<<16),
			scrambleRec: make([]float64, 0, 1<<13),
			log:         make([]appliedFault, 0, 32),
		}
		r.parts[0].hook = r.injectFault
	}
	if spec.restart && opts.tracing {
		// The restarted member's own caller performs the restart, so no
		// Await ever meets a stopped group.
		for _, p := range r.parts {
			if p.id == muxProcs-1 && c.groups[p.group].name == restartGroupName {
				p.hook = r.maybeRestart
			}
		}
	}
	r.start = time.Now()
	for _, p := range r.parts {
		r.wg.Add(1)
		go r.loop(p)
	}
	return r, nil
}

// restartGroupName is the ring tenant the traced groups run restarts.
const restartGroupName = "g03"

// loop is the closed-loop caller: Await again as soon as the previous
// Await returns; ErrReset means redo the round.
func (r *loadRun) loop(p *participant) {
	defer r.wg.Done()
	ctx := r.ctx
	tracing := r.opts.tracing
	timed := p.sampler || tracing
	var t0, t1 int64
	for {
		if p.hook != nil {
			p.hook(p)
		}
		wave := int(p.passes.Load()) // own counter: the wave this call reaps
		if timed {
			t0 = r.now()
			p.entered[wave%len(p.entered)] = t0
		}
		p.attempts++
		ph, err := p.await(ctx)
		if err != nil {
			if errors.Is(err, errReset) {
				p.resets++
				continue
			}
			if ctx.Err() != nil {
				// End of the run caught this caller waiting: not an attempt,
				// unless the watchdog ended the run — then it is the hang.
				if r.tripped.Load() {
					p.failures++
				} else {
					p.attempts--
				}
				return
			}
			p.failures++
			if p.firstErr == nil {
				p.firstErr = err
			}
			if p.failures > 1000 {
				return // a persistent error (halted, stopped): stop burning CPU
			}
			continue
		}
		p.passes.Add(1)

		stepOK := !p.havePhase || phaseStepOK(p.lastPhase, ph, p.nPhases)
		p.lastPhase, p.havePhase = ph, true

		var epoch uint32
		if r.f != nil {
			epoch = r.f.epoch.Load()
		}
		resetAt := p.resetAt.Load()
		if timed || epoch&1 == 1 || resetAt != 0 || p.restartAt != 0 {
			t1 = r.now()
		}
		if timed {
			d := t1 - t0
			if d > int64(awaitDeadline) {
				p.late++
			}
			if tracing {
				if p.nSpans < len(p.spanStart) {
					p.spanStart[p.nSpans], p.spanDur[p.nSpans] = t0, uint32(min(d, 1<<32-1))
					p.nSpans++
				}
			} else if n := p.nSamples.Load(); int(n) < len(p.samples) {
				from := p.entered[(wave+1)%len(p.entered)]
				if wave < len(p.entered) {
					from = p.entered[0] // the first call entered the whole window
				}
				p.samples[n] = uint32(min(t1-from, 1<<32-1))
				p.nSamples.Store(n + 1)
			}
		}
		if resetAt != 0 {
			p.resetAt.Store(0)
			r.f.recordReset(t1 - resetAt)
		}
		if p.restartAt != 0 {
			r.restartMu.Lock()
			r.restartFrom, r.restartTook = p.restartAt, t1-p.restartAt
			r.restartMu.Unlock()
			p.restartAt = 0
		}
		switch {
		case epoch&1 == 1:
			r.f.step(p, epoch, stepOK, ph, t1)
		case !stepOK:
			p.violations++
		}
	}
}

// injectFault is member 0's hook on the faults workload.
func (r *loadRun) injectFault(p *participant) {
	f := r.f
	k := p.passes.Load()
	if k == f.lastAt {
		return
	}
	op, victim, fseed, ok := scheduledFault(f.seed, k, len(r.parts))
	if !ok {
		return
	}
	f.lastAt = k
	if f.epoch.Load()&1 == 1 {
		// The previous scramble's stabilization window is still open.
		// Skipping keeps the windows from overlapping; a window that
		// outlives a whole scramble interval did not stabilize.
		f.skipped++
		if op == "scramble" {
			f.overruns++
		}
		return
	}
	if len(f.log) < cap(f.log) {
		f.log = append(f.log, appliedFault{Pass: k, Op: op, Victim: victim, Seed: fseed})
	}
	f.applied++
	if op == "scramble" {
		f.done.Store(0)
		f.maxAnoms.Store(0)
		if r.oracle != nil {
			r.oracle.markScramble()
		}
		f.scrambleAt.Store(r.now())
		f.epoch.Add(1)
		r.c.scramble(victim, fseed)
		return
	}
	r.parts[victim].resetAt.Store(r.now())
	r.c.reset(victim)
}

func (f *faultState) recordReset(ns int64) {
	f.mu.Lock()
	if len(f.resetRec) < cap(f.resetRec) {
		f.resetRec = append(f.resetRec, float64(ns)/1e3)
	}
	f.mu.Unlock()
}

// step advances one participant's view of an open stabilization window.
// The window closes when every participant has returned nil with phases
// stepping by exactly +1 for cleanNeed consecutive passes; recovery time
// is from the Scramble call to the latest start of those clean runs.
func (f *faultState) step(p *participant, epoch uint32, stepOK bool, ph int, t1 int64) {
	if p.seenEpoch != epoch {
		p.seenEpoch, p.cleanLen, p.countedDone, p.epochAnoms = epoch, 0, false, 0
	}
	f.pubPhase[p.id].Store(int32(ph))
	if !stepOK {
		p.epochAnoms++
		p.cleanLen = 0
		if p.countedDone {
			p.countedDone = false
			f.done.Add(-1)
		}
	}
	if p.cleanLen == 0 {
		f.cleanStart[p.id].Store(t1)
	}
	p.cleanLen++
	if p.cleanLen < f.cleanNeed || p.countedDone {
		return
	}
	p.countedDone = true
	for {
		cur := f.maxAnoms.Load()
		if p.epochAnoms <= cur || f.maxAnoms.CompareAndSwap(cur, p.epochAnoms) {
			break
		}
	}
	if int(f.done.Add(1)) < len(f.cleanStart) {
		return
	}
	// Last one in closes the window.
	var latest int64
	for i := range f.cleanStart {
		latest = max(latest, f.cleanStart[i].Load())
	}
	// Callers at one barrier are within one pass of each other, so their
	// phases span at most two adjacent values once the group agrees.
	seen := make(map[int32]bool, 2)
	for i := range f.pubPhase {
		seen[f.pubPhase[i].Load()] = true
	}
	consistent := len(seen) == 1
	if len(seen) == 2 {
		for v := range seen {
			if seen[(v+1)%int32(p.nPhases)] {
				consistent = true
			}
		}
	}
	f.mu.Lock()
	if len(f.scrambleRec) < cap(f.scrambleRec) {
		f.scrambleRec = append(f.scrambleRec, float64(max(latest-f.scrambleAt.Load(), 0))/1e3)
	}
	f.anomSum += f.maxAnoms.Load()
	f.windows++
	if !consistent {
		f.inconsistent++
	}
	f.mu.Unlock()
	f.epoch.CompareAndSwap(epoch, epoch+1)
}

// maybeRestart is the restarted member's hook in the traced groups run.
func (r *loadRun) maybeRestart(p *participant) {
	if !r.restartDue.CompareAndSwap(true, false) {
		return
	}
	p.restartAt, p.havePhase = r.now(), false // a restarted process remembers no phase
	if err := r.c.restartGroup(p.id, restartGroupName); err != nil {
		r.restartMu.Lock()
		r.restartErr = err
		r.restartMu.Unlock()
	}
}

// collectivePasses sums, over groups, the passes of each group's sampler.
func (r *loadRun) collectivePasses() int64 {
	var n int64
	for _, p := range r.parts {
		if p.sampler {
			n += p.passes.Load()
		}
	}
	return n
}

// sleepWatching sleeps until the deadline in short steps, tripping the
// watchdog if no pass completes anywhere for watchdogAfter.
func (r *loadRun) sleepWatching(until time.Time, lastPasses *int64, lastProgress *time.Time) bool {
	for {
		left := time.Until(until)
		if left <= 0 {
			return true
		}
		time.Sleep(min(left, 50*time.Millisecond))
		if n := r.collectivePasses(); n != *lastPasses {
			*lastPasses, *lastProgress = n, time.Now()
		} else if time.Since(*lastProgress) > watchdogAfter {
			r.trip()
			return false
		}
	}
}

// trip is the watchdog firing: dump every goroutine's stack, then end
// the run; callers still inside Await are counted as failed by loop.
func (r *loadRun) trip() {
	r.tripped.Store(true)
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	path := filepath.Join(r.opts.outDir, "hang-"+r.spec.name+".txt")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "watchdog: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "watchdog: %s made no pass for %v; stacks in %s\n", r.spec.name, watchdogAfter, path)
}

// boundary is the state sampled at a window edge.
type boundary struct {
	at      time.Time
	passes  int64
	cpu     cpuTimes
	sampleN []int64 // per sampler
}

// boundary fills the next preallocated slot: the measured windows must
// not see the harness allocate.
func (r *loadRun) boundary(bounds []boundary) []boundary {
	bounds = bounds[:len(bounds)+1]
	b := &bounds[len(bounds)-1]
	b.at, b.passes, b.cpu, b.sampleN = time.Now(), r.collectivePasses(), readCPU(), b.sampleN[:0]
	for _, p := range r.parts {
		if p.sampler {
			b.sampleN = append(b.sampleN, p.nSamples.Load())
		}
	}
	return bounds
}

// measure drives one load run to completion: warm-up, the measured
// windows, teardown, and the quiescent frame reconciliation.
func measure(spec *workloadSpec, opts runOpts) (*runData, error) {
	d := &runData{spinBefore: spinNs()}
	r, err := startLoad(spec, opts)
	if err != nil {
		return nil, err
	}
	lastPasses, lastProgress := int64(0), time.Now()
	alive := r.sleepWatching(time.Now().Add(opts.warm), &lastPasses, &lastProgress)
	for alive && !r.warm() {
		alive = r.sleepWatching(time.Now().Add(5*time.Millisecond), &lastPasses, &lastProgress)
	}

	bounds := make([]boundary, opts.windows+1)
	for i := range bounds {
		bounds[i].sampleN = make([]int64, 0, len(r.c.groups))
	}
	bounds = bounds[:0]
	if alive {
		runtime.GC() // start every measurement from a collected heap
		cpu0, io0, go0 := readCPU(), readIO(), readGo()
		rt0, wire0 := r.c.runtimeStats(), r.c.wireStats()
		bounds = r.boundary(bounds)
		for w := 0; w < opts.windows && alive; w++ {
			end := bounds[0].at.Add(time.Duration(w+1) * opts.window)
			if spec.restart && opts.tracing {
				alive = r.lifecycle(d, bounds[0].at, opts.window, &lastPasses, &lastProgress)
			}
			if alive {
				alive = r.sleepWatching(end, &lastPasses, &lastProgress)
			}
			if alive {
				bounds = r.boundary(bounds)
			}
		}
		rt1, wire1 := r.c.runtimeStats(), r.c.wireStats()
		cpu1, io1, go1 := readCPU(), readIO(), readGo()
		d.cpu = cpuTimes{user: cpu1.user - cpu0.user, sys: cpu1.sys - cpu0.sys}
		d.io = ioCalls{reads: io1.reads - io0.reads, writes: io1.writes - io0.writes, ok: io0.ok && io1.ok}
		d.goc = goCounters{mallocs: go1.mallocs - go0.mallocs, gcPause: go1.gcPause - go0.gcPause,
			heapBytes: go1.heapBytes, goroutines: go1.goroutines}
		d.rtc = subRuntime(rt1, rt0)
		d.wire = subWire(wire1, wire0)
	}
	r.cancel()
	r.wg.Wait()
	if r.tripped.Load() {
		d.trips = 1
	}
	d.gap, d.gapErr = r.reconcile()
	r.c.close()
	d.spinAfter = spinNs()

	r.collect(d, bounds)
	return d, nil
}

// lifecycle plays the traced groups run's tenant events under load: a
// scrape of process 0's registry at each third of the window, and the
// restart of one group's member after the first.
func (r *loadRun) lifecycle(d *runData, start time.Time, window time.Duration, lastPasses *int64, lastProgress *time.Time) (alive bool) {
	var out scrapeCounter
	for i := 1; i <= 2; i++ {
		if !r.sleepWatching(start.Add(time.Duration(i)*window/3), lastPasses, lastProgress) {
			return false
		}
		t0 := time.Now()
		out.n = 0
		if err := r.c.scrape(&out); err == nil {
			d.scrapeMs = append(d.scrapeMs, float64(time.Since(t0))/1e6)
			d.scrapeBytes = out.n
		}
		if i == 1 {
			r.restartDue.Store(true)
		}
	}
	return true
}

// warm reports whether every group has completed warmPasses.
func (r *loadRun) warm() bool {
	for _, p := range r.parts {
		if p.sampler && p.passes.Load() < warmPasses {
			return false
		}
	}
	return true
}

// scrapeCounter is an io.Writer that only counts: the scrape probe
// measures rendering, not buffer growth.
type scrapeCounter struct{ n int }

func (s *scrapeCounter) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }

// reconcile is the Safra-style bookkeeping check: with every barrier
// halted (senders quiet, links still open) the frames sent and received
// across the whole cluster must become equal. The mux counts a frame
// that arrives for a torn-down group in both its received and its dropped
// counter, so received-and-delivered plus dropped is its received count.
func (r *loadRun) reconcile() (gap int64, note string) {
	if r.c.wire == nil {
		return 0, ""
	}
	r.c.halt()
	deadline := time.Now().Add(2 * time.Second)
	prev := r.c.wireStats()
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		cur := r.c.wireStats()
		if cur == prev {
			if stable++; stable >= 3 {
				break
			}
		} else {
			stable = 0
		}
		prev = cur
	}
	if stable < 3 {
		note = "frame counters never settled"
	}
	return prev.framesSent - prev.framesRecv, note
}

func subRuntime(a, b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		passes: a.passes - b.passes, resets: a.resets - b.resets,
		sends: a.sends - b.sends, drops: a.drops - b.drops,
		droppedInjections: a.droppedInjections - b.droppedInjections,
		resetsInjected:    a.resetsInjected - b.resetsInjected,
		scramblesInjected: a.scramblesInjected - b.scramblesInjected,
		rejected:          a.rejected - b.rejected, wasted: a.wasted - b.wasted,
	}
}

func subWire(a, b wireCounters) wireCounters {
	return wireCounters{
		framesSent: a.framesSent - b.framesSent, framesRecv: a.framesRecv - b.framesRecv,
		groupDropped: a.groupDropped - b.groupDropped, connDrops: a.connDrops - b.connDrops,
		decodeErrors: a.decodeErrors - b.decodeErrors, failedDials: a.failedDials - b.failedDials,
		connectedOut: a.connectedOut,
	}
}

// collect folds the participants' records into d after the run joined.
func (r *loadRun) collect(d *runData, bounds []boundary) {
	for _, p := range r.parts {
		d.attempts += p.attempts
		d.failures += p.failures + p.late
		d.late += p.late
		d.resets += p.resets
		d.violations += p.violations
		if p.violations > 0 {
			d.violationNotes = append(d.violationNotes,
				fmt.Sprintf("%s member %d: %d phase steps other than +1", r.c.groups[p.group].name, p.id, p.violations))
		}
		if d.firstErr == nil {
			d.firstErr = p.firstErr
		}
	}
	r.restartMu.Lock()
	d.restartMs = float64(r.restartTook) / 1e6
	if r.restartErr != nil && d.firstErr == nil {
		d.firstErr = r.restartErr
	}
	r.restartMu.Unlock()

	// Final pass counts of one group's callers agree within Depth: the
	// run's end catches them at most one window apart. Scrambles may
	// legitimately skew counts, so the faults workload is exempt.
	if r.f == nil && d.trips == 0 {
		lo := make([]int64, len(r.c.groups))
		hi := make([]int64, len(r.c.groups))
		for i := range lo {
			lo[i] = 1 << 62
		}
		for _, p := range r.parts {
			n := p.passes.Load()
			lo[p.group], hi[p.group] = min(lo[p.group], n), max(hi[p.group], n)
		}
		for gi, g := range r.c.groups {
			if hi[gi]-lo[gi] > int64(g.depth) {
				d.violations++
				d.violationNotes = append(d.violationNotes,
					fmt.Sprintf("%s: final pass counts span %d..%d, more than Depth=%d apart", g.name, lo[gi], hi[gi], g.depth))
			}
		}
	}

	if len(bounds) >= 2 {
		first, last := bounds[0], bounds[len(bounds)-1]
		d.elapsed = last.at.Sub(first.at)
		d.passes = last.passes - first.passes
		var samplers []*participant
		for _, p := range r.parts {
			if p.sampler {
				samplers = append(samplers, p)
			}
		}
		minWindow := 1 << 62
		windows := make([][]uint32, 0, len(bounds)-1)
		for w := 1; w < len(bounds); w++ {
			a, b := bounds[w-1], bounds[w]
			d.windowRates = append(d.windowRates, float64(b.passes-a.passes)/b.at.Sub(a.at).Seconds())
			d.windowCPU = append(d.windowCPU, perPass(((b.cpu.user+b.cpu.sys)-(a.cpu.user+a.cpu.sys)).Microseconds(), b.passes-a.passes))
			var pool []uint32
			for si, p := range samplers {
				if p.samples != nil {
					pool = append(pool, p.samples[a.sampleN[si]:b.sampleN[si]]...)
				}
			}
			windows = append(windows, sortedCopy(pool))
			minWindow = min(minWindow, len(pool))
			d.samples = append(d.samples, pool...)
		}
		d.samples = sortedCopy(d.samples)
		for _, p := range samplers {
			if p.samples != nil && int(p.nSamples.Load()) == len(p.samples) {
				d.truncated = true
			}
		}
		// The tail percentile every window can support: p99 needs 1000
		// samples per window to leave ten beyond it.
		d.tailPct = tailPercentile(minWindow)
		for _, w := range windows {
			d.windowP50 = append(d.windowP50, percentile(w, 50))
			d.windowTail = append(d.windowTail, percentile(w, d.tailPct))
		}
	}

	if f := r.f; f != nil {
		d.violations += f.overruns + f.inconsistent
		if f.overruns > 0 {
			d.violationNotes = append(d.violationNotes,
				fmt.Sprintf("%d stabilization windows outlived a whole scramble interval", f.overruns))
		}
		if f.inconsistent > 0 {
			d.violationNotes = append(d.violationNotes,
				fmt.Sprintf("%d stabilization windows closed with callers disagreeing on the phase", f.inconsistent))
		}
		rep := &faultReport{resetUs: f.resetRec, scrambleUs: f.scrambleRec,
			skipped: f.skipped, applied: f.applied, log: f.log}
		if f.windows > 0 {
			rep.anomPerScramble = float64(f.anomSum) / float64(f.windows)
		}
		d.faults = rep
	}
	if r.opts.tracing {
		d.trace = r.buildTrace(bounds)
	}
}
