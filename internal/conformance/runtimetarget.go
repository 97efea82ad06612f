package conformance

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// Runtime-target pacing and deadlines. The runtime barrier is real
// goroutines exchanging real messages, so the harness shapes time rather
// than steps: an OpStep is a slice of wall-clock during which the ring
// runs freely, and the verification tail is a liveness deadline.
const (
	runtimeStepPacing   = 200 * time.Microsecond
	runtimeResend       = 50 * time.Microsecond
	runtimeTailDeadline = 20 * time.Second
	// runtimeTraceCap bounds the recorded event trace used for the
	// stabilization suffix check; the newest events win.
	runtimeTraceCap = 1 << 16
)

// runtimeCollector records the serialized event stream: a bounded trace
// (for suffix-stabilization analysis) plus an online checker (for masking
// runs). The barrier serializes sink calls, but the final read happens on
// the harness goroutine after Stop, so a mutex keeps the race detector —
// and the memory model — satisfied.
type runtimeCollector struct {
	mu      sync.Mutex
	checker *core.SpecChecker
	trace   []core.Event
}

func (c *runtimeCollector) sink(e core.Event) {
	c.mu.Lock()
	c.checker.Observe(e)
	if len(c.trace) == runtimeTraceCap {
		// Drop the oldest half in one block; the stabilization check only
		// needs a suffix, and block moves keep the sink O(1) amortized.
		c.trace = append(c.trace[:0], c.trace[runtimeTraceCap/2:]...)
	}
	c.trace = append(c.trace, e)
	c.mu.Unlock()
}

// runRuntime executes a schedule against the live goroutine barrier.
//
// Verdict semantics mirror runEngine: masking schedules (no scrambles)
// must keep the specification clean for the whole run and deliver
// tailBarriers fresh passes to every participant after faults stop;
// stabilizing schedules must deliver the passes and exhibit a trace
// suffix satisfying the specification (core.SuffixSatisfying — the
// harness cannot peek at goroutine-private state to detect a start state,
// so stabilization is judged from the observable trace alone).
func runRuntime(s Schedule) Verdict {
	v := Verdict{FailOpIndex: -1}
	masking := !s.HasUndetectable()
	col := &runtimeCollector{checker: core.NewSpecChecker(s.NProcs, s.NPhases)}
	// Metrics ride along on every conformance run: after the replay, the
	// exported fault counters must equal what the schedule injected (the
	// metric-vs-schedule oracle), and scraping during the run keeps the
	// exposition path under the race detector's eyes.
	reg := obsv.NewRegistry()
	// The tcp target runs the identical protocol over loopback sockets:
	// the verdict must not depend on which transport carries the ring.
	var tr runtime.Transport
	if s.Target == TargetTCP {
		tcp, err := transport.NewLoopbackRing(s.NProcs,
			func(c *transport.TCPConfig) { c.Registry = reg })
		if err != nil {
			v.Reason = "loopback transport: " + err.Error()
			return v
		}
		defer tcp.Close()
		tr = tcp
	}
	// The mux target runs the scheduled barrier as group 0 of a
	// multiplexed loopback deployment, with background tenant groups —
	// a second ring and a tree — passing their own barriers over the very
	// same connections throughout the schedule. The verdict must not
	// depend on the cross-traffic: group tags isolate the tenants.
	if s.Target == TargetMux {
		specs := []transport.GroupSpec{
			{ID: 0, Name: "sched"},
			{ID: 1, Name: "bg_ring"},
			{ID: 2, Name: "bg_tree", Topology: transport.GroupTree},
		}
		set, err := transport.NewLoopbackMuxes(s.NProcs, specs, func(c *transport.MuxConfig) {
			if c.Self == 0 {
				// One process exports the shared transport counters; the
				// set's muxes would otherwise collide on the series names.
				c.Registry = reg
			}
		})
		if err != nil {
			v.Reason = "loopback mux: " + err.Error()
			return v
		}
		defer set.Close()
		tr = set.Group(0)
		stopBG, err := startBackgroundGroups(set, specs[1:], s, reg)
		if err != nil {
			v.Reason = "background groups: " + err.Error()
			return v
		}
		defer stopBG()
	}
	// The tree target swaps the ring refinement for the double-tree one;
	// everything else — pacing, fault rates, verdict — is unchanged, which
	// is the conformance statement: the topology must not be observable.
	// The hybrid target additionally groups members pairwise into hosts,
	// which shapes its member tree. Both pass no Transport, so every
	// member runs on one scheduler per lane.
	topology := runtime.TopologyRing
	var hosts [][]int
	switch s.Target {
	case TargetTree:
		topology = runtime.TopologyTree
	case TargetHybrid:
		topology = runtime.TopologyHybrid
		hosts = pairHosts(s.NProcs)
	}
	b, err := runtime.New(runtime.Config{
		Participants: s.NProcs,
		NPhases:      s.NPhases,
		Topology:     topology,
		Hosts:        hosts,
		Transport:    tr,
		Resend:       runtimeResend,
		LossRate:     s.Loss,
		CorruptRate:  s.Corrupt,
		Seed:         s.Seed,
		EventSink:    col.sink,
		Metrics:      reg,
	})
	if err != nil {
		v.Reason = "invalid schedule: " + err.Error()
		return v
	}
	defer b.Stop()

	// Participants loop Await, redoing reset phases, until cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	passes := make([]atomic.Int64, s.NProcs)
	var wg sync.WaitGroup
	for id := 0; id < s.NProcs; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := b.Await(ctx, id)
				switch {
				case err == nil:
					passes[id].Add(1)
				case errors.Is(err, runtime.ErrReset):
					// Phase work lost: redo.
				default:
					return
				}
			}
		}()
	}

	// Scraper: renders the registry while the protocol runs, so every
	// conformance and fuzz execution doubles as a concurrency test of the
	// recording/exposition pair.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sb strings.Builder
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
			sb.Reset()
			reg.WriteText(&sb)
		}
	}()

	clampProc := func(j int) int {
		j %= s.NProcs
		if j < 0 {
			j += s.NProcs
		}
		return j
	}
	// Tally what the schedule actually injects, post-clamp, for the
	// metric-vs-schedule cross-check after the run.
	var inj injected
	down := make([]bool, s.NProcs)
	for _, op := range s.Ops {
		switch op.Kind {
		case OpStep:
			time.Sleep(runtimeStepPacing)
		case OpReset:
			b.Reset(clampProc(op.Proc))
			inj.resets++
		case OpScramble:
			b.Scramble(clampProc(op.Proc), op.Arg)
			inj.scrambles++
		case OpSpurious:
			b.InjectSpurious(clampProc(op.Proc), op.Arg)
			inj.spurious++
		case OpCrash:
			j := clampProc(op.Proc)
			b.Crash(j)
			inj.crashes++
			down[j] = true
		case OpRestart:
			j := clampProc(op.Proc)
			b.Restart(j)
			inj.restarts++
			down[j] = false
		case OpByz:
			b.Byz(clampProc(op.Proc), op.Arg)
			inj.byz++
		}
	}
	// Restart anything the schedule left crashed: the verification tail
	// requires every member to make progress (the engine runner does the
	// same for unbalanced crash gates).
	for j, d := range down {
		if d {
			b.Restart(j)
			inj.restarts++
		}
	}

	// Verification tail: every participant must gain tailBarriers fresh
	// passes now that faults have stopped. For stabilizing schedules the
	// trace must additionally end in a spec-satisfying suffix — and because
	// fault injection is asynchronous, a fault queued by the schedule's last
	// ops may corrupt barriers inside the tail window; stabilization is an
	// "eventually" property, so the suffix is re-checked while the ring
	// keeps running until it holds or the deadline expires.
	base := make([]int64, s.NProcs)
	for id := range base {
		base[id] = passes[id].Load()
	}
	deadline := time.Now().Add(runtimeTailDeadline)
	stabilized := false
	for {
		done := true
		for id := range base {
			if passes[id].Load() < base[id]+tailBarriers {
				done = false
				break
			}
		}
		if done {
			if masking {
				break
			}
			col.mu.Lock()
			_, stabilized = core.SuffixSatisfying(col.trace, s.NProcs, s.NPhases, tailBarriers)
			col.mu.Unlock()
			if stabilized {
				break
			}
		}
		if time.Now().After(deadline) {
			if done {
				v.Reason = "no stabilizing trace suffix"
			} else {
				v.Reason = "no progress after faults stopped"
			}
			if masking {
				v.Violation = func() error { col.mu.Lock(); defer col.mu.Unlock(); return col.checker.Violation() }()
			}
			return v
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	b.Stop()

	// Metric-vs-schedule cross-check: with the protocol goroutines
	// quiescent, the exported accounting must agree exactly with the
	// schedule that was replayed. A mismatch is a verdict failure in its
	// own right — the observability layer lying about faults is as much a
	// conformance bug as a spec violation.
	var observed int64
	for id := range base {
		observed += passes[id].Load()
	}
	if reason := crossCheckMetrics(b.Stats(), reg, s, inj, observed); reason != "" {
		v.Reason = "metrics mismatch: " + reason
		return v
	}

	col.mu.Lock()
	defer col.mu.Unlock()
	v.Barriers = col.checker.SuccessfulBarriers()
	if masking {
		if err := col.checker.Violation(); err != nil {
			v.Reason = "spec violation under detectable faults"
			v.Violation = err
			return v
		}
		v.OK = true
		return v
	}
	// The suffix held while the ring was live; with no further faults the
	// events appended since can only extend it, but re-verify on the final
	// trace for the verdict's Barriers-independent integrity.
	if _, ok := core.SuffixSatisfying(col.trace, s.NProcs, s.NPhases, tailBarriers); !ok {
		v.Reason = "no stabilizing trace suffix"
		return v
	}
	v.Stabilized = true
	v.OK = true
	return v
}

// pairHosts groups n members two per host ({0,1},{2,3},... with a
// trailing singleton when n is odd) — the hybrid target's roster shape.
func pairHosts(n int) [][]int {
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

// startBackgroundGroups brings up one barrier per background tenant group
// over the shared mux connections and keeps every member looping Await
// with mild self-injected corruption — cross-traffic for the scheduled
// group's run. Their metric series carry {group="..."} labels, so the
// scheduled barrier's unlabelled series (which the cross-check reads)
// stay unambiguous. The returned stop function tears the tenants down.
func startBackgroundGroups(set *transport.MuxSet, specs []transport.GroupSpec, s Schedule, reg *obsv.Registry) (func(), error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var stops []func()
	stopAll := func() {
		cancel()
		for _, stop := range stops {
			stop()
		}
		wg.Wait()
	}
	for _, spec := range specs {
		topology := runtime.TopologyRing
		if spec.Topology == transport.GroupTree {
			topology = runtime.TopologyTree
		}
		b, err := runtime.New(runtime.Config{
			Participants: s.NProcs,
			NPhases:      s.NPhases,
			Topology:     topology,
			Transport:    set.Group(spec.ID),
			Resend:       runtimeResend,
			CorruptRate:  0.01,
			Seed:         s.Seed + int64(spec.ID)<<20,
			Metrics:      reg,
			MetricLabel:  `group="` + spec.Name + `"`,
		})
		if err != nil {
			stopAll()
			return nil, err
		}
		stops = append(stops, b.Stop)
		for id := 0; id < s.NProcs; id++ {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := b.Await(ctx, id); err != nil && !errors.Is(err, runtime.ErrReset) {
						return
					}
				}
			}()
		}
	}
	return stopAll, nil
}

// injected tallies what the schedule actually delivered to the barrier's
// injection API, post-clamp, per fault class.
type injected struct {
	resets, scrambles, spurious, crashes, restarts, byz int64
}

// crossCheckMetrics verifies the exported accounting against the replayed
// schedule. Returns "" on agreement, else a description of the first
// mismatch.
//
// The injection counters are exact by construction — every injection call
// tallies synchronously as accepted or dropped — so equality, not
// inequality, is demanded for the total. Per class only an upper bound
// holds from the schedule side (a full control buffer drops the call, and
// a Byzantine injection whose victim was mid-recovery is reclassified as
// dropped). In a byz-ONLY schedule the accepted Byzantine injections must
// reappear in the rejected-frames counters exactly: genuine frames are
// never rejected in steady state, every delivered forgery is rejected
// once, the crafts never confirm a pending sighting, and no register is
// pulled (a pull answers a lost frame, never a forged one). The recovery
// histogram is bounded by the faults that can have armed it, and the
// exported pass counter must cover every pass a participant observed (it
// may exceed it: a pass delivered in the instant the run was cancelled
// is counted but uncollected).
func crossCheckMetrics(st runtime.Stats, reg *obsv.Registry, s Schedule, inj injected, observedPasses int64) string {
	accepted := st.ResetsInjected + st.ScramblesInjected + st.CrashesInjected + st.RestartsInjected + st.ByzInjected
	calls := inj.resets + inj.scrambles + inj.crashes + inj.restarts + inj.byz
	if got := accepted + st.DroppedInjections; got != calls {
		return fmt.Sprintf("accepted(%d)+dropped(%d) injections = %d, schedule injected %d",
			accepted, st.DroppedInjections, got, calls)
	}
	if st.ResetsInjected > inj.resets {
		return fmt.Sprintf("ResetsInjected = %d, schedule held only %d resets", st.ResetsInjected, inj.resets)
	}
	if st.ScramblesInjected > inj.scrambles {
		return fmt.Sprintf("ScramblesInjected = %d, schedule held only %d scrambles", st.ScramblesInjected, inj.scrambles)
	}
	if st.CrashesInjected > inj.crashes {
		return fmt.Sprintf("CrashesInjected = %d, schedule held only %d crashes", st.CrashesInjected, inj.crashes)
	}
	if st.RestartsInjected > inj.restarts {
		return fmt.Sprintf("RestartsInjected = %d, schedule held only %d restarts", st.RestartsInjected, inj.restarts)
	}
	if st.ByzInjected > inj.byz {
		return fmt.Sprintf("ByzInjected = %d, schedule held only %d forgeries", st.ByzInjected, inj.byz)
	}
	if st.Spurious != inj.spurious {
		return fmt.Sprintf("Spurious = %d, schedule injected %d", st.Spurious, inj.spurious)
	}
	rejected := st.RejectedSeq + st.RejectedPhase + st.RejectedTop + st.RejectedSender
	byzOnly := inj.byz > 0 && inj.resets+inj.scrambles+inj.spurious+inj.crashes+inj.restarts == 0 &&
		s.Loss == 0 && s.Corrupt == 0
	if byzOnly && rejected != st.ByzInjected {
		return fmt.Sprintf("byz-only schedule: %d frames rejected for %d accepted forgeries (seq=%d phase=%d top=%d sender=%d)",
			rejected, st.ByzInjected, st.RejectedSeq, st.RejectedPhase, st.RejectedTop, st.RejectedSender)
	}
	// A forgery is rejected where it lands; it costs no genuine frame, so
	// it must never send a scheduler re-reading its co-hosted registers.
	if byzOnly && st.Pulls != 0 {
		return fmt.Sprintf("byz-only schedule: %d registers pulled with no frame lost", st.Pulls)
	}
	if st.Passes < observedPasses {
		return fmt.Sprintf("Passes = %d < %d passes observed by participants", st.Passes, observedPasses)
	}
	if st.Drops > st.Sends+st.Spurious {
		return fmt.Sprintf("Drops = %d exceeds Sends+Spurious = %d", st.Drops, st.Sends+st.Spurious)
	}
	// The exported series must agree with the Stats snapshot, and the
	// recovery histogram can only have been armed by accepted state faults
	// (a restart revives into the detectably-reset state, so it arms the
	// histogram like a reset).
	if got := scrapeValue(reg, "barrier_passes_total"); got != st.Passes {
		return fmt.Sprintf("exported barrier_passes_total = %d, Stats.Passes = %d", got, st.Passes)
	}
	if got := scrapeValue(reg, "barrier_pulls_total"); got != st.Pulls {
		return fmt.Sprintf("exported barrier_pulls_total = %d, Stats.Pulls = %d", got, st.Pulls)
	}
	var scrapedRej int64
	for _, rc := range []struct {
		reason string
		want   int64
	}{
		{"seqwindow", st.RejectedSeq},
		{"phasewindow", st.RejectedPhase},
		{"topwindow", st.RejectedTop},
		{"sender", st.RejectedSender},
	} {
		got := scrapeValue(reg, `barrier_rejected_frames_total{reason="`+rc.reason+`"}`)
		if got != rc.want {
			return fmt.Sprintf("exported barrier_rejected_frames_total{reason=%q} = %d, Stats = %d", rc.reason, got, rc.want)
		}
		scrapedRej += got
	}
	if scrapedRej != rejected {
		return fmt.Sprintf("exported rejected-frame series sum to %d, Stats sum to %d", scrapedRej, rejected)
	}
	if got := scrapeValue(reg, "barrier_recovery_seconds_count"); got > st.ResetsInjected+st.ScramblesInjected+st.RestartsInjected {
		return fmt.Sprintf("recovery histogram holds %d observations for %d accepted state faults",
			got, st.ResetsInjected+st.ScramblesInjected+st.RestartsInjected)
	}
	return ""
}

// scrapeValue renders the registry and returns the integer value of the
// named sample line (-1 if absent — which no cross-checked series is).
func scrapeValue(reg *obsv.Registry, name string) int64 {
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		return -1
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}
