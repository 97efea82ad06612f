package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// collector is a thread-safe event recorder feeding a SpecChecker.
type collector struct {
	mu      sync.Mutex
	checker *core.SpecChecker
}

func newCollector(n, nPhases int) *collector {
	return &collector{checker: core.NewSpecChecker(n, nPhases)}
}

func (c *collector) sink(e core.Event) {
	c.mu.Lock()
	c.checker.Observe(e)
	c.mu.Unlock()
}

func (c *collector) violation() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checker.Violation()
}

func (c *collector) successes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checker.SuccessfulBarriers()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Participants: 1}); err == nil {
		t.Error("single participant should be rejected")
	}
	if _, err := New(Config{Participants: 4, NPhases: 1}); err == nil {
		t.Error("single phase should be rejected")
	}
	if _, err := New(Config{Participants: 4, LossRate: 1.5}); err == nil {
		t.Error("loss rate ≥ 1 should be rejected")
	}
	b, err := New(Config{Participants: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if b.N() != 2 || b.NumPhases() != 8 {
		t.Error("defaults wrong")
	}
}

// runWorkers drives nWorkers goroutines through `rounds` barrier passes,
// redoing phases on ErrReset, and returns the per-worker pass counts.
func runWorkers(t *testing.T, b *Barrier, rounds int, work func(id, round int)) []int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	passes := make([]int, b.N())
	var wg sync.WaitGroup
	errs := make(chan error, b.N())
	for id := 0; id < b.N(); id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; {
				if work != nil {
					work(id, round)
				}
				_, err := b.Await(ctx, id)
				switch {
				case err == nil:
					passes[id]++
					round++
				case errors.Is(err, ErrReset):
					// Phase work lost: redo the same round.
				default:
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("worker failed: %v", err)
	default:
	}
	return passes
}

func TestStopUnblocksAwaits(t *testing.T) {
	b, err := New(Config{Participants: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.Await(context.Background(), 0)
		done <- err
	}()
	time.Sleep(time.Millisecond)
	b.Stop()
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Fatalf("Await returned %v, want ErrStopped", err)
	}
}

func TestContextCancellation(t *testing.T) {
	b, err := New(Config{Participants: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Await(ctx, 0)
		done <- err
	}()
	time.Sleep(time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Await returned %v, want context.Canceled", err)
	}
}

func TestAwaitRange(t *testing.T) {
	b, err := New(Config{Participants: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if _, err := b.Await(context.Background(), -1); err == nil {
		t.Error("negative id should be rejected")
	}
	if _, err := b.Await(context.Background(), 2); err == nil {
		t.Error("out-of-range id should be rejected")
	}
}

// Stress: combined message loss and resets under the race detector.
func TestStressLossAndResets(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n = 8
	col := newCollector(n, 8)
	b, err := New(Config{
		Participants: n,
		LossRate:     0.1,
		Resend:       100 * time.Microsecond,
		EventSink:    col.sink,
		Seed:         12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	stop := make(chan struct{})
	var injector sync.WaitGroup
	injector.Add(1)
	go func() {
		defer injector.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				b.Reset(i % n)
				i++
			}
		}
	}()

	passes := runWorkers(t, b, 40, nil)
	close(stop)
	injector.Wait()
	for id, c := range passes {
		if c != 40 {
			t.Errorf("worker %d passed %d barriers, want 40", id, c)
		}
	}
	if err := col.violation(); err != nil {
		t.Fatalf("safety violated under stress: %v", err)
	}
}

func TestCorruptRateValidation(t *testing.T) {
	if _, err := New(Config{Participants: 2, CorruptRate: 1.5}); err == nil {
		t.Error("corrupt rate ≥ 1 should be rejected")
	}
}

// Stats counters move in the expected directions.
func TestStats(t *testing.T) {
	b, err := New(Config{Participants: 2, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	runWorkers(t, b, 5, nil)
	st := b.Stats()
	if st.Passes != 10 {
		t.Errorf("passes = %d, want 10 (2 workers × 5 rounds)", st.Passes)
	}
	if st.Sends == 0 {
		t.Error("no sends recorded")
	}
	if st.Drops != 0 || st.Spurious != 0 {
		t.Errorf("unexpected drops/spurious: %+v", st)
	}
	b.Reset(0)
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Worker 0 sees the reset on its next Await; worker 1 keeps looping in
	// the background so the ring can drain.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			if _, err := b.Await(ctx, 1); err != nil && !errors.Is(err, ErrReset) {
				return
			}
		}
	}()
	if _, err := b.Await(ctx, 0); !errors.Is(err, ErrReset) {
		t.Fatalf("expected ErrReset, got %v", err)
	}
	if b.Stats().Resets == 0 {
		t.Error("reset not recorded in stats")
	}
	cancel()
	<-done
}

// --- The ring/tree twins. The MB ring and the double tree make the same
// promises, so each behaviour below is one body, and each of its entries
// is one topology row: the twin's own Config (n, topology, seed) and its
// own victims, seeds and counts. ringCfg and treeCfg build the rows. ---

func ringCfg(n int, seed int64) Config { return Config{Participants: n, Seed: seed} }

func TestFaultFreeBarriers(t *testing.T) { faultFreeBarriers(t, 25, ringCfg(4, 1)) }
func TestTreeFaultFreeBarriers(t *testing.T) {
	faultFreeBarriers(t, 25, treeCfg(2, 60), treeCfg(3, 60), treeCfg(7, 60), treeCfg(12, 60))
}
func TestTreeWiderArity(t *testing.T) {
	faultFreeBarriers(t, 20, Config{Participants: 9, Topology: TopologyTree, TreeArity: 4, Seed: 61})
}

func TestBarrierSemantics(t *testing.T)     { barrierSemantics(t, ringCfg(6, 2)) }
func TestTreeBarrierSemantics(t *testing.T) { barrierSemantics(t, treeCfg(7, 62)) }

func TestPhaseSequence(t *testing.T)     { phaseSequence(t, ringCfg(3, 11)) }
func TestTreePhaseSequence(t *testing.T) { phaseSequence(t, treeCfg(5, 63)) }

func TestMessageLossMasked(t *testing.T)     { messageLossMasked(t, ringCfg(5, 3)) }
func TestTreeMessageLossMasked(t *testing.T) { messageLossMasked(t, treeCfg(7, 64)) }

func TestDetectedCorruptionMasked(t *testing.T)     { detectedCorruptionMasked(t, ringCfg(4, 30)) }
func TestTreeDetectedCorruptionMasked(t *testing.T) { detectedCorruptionMasked(t, treeCfg(7, 65)) }

func TestProcessResetMasked(t *testing.T)     { processResetMasked(t, ringCfg(4, 4)) }
func TestTreeProcessResetMasked(t *testing.T) { processResetMasked(t, treeCfg(7, 66)) }

func TestResetDeliversErrReset(t *testing.T) { resetDeliversErrReset(t, ringCfg(3, 5), 0, 0) }
func TestTreeResetDeliversErrReset(t *testing.T) {
	resetDeliversErrReset(t, treeCfg(3, 67), 2*time.Millisecond, 0, 2)
}

func TestScrambleStabilizes(t *testing.T)     { scrambleStabilizes(t, ringCfg(4, 6), 100) }
func TestTreeScrambleStabilizes(t *testing.T) { scrambleStabilizes(t, treeCfg(7, 68), 200) }

func TestSpuriousMessagesAbsorbed(t *testing.T) {
	spuriousMessagesAbsorbed(t, ringCfg(4, 31), 500, 1000, false)
}
func TestTreeSpuriousMessagesAbsorbed(t *testing.T) {
	spuriousMessagesAbsorbed(t, treeCfg(7, 69), 700, 1200, true)
}

func TestHaltIsFailSafe(t *testing.T)     { haltIsFailSafe(t, ringCfg(3, 7)) }
func TestTreeHaltIsFailSafe(t *testing.T) { haltIsFailSafe(t, treeCfg(3, 70)) }

func TestChaosSoak(t *testing.T)     { chaosSoak(t, ringCfg(6, 40)) }
func TestTreeChaosSoak(t *testing.T) { chaosSoak(t, treeCfg(7, 71)) }

func TestSixteenParticipants(t *testing.T)     { sixteenParticipants(t, ringCfg(16, 50)) }
func TestTreeSixteenParticipants(t *testing.T) { sixteenParticipants(t, treeCfg(16, 73)) }

// newBarrier starts a barrier for a twin body, stopped when the test ends.
func newBarrier(t *testing.T, cfg Config) *Barrier {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
	return b
}

// faultFreeBarriers runs every worker through rounds passes on each
// Config, and the specification checker sees every one of them.
func faultFreeBarriers(t *testing.T, rounds int, cfgs ...Config) {
	for _, cfg := range cfgs {
		n := cfg.Participants
		col := newCollector(n, 8)
		cfg.EventSink = col.sink
		b := newBarrier(t, cfg)
		passes := runWorkers(t, b, rounds, nil)
		b.Stop()
		for id, c := range passes {
			if c != rounds {
				t.Errorf("n=%d: worker %d passed %d barriers, want %d", n, id, c, rounds)
			}
		}
		if err := col.violation(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if col.successes() < rounds {
			t.Errorf("n=%d: checker saw %d successful barriers, want ≥ %d", n, col.successes(), rounds)
		}
	}
}

// The barrier actually synchronizes: no worker may start round r+1 before
// every worker finished round r.
func barrierSemantics(t *testing.T, cfg Config) {
	const rounds = 20
	b := newBarrier(t, cfg)
	var mu sync.Mutex
	inRound := make([]int, cfg.Participants) // the round each worker is currently in
	runWorkers(t, b, rounds, func(id, round int) {
		mu.Lock()
		inRound[id] = round
		for _, r := range inRound {
			if r < round-1 || r > round+1 {
				mu.Unlock()
				t.Errorf("worker %d in round %d while another is in round %d", id, round, r)
				mu.Lock()
			}
		}
		mu.Unlock()
	})
}

// Phases advance modulo NumPhases in sequence.
func phaseSequence(t *testing.T, cfg Config) {
	const nPhases = 4
	n := cfg.Participants
	cfg.NPhases = nPhases
	b := newBarrier(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	phases := make([][]int, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				ph, err := b.Await(ctx, id)
				if err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
				phases[id] = append(phases[id], ph)
			}
		}()
	}
	wg.Wait()
	for id := 0; id < n; id++ {
		for k, ph := range phases[id] {
			if want := (k + 1) % nPhases; ph != want {
				t.Fatalf("worker %d pass %d released phase %d, want %d (%v)",
					id, k, ph, want, phases[id])
			}
		}
	}
}

// Message loss is a detectable communication fault: with a 20% drop rate
// on every protocol message, every barrier still executes correctly
// (masking), thanks to the retransmission of current state.
func messageLossMasked(t *testing.T, cfg Config) {
	col := newCollector(cfg.Participants, 8)
	cfg.LossRate, cfg.Resend, cfg.EventSink = 0.2, 100*time.Microsecond, col.sink
	b := newBarrier(t, cfg)
	passes := runWorkers(t, b, 15, nil)
	for id, c := range passes {
		if c != 15 {
			t.Errorf("worker %d passed %d barriers under message loss, want 15", id, c)
		}
	}
	if err := col.violation(); err != nil {
		t.Fatal(err)
	}
}

// Detected message corruption is equivalent to loss: with 15% of messages
// garbled in flight, the integrity check drops them, retransmission masks
// the damage, and every barrier executes correctly.
func detectedCorruptionMasked(t *testing.T, cfg Config) {
	n := cfg.Participants
	col := newCollector(n, 8)
	cfg.CorruptRate, cfg.Resend, cfg.EventSink = 0.15, 100*time.Microsecond, col.sink
	b := newBarrier(t, cfg)
	passes := runWorkers(t, b, 15, nil)
	for id, c := range passes {
		if c != 15 {
			t.Errorf("worker %d passed %d barriers under corruption, want 15", id, c)
		}
	}
	if err := col.violation(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Drops == 0 {
		t.Error("no corrupted messages were dropped — corruption injection inert?")
	}
	if st.Passes < int64(n*15) {
		t.Errorf("stats recorded %d passes, want ≥ %d", st.Passes, n*15)
	}
}

// Process resets (fail-stop + restart) are masked at every position — on
// the tree the victims cycle through root, internal nodes and leaves:
// workers redo lost phases and the specification holds throughout.
func processResetMasked(t *testing.T, cfg Config) {
	n := cfg.Participants
	col := newCollector(n, 8)
	cfg.EventSink = col.sink
	b := newBarrier(t, cfg)
	stop := injectEvery(2*time.Millisecond, func(i int) { b.Reset(i % n) })
	passes := runWorkers(t, b, 30, nil)
	stop()
	for id, c := range passes {
		if c != 30 {
			t.Errorf("worker %d passed %d barriers under resets, want 30", id, c)
		}
	}
	if err := col.violation(); err != nil {
		t.Fatalf("safety violated under process resets: %v", err)
	}
}

// A reset participant is told exactly what the paper prescribes: the
// current phase must be re-executed, and the redo passes. Each victim is
// reset settle after the others started looping: on the tree that lets the
// first begin wave roll so the victim is mid-phase (execute) — a reset in
// the pre-begin ready window voids no work, by design.
func resetDeliversErrReset(t *testing.T, cfg Config, settle time.Duration, victims ...int) {
	n := cfg.Participants
	for _, victim := range victims {
		b := newBarrier(t, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		bg, bgCancel := context.WithCancel(ctx)
		for id := 0; id < n; id++ {
			if id == victim {
				continue
			}
			id := id
			go func() {
				for {
					if _, err := b.Await(bg, id); err != nil && !errors.Is(err, ErrReset) {
						return
					}
				}
			}()
		}
		time.Sleep(settle)
		b.Reset(victim) // while the victim is "working" (not awaiting)
		time.Sleep(2 * time.Millisecond)
		if _, err := b.Await(ctx, victim); !errors.Is(err, ErrReset) {
			t.Fatalf("victim %d: Await after reset returned %v, want ErrReset", victim, err)
		}
		if _, err := b.Await(ctx, victim); err != nil {
			t.Fatalf("victim %d: redo Await returned %v", victim, err)
		}
		bgCancel()
		cancel()
		b.Stop()
	}
}

// Undetectable faults (scrambled state) stabilize: after every member is
// scrambled (member id with seed seeds+id), workers keep looping and
// barriers flow correctly again.
func scrambleStabilizes(t *testing.T, cfg Config, seeds int64) {
	n := cfg.Participants
	b := newBarrier(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	passed := make([]chan struct{}, n)
	for i := range passed {
		passed[i] = make(chan struct{}, 1024)
	}
	bg, bgCancel := context.WithCancel(ctx)
	defer bgCancel()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := b.Await(bg, id)
				if err == nil {
					select {
					case passed[id] <- struct{}{}:
					default:
					}
				} else if !errors.Is(err, ErrReset) {
					return
				}
			}
		}()
	}

	// Let it run, scramble everyone, then require 5 more passes per worker.
	time.Sleep(5 * time.Millisecond)
	for id := 0; id < n; id++ {
		b.Scramble(id, seeds+int64(id))
	}
	deadline := time.After(20 * time.Second)
	for id := 0; id < n; id++ {
		for k := 0; k < 5; k++ {
			select {
			case <-passed[id]:
			case <-deadline:
				StuckFatalf(t, []*Barrier{b}, "worker %d made no progress after scramble", id)
			}
		}
	}
	bgCancel()
	wg.Wait()
}

// Spurious messages ("unexpected message reception") are absorbed on every
// edge: the receiver's copy may be perturbed, but the ongoing
// retransmissions override it and barriers keep flowing. A deterministic
// burst goes in up front (seeds burst+i, so the counter moves even on a
// fast machine), and a sprayer runs during the run (seeds spray+i). A
// forgery is undetectable, so on the tree it may deliver a bogus extra
// pass: there (stabilizing) every worker keeps participating until all
// reached the target; on the ring each worker makes exactly 25 passes.
func spuriousMessagesAbsorbed(t *testing.T, cfg Config, burst, spray int64, stabilizing bool) {
	const want = 25
	n := cfg.Participants
	cfg.Resend = 100 * time.Microsecond
	b := newBarrier(t, cfg)
	for i := 0; i < 2*n; i++ {
		b.InjectSpurious(i%n, burst+int64(i))
	}
	stop := injectEvery(500*time.Microsecond, func(i int) { b.InjectSpurious(i%n, spray+int64(i)) })
	var passes []int
	if stabilizing {
		passes = runUntil(t, b, 30*time.Second, want, nil)
	} else {
		passes = runWorkers(t, b, want, nil)
	}
	stop()
	for id, c := range passes {
		if c < want {
			t.Errorf("worker %d passed %d barriers under spurious messages, want ≥ %d", id, c, want)
		}
	}
	if b.Stats().Spurious == 0 {
		t.Error("no spurious messages recorded")
	}
}

// Fail-safe mode (Table 1): after Halt, no completion is ever reported.
func haltIsFailSafe(t *testing.T, cfg Config) {
	b := newBarrier(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// One worker reaches the barrier, then the barrier halts.
	done := make(chan error, 1)
	go func() {
		_, err := b.Await(ctx, 0)
		done <- err
	}()
	time.Sleep(time.Millisecond)
	b.Halt()
	if !b.Halted() {
		t.Error("Halted() should report true after Halt")
	}
	if err := <-done; !errors.Is(err, ErrHalted) {
		t.Fatalf("outstanding Await returned %v, want ErrHalted", err)
	}
	if _, err := b.Await(ctx, 1); !errors.Is(err, ErrHalted) {
		t.Fatalf("subsequent Await returned %v, want ErrHalted", err)
	}
}

// Chaos soak: every fault class at once — message loss, detected
// corruption, spurious messages, process resets, and occasional scrambles.
// Scrambles void the specification transiently, so the assertion is pure
// liveness: every worker keeps making progress to the end.
func chaosSoak(t *testing.T, cfg Config) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	n := cfg.Participants
	cfg.LossRate, cfg.CorruptRate, cfg.Resend = 0.05, 0.05, 100*time.Microsecond
	b := newBarrier(t, cfg)
	var injections atomic.Int64
	stop := injectEvery(2*time.Millisecond, func(i int) {
		injections.Add(1)
		switch i % 7 {
		case 0, 1, 2:
			b.Reset(i % n)
		case 3, 4:
			b.InjectSpurious((i+1)%n, int64(i))
		case 5:
			b.Scramble((i+2)%n, int64(i))
		case 6:
			// quiet tick: let the barrier stabilize
		}
	})

	// The target includes two full injector cycles: 40 lossy passes alone
	// take less than one injector period now that loss between co-hosted
	// members is masked without waiting for the sweeper. The workers also
	// keep going until every fault path asserted below has fired: whether
	// a Reset voids phase work (ErrReset) depends on where in the phase it
	// lands, so a fixed number of injections can miss it.
	const wantPasses, wantInjections = 40, 14
	passes := runUntil(t, b, 60*time.Second, wantPasses, func() bool {
		st := b.Stats()
		return injections.Load() >= wantInjections && st.Drops > 0 && st.Spurious > 0 && st.Resets > 0
	})
	stop()
	for id, c := range passes {
		if c < wantPasses {
			t.Errorf("worker %d only passed %d/%d barriers under chaos", id, c, wantPasses)
		}
	}
	st := b.Stats()
	t.Logf("chaos stats: %+v", st)
	if st.Drops == 0 || st.Spurious == 0 || st.Resets == 0 {
		t.Errorf("chaos did not exercise all fault paths: %+v", st)
	}
}

// The protocol scales past toy sizes: 16 participants with resets — the
// scale the benchmark compares the topologies at.
func sixteenParticipants(t *testing.T, cfg Config) {
	if testing.Short() {
		t.Skip("scale test")
	}
	n := cfg.Participants
	col := newCollector(n, 8)
	cfg.EventSink = col.sink
	b := newBarrier(t, cfg)
	stop := injectEvery(5*time.Millisecond, func(i int) { b.Reset(i % n) })
	passes := runWorkers(t, b, 15, nil)
	stop()
	for id, c := range passes {
		if c != 15 {
			t.Errorf("worker %d passed %d barriers, want 15", id, c)
		}
	}
	if err := col.violation(); err != nil {
		t.Fatalf("safety violated at %d participants: %v", n, err)
	}
}

// injectEvery calls inject(0), inject(1), … once per period on a goroutine
// of its own until the returned stop is called; stop returns once it has
// exited.
func injectEvery(period time.Duration, inject func(i int)) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			case <-time.After(period):
				inject(i)
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// runUntil keeps every worker awaiting, redoing phases on ErrReset, until
// each has passed want barriers and more (if non-nil) holds, within
// timeout, and returns the per-worker pass counts. It is runWorkers for
// runs whose faults may skew the counts (an undetectable fault can deliver
// a bogus pass): a worker that left at its own count could starve the rest.
func runUntil(t *testing.T, b *Barrier, timeout time.Duration, want int, more func() bool) []int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	passes := make([]int, b.N())
	var mu sync.Mutex
	allDone := func() bool {
		for _, c := range passes {
			if c < want {
				return false
			}
		}
		return more == nil || more()
	}
	var wg sync.WaitGroup
	for id := range passes {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := b.Await(ctx, id)
				switch {
				case err == nil:
					mu.Lock()
					passes[id]++
					done := allDone()
					mu.Unlock()
					if done {
						cancel()
						return
					}
				case errors.Is(err, ErrReset):
					// redo
				case errors.Is(err, context.Canceled):
					return
				default:
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return passes
}
