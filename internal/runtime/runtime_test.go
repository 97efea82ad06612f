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

func TestFaultFreeBarriers(t *testing.T) {
	col := newCollector(4, 8)
	b, err := New(Config{Participants: 4, EventSink: col.sink, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	passes := runWorkers(t, b, 25, nil)
	for id, c := range passes {
		if c != 25 {
			t.Errorf("worker %d passed %d barriers, want 25", id, c)
		}
	}
	if err := col.violation(); err != nil {
		t.Fatal(err)
	}
	if col.successes() < 25 {
		t.Errorf("checker saw %d successful barriers, want ≥ 25", col.successes())
	}
}

// The barrier actually synchronizes: no worker may start round r+1 before
// every worker finished round r.
func TestBarrierSemantics(t *testing.T) {
	const n, rounds = 6, 20
	b, err := New(Config{Participants: n, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	var mu sync.Mutex
	inRound := make([]int, n) // the round each worker is currently in
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

// Message loss is a detectable communication fault: with a 20% drop rate
// on every protocol message, every barrier still executes correctly
// (masking), thanks to the retransmission of current state.
func TestMessageLossMasked(t *testing.T) {
	col := newCollector(5, 8)
	b, err := New(Config{
		Participants: 5,
		LossRate:     0.2,
		Resend:       100 * time.Microsecond,
		EventSink:    col.sink,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
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

// Process resets (fail-stop + restart) are masked: workers redo lost phases
// and the barrier specification holds throughout.
func TestProcessResetMasked(t *testing.T) {
	const n = 4
	col := newCollector(n, 8)
	b, err := New(Config{Participants: n, EventSink: col.sink, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	stop := make(chan struct{})
	var injector sync.WaitGroup
	injector.Add(1)
	go func() {
		defer injector.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				b.Reset(i % n)
			}
		}
	}()

	passes := runWorkers(t, b, 30, nil)
	close(stop)
	injector.Wait()

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
// current phase must be re-executed.
func TestResetDeliversErrReset(t *testing.T) {
	const n = 3
	b, err := New(Config{Participants: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Workers 1..n-1 loop forever in the background.
	bg, bgCancel := context.WithCancel(ctx)
	defer bgCancel()
	for id := 1; id < n; id++ {
		id := id
		go func() {
			for {
				if _, err := b.Await(bg, id); err != nil && !errors.Is(err, ErrReset) {
					return
				}
			}
		}()
	}

	// Reset worker 0's process while it is "working" (not awaiting).
	b.Reset(0)
	time.Sleep(2 * time.Millisecond)
	if _, err := b.Await(ctx, 0); !errors.Is(err, ErrReset) {
		t.Fatalf("Await after reset returned %v, want ErrReset", err)
	}
	// The redo then passes normally.
	if _, err := b.Await(ctx, 0); err != nil {
		t.Fatalf("redo Await returned %v", err)
	}
}

// Undetectable faults (scrambled state) stabilize: after the scramble,
// workers keep looping and eventually barriers flow correctly again.
func TestScrambleStabilizes(t *testing.T) {
	const n = 4
	b, err := New(Config{Participants: n, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var passed [4]chan struct{}
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
		b.Scramble(id, int64(100+id))
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

// Fail-safe mode (Table 1): after Halt, no completion is ever reported.
func TestHaltIsFailSafe(t *testing.T) {
	const n = 3
	b, err := New(Config{Participants: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

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

// Phases advance modulo NumPhases in sequence.
func TestPhaseSequence(t *testing.T) {
	const n, nPhases = 3, 4
	b, err := New(Config{Participants: n, NPhases: nPhases, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
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

// Detected message corruption is equivalent to loss: with 15% of messages
// garbled in flight, the integrity check drops them, retransmission masks
// the damage, and every barrier executes correctly.
func TestDetectedCorruptionMasked(t *testing.T) {
	col := newCollector(4, 8)
	b, err := New(Config{
		Participants: 4,
		CorruptRate:  0.15,
		Resend:       100 * time.Microsecond,
		EventSink:    col.sink,
		Seed:         30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
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
	if st.Passes < int64(4*15) {
		t.Errorf("stats recorded %d passes, want ≥ 60", st.Passes)
	}
}

func TestCorruptRateValidation(t *testing.T) {
	if _, err := New(Config{Participants: 2, CorruptRate: 1.5}); err == nil {
		t.Error("corrupt rate ≥ 1 should be rejected")
	}
}

// Spurious messages ("unexpected message reception") are absorbed: the
// receiver's copy cell may be perturbed, but the predecessor's ongoing
// retransmissions override it and barriers keep flowing.
func TestSpuriousMessagesAbsorbed(t *testing.T) {
	const n = 4
	b, err := New(Config{Participants: n, Resend: 100 * time.Microsecond, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	// A deterministic burst up front (so the counter is guaranteed to move
	// even on a fast machine), plus a background sprayer during the run.
	for i := 0; i < 2*n; i++ {
		b.InjectSpurious(i%n, int64(500+i))
	}
	stop := make(chan struct{})
	var injector sync.WaitGroup
	injector.Add(1)
	go func() {
		defer injector.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Microsecond):
				b.InjectSpurious(i%n, int64(1000+i))
			}
		}
	}()

	passes := runWorkers(t, b, 25, nil)
	close(stop)
	injector.Wait()
	for id, c := range passes {
		if c != 25 {
			t.Errorf("worker %d passed %d barriers under spurious messages, want 25", id, c)
		}
	}
	if b.Stats().Spurious == 0 {
		t.Error("no spurious messages recorded")
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

// Chaos soak: every fault class at once — message loss, detected
// corruption, spurious messages, process resets, and occasional scrambles.
// Scrambles void the specification transiently, so the assertion is pure
// liveness: every worker keeps making progress to the end.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	const n = 6
	b, err := New(Config{
		Participants: n,
		LossRate:     0.05,
		CorruptRate:  0.05,
		Resend:       100 * time.Microsecond,
		Seed:         40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var injector sync.WaitGroup
	var injections atomic.Int64
	injector.Add(1)
	go func() {
		defer injector.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			injections.Add(1)
			switch i % 7 {
			case 0, 1, 2:
				b.Reset(i % n)
			case 3, 4:
				b.InjectSpurious((i+1)%n, int64(i))
			case 5:
				b.Scramble((i+2)%n, int64(i))
			case 6:
				// quiet tick: let the ring stabilize
			}
		}
	}()

	// Workers keep participating until everyone reached the target: under
	// scrambles, pass counts may transiently skew, and a worker that left
	// at its personal target could stall the rest. The target includes two
	// full injector cycles: 40 lossy passes alone take less than one
	// injector period now that loss between co-hosted members is masked
	// without waiting for the sweeper. They also keep going until every
	// fault path asserted below has fired: whether a Reset voids phase work
	// (ErrReset) depends on where in the phase it lands, so a fixed number
	// of injections can miss it.
	const wantPasses, wantInjections = 40, 14
	runCtx, runCancel := context.WithCancel(ctx)
	defer runCancel()
	var passes [n]int64
	allDone := func() bool {
		if injections.Load() < wantInjections {
			return false
		}
		if st := b.Stats(); st.Drops == 0 || st.Spurious == 0 || st.Resets == 0 {
			return false
		}
		for i := range passes {
			if atomic.LoadInt64(&passes[i]) < wantPasses {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := b.Await(runCtx, id)
				switch {
				case err == nil:
					atomic.AddInt64(&passes[id], 1)
					if allDone() {
						runCancel()
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
	close(stop)
	injector.Wait()
	for id := range passes {
		if c := atomic.LoadInt64(&passes[id]); c < wantPasses {
			t.Errorf("worker %d only passed %d/%d barriers under chaos", id, c, wantPasses)
		}
	}
	st := b.Stats()
	t.Logf("chaos stats: %+v", st)
	if st.Drops == 0 || st.Spurious == 0 || st.Resets == 0 {
		t.Errorf("chaos did not exercise all fault paths: %+v", st)
	}
}

// The ring protocol scales past toy sizes: 16 participants with faults.
func TestSixteenParticipants(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const n = 16
	col := newCollector(n, 8)
	b, err := New(Config{Participants: n, EventSink: col.sink, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	stop := make(chan struct{})
	var injector sync.WaitGroup
	injector.Add(1)
	go func() {
		defer injector.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				b.Reset(i % n)
			}
		}
	}()

	passes := runWorkers(t, b, 15, nil)
	close(stop)
	injector.Wait()
	for id, c := range passes {
		if c != 15 {
			t.Errorf("worker %d passed %d barriers, want 15", id, c)
		}
	}
	if err := col.violation(); err != nil {
		t.Fatalf("safety violated at 16 participants: %v", err)
	}
}
