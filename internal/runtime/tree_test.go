package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// treeCfg is the base TopologyTree configuration used by the tests.
func treeCfg(n int, seed int64) Config {
	return Config{Participants: n, Topology: TopologyTree, Seed: seed}
}

func TestTreeValidation(t *testing.T) {
	if _, err := New(Config{Participants: 4, Topology: TopologyTree, TreeArity: 1}); err == nil {
		t.Error("arity 1 should be rejected")
	}
	if _, err := New(Config{Participants: 4, Topology: TopologyTree, Transport: NewChanTransport(4)}); err == nil {
		t.Error("a ring transport should be rejected for TopologyTree")
	}
	if _, err := New(Config{Participants: 2, Topology: TopologyRing, Transport: NewChanTreeTransport([]int{-1, 0})}); err == nil {
		t.Error("a tree transport should be rejected for TopologyRing")
	}
}

func TestTreeFaultFreeBarriers(t *testing.T) {
	for _, n := range []int{2, 3, 7, 12} {
		col := newCollector(n, 8)
		cfg := treeCfg(n, 60)
		cfg.EventSink = col.sink
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		passes := runWorkers(t, b, 25, nil)
		b.Stop()
		for id, c := range passes {
			if c != 25 {
				t.Errorf("n=%d: worker %d passed %d barriers, want 25", n, id, c)
			}
		}
		if err := col.violation(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if col.successes() < 25 {
			t.Errorf("n=%d: checker saw %d successful barriers, want ≥ 25", n, col.successes())
		}
	}
}

func TestTreeWiderArity(t *testing.T) {
	col := newCollector(9, 8)
	cfg := treeCfg(9, 61)
	cfg.TreeArity = 4
	cfg.EventSink = col.sink
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	passes := runWorkers(t, b, 20, nil)
	for id, c := range passes {
		if c != 20 {
			t.Errorf("worker %d passed %d barriers, want 20", id, c)
		}
	}
	if err := col.violation(); err != nil {
		t.Fatal(err)
	}
}

// The tree barrier actually synchronizes: no worker may start round r+1
// before every worker finished round r.
func TestTreeBarrierSemantics(t *testing.T) {
	const n, rounds = 7, 20
	b, err := New(treeCfg(n, 62))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	var mu sync.Mutex
	inRound := make([]int, n)
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

// Phases advance modulo NumPhases in sequence, same as on the ring.
func TestTreePhaseSequence(t *testing.T) {
	const n, nPhases = 5, 4
	cfg := treeCfg(n, 63)
	cfg.NPhases = nPhases
	b, err := New(cfg)
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

// Message loss on tree edges is masked by the per-edge retransmission.
func TestTreeMessageLossMasked(t *testing.T) {
	const n = 7
	col := newCollector(n, 8)
	cfg := treeCfg(n, 64)
	cfg.LossRate = 0.2
	cfg.Resend = 100 * time.Microsecond
	cfg.EventSink = col.sink
	b, err := New(cfg)
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

// Detected corruption is equivalent to loss on the tree too.
func TestTreeDetectedCorruptionMasked(t *testing.T) {
	const n = 7
	col := newCollector(n, 8)
	cfg := treeCfg(n, 65)
	cfg.CorruptRate = 0.15
	cfg.Resend = 100 * time.Microsecond
	cfg.EventSink = col.sink
	b, err := New(cfg)
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
	if b.Stats().Drops == 0 {
		t.Error("no corrupted messages were dropped — corruption injection inert?")
	}
}

// Process resets are masked at every tree position: root, internal, leaf.
func TestTreeProcessResetMasked(t *testing.T) {
	const n = 7
	col := newCollector(n, 8)
	cfg := treeCfg(n, 66)
	cfg.EventSink = col.sink
	b, err := New(cfg)
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
				b.Reset(i % n) // cycles through root, internal nodes, leaves
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

// A reset tree participant gets ErrReset and its redo passes, at the root
// as well as at a leaf.
func TestTreeResetDeliversErrReset(t *testing.T) {
	const n = 3
	for _, victim := range []int{0, n - 1} {
		b, err := New(treeCfg(n, 67))
		if err != nil {
			t.Fatal(err)
		}
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

		// Let the first begin wave roll so the victim is mid-phase (execute):
		// a reset in the pre-begin ready window voids no work, by design.
		time.Sleep(2 * time.Millisecond)
		b.Reset(victim)
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

// Undetectable faults stabilize on the tree.
func TestTreeScrambleStabilizes(t *testing.T) {
	const n = 7
	b, err := New(treeCfg(n, 68))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

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

	time.Sleep(5 * time.Millisecond)
	for id := 0; id < n; id++ {
		b.Scramble(id, int64(200+id))
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

// Spurious messages are absorbed on both edge directions (down at a leaf,
// up at the root). Forgeries are undetectable, so the tolerance is
// stabilizing, not masking: a forgery may deliver a bogus extra pass, so
// every worker keeps participating until all of them reached the target
// (a worker that left at its personal count could starve the rest).
func TestTreeSpuriousMessagesAbsorbed(t *testing.T) {
	const n = 7
	cfg := treeCfg(n, 69)
	cfg.Resend = 100 * time.Microsecond
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	for i := 0; i < 2*n; i++ {
		b.InjectSpurious(i%n, int64(700+i))
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
				b.InjectSpurious(i%n, int64(1200+i))
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const wantPasses = 25
	runCtx, runCancel := context.WithCancel(ctx)
	defer runCancel()
	passes := make([]int, n)
	var mu sync.Mutex
	allDone := func() bool {
		for i := range passes {
			if passes[i] < wantPasses {
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
					mu.Lock()
					passes[id]++
					done := allDone()
					mu.Unlock()
					if done {
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
	mu.Lock()
	defer mu.Unlock()
	for id := range passes {
		if passes[id] < wantPasses {
			t.Errorf("worker %d passed %d barriers under spurious messages, want ≥ %d", id, passes[id], wantPasses)
		}
	}
	if b.Stats().Spurious == 0 {
		t.Error("no spurious messages recorded")
	}
}

// Fail-safe halt works identically on the tree.
func TestTreeHaltIsFailSafe(t *testing.T) {
	const n = 3
	b, err := New(treeCfg(n, 70))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := b.Await(ctx, 0)
		done <- err
	}()
	time.Sleep(time.Millisecond)
	b.Halt()
	if err := <-done; !errors.Is(err, ErrHalted) {
		t.Fatalf("outstanding Await returned %v, want ErrHalted", err)
	}
	if _, err := b.Await(ctx, 1); !errors.Is(err, ErrHalted) {
		t.Fatalf("subsequent Await returned %v, want ErrHalted", err)
	}
}

// Chaos soak on the tree: every fault class at once; liveness assertion.
func TestTreeChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	const n = 7
	cfg := treeCfg(n, 71)
	cfg.LossRate = 0.05
	cfg.CorruptRate = 0.05
	cfg.Resend = 100 * time.Microsecond
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

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
			}
			switch i % 7 {
			case 0, 1, 2:
				b.Reset(i % n)
			case 3, 4:
				b.InjectSpurious((i+1)%n, int64(i))
			case 5:
				b.Scramble((i+2)%n, int64(i))
			case 6:
				// quiet tick
			}
		}
	}()

	const wantPasses = 40
	runCtx, runCancel := context.WithCancel(ctx)
	defer runCancel()
	passes := make([]int64, n)
	var mu sync.Mutex
	allDone := func() bool {
		for i := range passes {
			if passes[i] < wantPasses {
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
					mu.Lock()
					passes[id]++
					done := allDone()
					mu.Unlock()
					if done {
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
	mu.Lock()
	defer mu.Unlock()
	for id := range passes {
		if passes[id] < wantPasses {
			t.Errorf("worker %d only passed %d/%d barriers under chaos", id, passes[id], wantPasses)
		}
	}
}

// A killed-and-rejoined member is masked: the survivors keep passing and
// the rejoin behaves like any detectable reset. (In-process version of the
// barrierd e2e; the member's goroutines are stopped via a separate Barrier
// instance hosting only that member over a shared transport.)
func TestTreeRejoinStateStartsDetectablyReset(t *testing.T) {
	// Rejoin=true must start every hosted member in the reset state, which
	// the tree masks: the first Await surfaces ErrReset (work voided) or
	// passes — never a wrong phase, never a hang.
	const n = 3
	cfg := treeCfg(n, 72)
	cfg.Rejoin = true
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; {
				_, err := b.Await(ctx, id)
				switch {
				case err == nil:
					k++
				case errors.Is(err, ErrReset):
					// redo
				default:
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Sixteen participants on the tree, with resets — the scale the benchmark
// compares against the ring.
func TestTreeSixteenParticipants(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const n = 16
	col := newCollector(n, 8)
	cfg := treeCfg(n, 73)
	cfg.EventSink = col.sink
	b, err := New(cfg)
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
