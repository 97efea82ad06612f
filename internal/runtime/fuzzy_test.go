package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Fuzzy barriers: after Enter, a participant may perform unordered work
// while slower participants are still in their ordered phase; Leave then
// blocks until the barrier opens. This test proves the overlap actually
// happens: the fast workers' fuzzy work completes while the slow worker
// has not yet entered.
func TestFuzzyBarrierOverlapsWork(t *testing.T) {
	const n = 4
	b, err := New(Config{Participants: n, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var slowEntered atomic.Bool
	var fuzzyBeforeSlow atomic.Int32

	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			if id == 0 {
				// The slow worker: long ordered phase.
				time.Sleep(20 * time.Millisecond)
				slowEntered.Store(true)
				if err := b.Enter(ctx, 0); err != nil {
					t.Errorf("slow enter: %v", err)
					return
				}
			} else {
				if err := b.Enter(ctx, id); err != nil {
					t.Errorf("worker %d enter: %v", id, err)
					return
				}
				// Fuzzy (unordered) work between Enter and Leave.
				if !slowEntered.Load() {
					fuzzyBeforeSlow.Add(1)
				}
			}
			if _, err := b.Leave(ctx, id); err != nil {
				t.Errorf("worker %d leave: %v", id, err)
			}
		}()
	}
	wg.Wait()
	if fuzzyBeforeSlow.Load() != n-1 {
		t.Errorf("only %d/%d fast workers did fuzzy work before the slow worker entered",
			fuzzyBeforeSlow.Load(), n-1)
	}
}

// Leave still provides the full barrier: nobody returns from Leave before
// every participant has called Enter. That is all a barrier can promise:
// the last Enter may complete the pass, and deliver every result, before
// it returns, so the count is taken before the call.
func TestLeaveWaitsForAllEnters(t *testing.T) {
	const n = 3
	b, err := New(Config{Participants: n, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var entered atomic.Int32
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(id) * 3 * time.Millisecond)
			entered.Add(1)
			if err := b.Enter(ctx, id); err != nil {
				t.Errorf("enter %d: %v", id, err)
				return
			}
			if _, err := b.Leave(ctx, id); err != nil {
				t.Errorf("leave %d: %v", id, err)
				return
			}
			if got := entered.Load(); got != n {
				t.Errorf("worker %d left with only %d/%d entered", id, got, n)
			}
		}()
	}
	wg.Wait()
}

// Enter+Leave composes across rounds exactly like Await.
func TestFuzzyRounds(t *testing.T) {
	const n, rounds = 3, 15
	b, err := New(Config{Participants: n, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := b.Enter(ctx, id); err != nil {
					t.Errorf("enter: %v", err)
					return
				}
				if _, err := b.Leave(ctx, id); err != nil {
					t.Errorf("leave: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFuzzyRangeChecks(t *testing.T) {
	b, err := New(Config{Participants: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if err := b.Enter(context.Background(), 5); err == nil {
		t.Error("out-of-range Enter should fail")
	}
	if _, err := b.Leave(context.Background(), -1); err == nil {
		t.Error("out-of-range Leave should fail")
	}
}

// A reset that lands between Enter and Leave either voids the pending work
// (reset before the completion was consumed → ErrReset, redo) or only
// loses protocol state (reset after → the repeat instance re-uses the work
// and Leave returns a normal pass). Both outcomes must compose into
// continued progress.
func TestResetBetweenEnterAndLeave(t *testing.T) {
	const n = 3
	b, err := New(Config{Participants: n, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Keep the other participants looping so waves flow.
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

	if err := b.Enter(ctx, 0); err != nil {
		t.Fatal(err)
	}
	b.Reset(0)
	_, err = b.Leave(ctx, 0)
	switch {
	case err == nil:
		// The completion had been consumed before the reset: the repeat
		// instance re-used the work and the barrier passed normally.
	case errors.Is(err, ErrReset):
		// The reset voided the pending work: redo and pass.
		if _, err := b.Await(ctx, 0); err != nil {
			t.Fatalf("redo failed: %v", err)
		}
	default:
		t.Fatalf("Leave after mid-barrier reset returned %v", err)
	}
	// Either way, further barriers flow.
	if _, err := b.Await(ctx, 0); err != nil && !errors.Is(err, ErrReset) {
		t.Fatalf("follow-up barrier failed: %v", err)
	}
}
