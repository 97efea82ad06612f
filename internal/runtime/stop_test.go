package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
)

// Stop is idempotent: a second (and hundredth) Stop returns without
// deadlock or panic, with the transport torn down exactly once.
func TestStopIdempotent(t *testing.T) {
	b, err := New(Config{Participants: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		done := make(chan struct{})
		go func() {
			b.Stop()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("Stop call %d did not return", i)
		}
	}
}

// Concurrent Stops from many goroutines all return; none panics on a
// doubly-closed channel or link.
func TestStopConcurrent(t *testing.T) {
	b, err := New(Config{Participants: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Stop()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Stops did not all return")
	}
}

// An Await racing Stop returns ErrStopped (or completes a pass that was
// already finishing); it never deadlocks and never reports success for a
// barrier that can no longer complete.
func TestStopRacingAwait(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		b, err := New(Config{Participants: 3, Resend: 50 * time.Microsecond, Seed: int64(43 + trial)})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs := make(chan error, 3)
		for id := 0; id < 3; id++ {
			id := id
			go func() {
				for {
					_, err := b.Await(ctx, id)
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		// Let some passes happen, then stop mid-flight.
		time.Sleep(time.Duration(trial%5) * 100 * time.Microsecond)
		b.Stop()
		for i := 0; i < 3; i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrStopped) {
					t.Fatalf("trial %d: Await returned %v, want ErrStopped", trial, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("trial %d: Await deadlocked against Stop", trial)
			}
		}
		cancel()
		b.Stop() // second Stop after the race: still fine
	}
}

// Stop and Halt interleaved from concurrent goroutines: both quiesce the
// ring, neither panics, and subsequent Awaits fail fast with the
// corresponding sentinel.
func TestStopHaltInterleaved(t *testing.T) {
	b, err := New(Config{Participants: 3, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				b.Stop()
			} else {
				b.Halt()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("interleaved Stop/Halt did not all return")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := b.Await(ctx, 0); !errors.Is(err, ErrStopped) && !errors.Is(err, ErrHalted) {
		t.Errorf("Await after Stop+Halt returned %v, want ErrStopped or ErrHalted", err)
	}
}

// Stop leaves no turn running. On the placements whose turns also run on a
// channel link's hook goroutines, Stop lands amid lossy traffic with a
// fast sweeper; the counters read right after it must be the ones a scrape
// reports and the ones read a few milliseconds later.
func TestStopLeavesNoTurnRunning(t *testing.T) {
	const n, trials = 4, 10
	for _, name := range []string{"ring-chan", "tree-chan"} {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				var cfg Config
				for _, pl := range placements(t, n, 1, int64(90+trial)) {
					if pl.name == name {
						cfg = pl.cfg
					}
				}
				reg := obsv.NewRegistry()
				cfg.Metrics, cfg.LossRate, cfg.Resend = reg, 0.05, 20*time.Microsecond
				b, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				for id := 0; id < n; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						for {
							if _, err := b.Await(ctx, id); err != nil && !errors.Is(err, ErrReset) {
								return
							}
						}
					}(id)
				}
				waitFor(t, "a few passes", func() bool { return b.Stats().Passes >= 8*n })
				b.Stop()
				st := b.Stats()
				var sb strings.Builder
				if err := reg.WriteText(&sb); err != nil {
					t.Fatal(err)
				}
				for metric, v := range map[string]int64{
					"barrier_passes_total": st.Passes, "barrier_sends_total": st.Sends, "barrier_drops_total": st.Drops,
				} {
					if want := fmt.Sprintf("%s %d\n", metric, v); !strings.Contains(sb.String(), want) {
						t.Errorf("trial %d: scrape after Stop does not carry %q", trial, strings.TrimSpace(want))
					}
				}
				time.Sleep(5 * time.Millisecond)
				if again := b.Stats(); again != st {
					t.Errorf("trial %d: Stats moved after Stop:\n%+v\n%+v", trial, st, again)
				}
				cancel()
				wg.Wait()
				b.UnregisterMetrics()
			}
		})
	}
}
