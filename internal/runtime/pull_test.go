package runtime

// Loss recovery at quiescence (sched.pullRound): a scheduler that hosts
// both ends of an edge masks a lost or corrupted frame on it by re-reading
// the sender's register when it runs out of work. The tests switch the
// resend sweeper off — Resend: time.Hour — so whatever completes,
// completes through pulls alone.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// 2,000 passes under 5% loss plus 5% detected corruption with no
// retransmission at all, on every all-local roster. At Depth 1 the
// barrier's own events run through the specification checker; at Depth 2
// the lanes' events interleave untagged, so the check there is the
// participant-visible one: phases advance by exactly one per pass.
func TestLossMaskedWithoutSweeper(t *testing.T) {
	const rounds = 2000
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"ring", Config{Participants: 8}},
		{"tree", Config{Participants: 15, Topology: TopologyTree}},
		{"hybrid", Config{Participants: 8, Topology: TopologyHybrid, Hosts: [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}}}},
	}
	for _, sh := range shapes {
		for _, depth := range []int{1, 2} {
			cfg := sh.cfg
			t.Run(fmt.Sprintf("%s/depth=%d", sh.name, depth), func(t *testing.T) {
				n := cfg.Participants
				cfg.Depth, cfg.Seed = depth, 61
				cfg.Resend, cfg.LossRate, cfg.CorruptRate = time.Hour, 0.05, 0.05
				var col *collector
				if depth == 1 {
					col = newCollector(n, 8)
					cfg.EventSink = col.sink
				}
				b, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Stop()

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				errs := make(chan error, n)
				var wg sync.WaitGroup
				for id := 0; id < n; id++ {
					id := id
					wg.Add(1)
					go func() {
						defer wg.Done()
						last := -1
						for r := 0; r < rounds; r++ {
							// Loss and detected corruption are masked: not even
							// ErrReset may surface.
							ph, err := b.Await(ctx, id)
							if err != nil {
								errs <- fmt.Errorf("member %d, pass %d: %w", id, r, err)
								return
							}
							if last != -1 && ph != (last+1)%b.NumPhases() {
								errs <- fmt.Errorf("member %d, pass %d: phase %d after %d", id, r, ph, last)
								return
							}
							last = ph
						}
					}()
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					// At the parent commit this is the first dropped frame.
					StuckFatalf(t, []*Barrier{b}, "stalled with the sweeper off")
				}
				select {
				case err := <-errs:
					t.Fatal(err)
				default:
				}
				if col != nil {
					if err := col.violation(); err != nil {
						t.Fatalf("specification violated: %v", err)
					}
				}
				st := b.Stats()
				if st.Drops == 0 || st.Pulls == 0 {
					t.Errorf("faults not exercised: %+v", st)
				}
				t.Logf("sends=%d drops=%d pulls=%d", st.Sends, st.Drops, st.Pulls)
			})
		}
	}
}

// One pull round per imbalance: a register its receiver keeps ignoring
// must not keep the scheduler awake. A crashed member ignores everything,
// so once the survivors block on it every edge into it differs from its
// register for good; with the sweeper off, nothing may move after that.
func TestPullDoesNotSpin(t *testing.T) {
	const n, victim = 7, 2 // an inner node: a parent and two children border it
	b, err := New(Config{Participants: n, Topology: TopologyTree, Seed: 62,
		Resend: time.Hour, LossRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	runWorkers(t, b, 50, nil)
	if b.Stats().Pulls == 0 {
		t.Fatal("50 lossy passes pulled nothing; the mechanism was not exercised")
	}

	b.Crash(victim)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := b.Await(ctx, id); err != nil {
					return
				}
			}
		}()
	}
	// The survivors run at most a pass ahead of the crashed member, then
	// block in Await; 100 ms is thousands of fault-free pass times.
	time.Sleep(100 * time.Millisecond)
	first := b.Stats()
	time.Sleep(50 * time.Millisecond)
	second := b.Stats()
	if first.Pulls != second.Pulls || first.Sends != second.Sends {
		t.Errorf("scheduler still working against a crashed member: pulls %d -> %d, sends %d -> %d",
			first.Pulls, second.Pulls, first.Sends, second.Sends)
	}
	cancel()
	wg.Wait()
}
