package runtime

// Tests for wave pipelining (Config.Depth): the windowed Await must
// overlap up to Depth barrier instances without losing, doubling, or
// reordering passes — under cancellation and under faults.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
)

// Fault-free pipelined rounds: every worker sees the synthesized phase
// counter advance by exactly one per pass, in every placement.
func TestPipelinedFaultFree(t *testing.T) {
	const n, rounds = 4, 100
	for _, pl := range placements(t, n, 4, 11) {
		t.Run(pl.name, func(t *testing.T) {
			b, err := New(pl.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for id := 0; id < n; id++ {
				id := id
				wg.Add(1)
				go func() {
					defer wg.Done()
					last := -1
					for r := 0; r < rounds; r++ {
						ph, err := b.Await(ctx, id)
						if err != nil {
							errs <- err
							return
						}
						if last != -1 && ph != (last+1)%b.NumPhases() {
							errs <- errors.New("pipelined phase order violated")
							return
						}
						last = ph
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			// Every reaped wave was counted; the tail of the window (waves
			// entered by the final Awaits but never reaped) may add up to
			// Depth-1 more per participant.
			got := b.Stats().Passes
			if got < int64(n*rounds) || got > int64(n*(rounds+b.Depth()-1)) {
				t.Errorf("Stats.Passes = %d, want in [%d, %d]", got, n*rounds, n*(rounds+b.Depth()-1))
			}
		})
	}
}

// The window actually pipelines: with Depth = 4 a fast worker may run
// ahead of a slow one by more than one round (impossible at Depth 1),
// but never by more than Depth rounds.
func TestPipelinedSkewBound(t *testing.T) {
	const n, rounds, depth = 3, 200, 4
	b, err := New(Config{Participants: n, Depth: depth, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var round [n]atomic.Int64
	var maxSkew atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if id == n-1 {
					time.Sleep(50 * time.Microsecond) // the deliberately slow worker
				}
				if _, err := b.Await(ctx, id); err != nil {
					errs <- err
					return
				}
				mine := round[id].Add(1)
				for other := range round {
					if skew := mine - round[other].Load(); skew > maxSkew.Load() {
						maxSkew.Store(skew)
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := maxSkew.Load(); got > depth {
		t.Errorf("round skew %d exceeds the window depth %d", got, depth)
	}
	if got := maxSkew.Load(); got < 2 {
		t.Errorf("round skew never exceeded 1 (max %d): the window is not pipelining", got)
	}
}

// Resets under a Depth-4 window: ErrReset waves are redone on the same
// lane, the synthesized phase counter never skips or repeats, and the
// forced re-executions show up in WastedInstances. Workers are
// free-running — a reset racing a completion may legally leave the
// victim one delivered pass behind its peers, so fixed-round loops
// would wedge once the peers finish.
func TestPipelinedResetRedo(t *testing.T) {
	const n = 4
	reg := obsv.NewRegistry()
	b, err := New(Config{Participants: n, Depth: 4, Seed: 13, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var passes [n]atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				ph, err := b.Await(ctx, id)
				switch {
				case err == nil:
					if last != -1 && ph != (last+1)%b.NumPhases() {
						errs <- errors.New("phase order violated across reset redo")
						return
					}
					last = ph
					passes[id].Add(1)
				case errors.Is(err, ErrReset):
					// redo the phase work; the wave stays at the window head
				default:
					return // ctx canceled: done
				}
			}
		}()
	}

	// A bounded round-robin burst of resets across all members.
	for i := 0; i < 40; i++ {
		time.Sleep(300 * time.Microsecond)
		b.Reset(i % n)
	}

	// Liveness: every worker gains 5 fresh passes after the faults stop.
	var base [n]int64
	for id := range base {
		base[id] = passes[id].Load()
	}
	deadline := time.Now().Add(30 * time.Second)
	for id := 0; id < n; id++ {
		for passes[id].Load() < base[id]+5 {
			if time.Now().After(deadline) {
				StuckFatalf(t, []*Barrier{b}, "worker %d made no progress after resets stopped", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	s := b.Stats()
	if s.ResetsInjected == 0 {
		t.Error("no resets were accepted; the fault path was not exercised")
	}
	if s.WastedInstances == 0 {
		t.Error("resets at depth forced no re-executed instances; WastedInstances not counting")
	}
	// The exported wasted-work numerator must agree with the snapshot now
	// that the protocol goroutines are quiescent.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("barrier_wasted_instances_total %d\n", s.WastedInstances)
	if !strings.Contains(sb.String(), want) {
		t.Errorf("scrape does not carry %q", strings.TrimSpace(want))
	}
}

// The cancel-mid-phase sweep of PR 4, under a Depth-4 window and across
// every placement: a context canceled in the instant a wave completes
// must not lose the wave, deliver it twice, or reorder the window.
func TestAwaitCancelMidWindow(t *testing.T) {
	const n, rounds, depth = 4, 150, 4
	for _, pl := range placements(t, n, depth, 11) {
		t.Run(pl.name, func(t *testing.T) {
			b, err := New(pl.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Stop()

			ctx, cancelAll := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancelAll()
			var wg sync.WaitGroup
			errs := make(chan error, n)

			// Participants 1..n-1: Await loops with a small stagger.
			for id := 1; id < n; id++ {
				id := id
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						time.Sleep(time.Duration(20+10*(r%5)) * time.Microsecond)
						if _, err := b.Await(ctx, id); err != nil {
							errs <- err
							return
						}
					}
				}()
			}

			// Participant 0: cancels mid-window, then retries. The sweep
			// covers cancellations landing inside Enter's top-up loop (some
			// lanes entered, some not) as well as inside Leave.
			wg.Add(1)
			go func() {
				defer wg.Done()
				lastPh, canceled, attempt := -1, 0, 0
				for passes := 0; passes < rounds; {
					attempt++
					timeout := time.Duration(1+attempt%120) * time.Microsecond
					cctx, cancel := context.WithTimeout(ctx, timeout)
					ph, err := b.Await(cctx, 0)
					cancel()
					switch {
					case err == nil:
						if lastPh != -1 {
							if want := (lastPh + 1) % b.NumPhases(); ph != want {
								errs <- errors.New("victim phase order violated: a wave was lost, doubled, or reordered")
								return
							}
						}
						lastPh = ph
						passes++
					case errors.Is(err, context.DeadlineExceeded):
						canceled++
					default:
						errs <- err
						return
					}
				}
				if canceled == 0 {
					t.Error("no cancellation fired mid-window; the race window was not exercised")
				}
			}()

			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			// Every reaped wave is counted exactly once. The window tail —
			// waves the final Awaits entered but never reaped — may complete
			// and add up to Depth-1 counted passes per participant.
			got := b.Stats().Passes
			if got < int64(n*rounds) || got > int64(n*(rounds+depth-1)) {
				t.Errorf("Stats.Passes = %d, want in [%d, %d] (a cancel double-counted or lost a wave)",
					got, n*rounds, n*(rounds+depth-1))
			}
		})
	}
}

// A reset voids an arrival only on the participant's head lane — the one
// place it is waiting and can re-arrive at once. Off the head lane the
// arrival stands: voided there, it could be redone only after every older
// wave was reaped, and two members one wave apart would each wait for the
// other's redo (the cycle behind ROADMAP item 0's hang, reproduced
// statistically by the chan placements of the sweep below).
func TestResetVoidsArrivalOnlyAtWindowHead(t *testing.T) {
	b, err := New(Config{Participants: 2, Depth: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	b.Halt() // freeze the schedulers: the test drives member 0's gates itself
	waitQuiesced(t, b)
	head, ahead := b.lanes[0].gates[0], b.lanes[1].gates[0] // window [0,0): wave 0 is lane 0's
	for _, g := range []*gate{head, ahead} {
		<-g.wake // Halt's poke: the buffers below are read as result counts
	}

	for _, g := range []*gate{head, ahead} {
		g.onArrive(1)
		g.failPending(ErrReset)
	}
	if !ahead.arrived || !ahead.appWaiting || len(ahead.wake) != 0 {
		t.Errorf("off the head lane: arrived=%v appWaiting=%v results=%d, want the arrival standing and nothing delivered",
			ahead.arrived, ahead.appWaiting, len(ahead.wake))
	}
	if head.arrived || head.appWaiting || len(head.wake) != 1 {
		t.Fatalf("on the head lane: arrived=%v appWaiting=%v results=%d, want the arrival voided and ErrReset delivered",
			head.arrived, head.appWaiting, len(head.wake))
	}
	if r := <-head.wake; !errors.Is(r.err, ErrReset) || r.ticket != 1 {
		t.Errorf("head lane delivered %+v, want ErrReset for ticket 1", r)
	}
	if got := b.Stats().Resets; got != 1 {
		t.Errorf("Stats.Resets = %d, want 1 (only the head lane's ErrReset is a delivered reset)", got)
	}

	// A stored error (reset while the participant was working) is likewise
	// delivered only if its lane is still the head when the arrival comes.
	head.failPending(ErrReset)
	if head.pendingErr == nil {
		t.Fatal("reset at the head lane with no arrival outstanding stored no error")
	}
	b.windows[0].rmirror.Store(1) // the participant reaped wave 0: lane 1 is the head now
	head.onArrive(2)
	if !head.arrived || head.pendingErr != nil || len(head.wake) != 0 {
		t.Errorf("arrival for a later wave: arrived=%v pendingErr=%v results=%d, want it standing", head.arrived, head.pendingErr, len(head.wake))
	}
}

// A context canceled while the pipeline window drains during fault
// recovery must not double-count barrier_wasted_instances_total. The
// oracle is the begin/pass/wasted conservation law, counted from the
// event trace: every delivered pass plus every wasted instance consumes a
// recorded begin, up to the implicit phase-0 begins and the window's
// outstanding waves. A cancel that books the same voided instance twice
// inflates the wasted counter past what the begins can cover; a storm of
// cancellations makes any systematic over-count blow through the bounded
// slack. Swept across placements and window depths; ring-chan is the
// interleaving — a scheduler per ring member over channel
// lanes — on which ring/depth=2 once hung (ROADMAP item 0).
func TestCancelDuringRecoveryWastedAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock paced")
	}
	const n = 4
	for _, depth := range []int{1, 2, 4} {
		for _, pl := range placements(t, n, depth, 17) {
			cfg := pl.cfg
			t.Run(fmt.Sprintf("%s/depth=%d", pl.name, depth), func(t *testing.T) {
				reg := obsv.NewRegistry()
				var begins atomic.Int64
				cfg.Metrics = reg
				cfg.EventSink = func(e core.Event) {
					if e.Kind == core.EvBegin {
						begins.Add(1)
					}
				}
				b, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Stop()

				ctx, cancelAll := context.WithCancel(context.Background())
				defer cancelAll()
				var passes [n]atomic.Int64
				var wg sync.WaitGroup
				errs := make(chan error, n)

				// Participants 1..n-1: Await loops redoing reset phases.
				for id := 1; id < n; id++ {
					id := id
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							_, err := b.Await(ctx, id)
							switch {
							case err == nil:
								passes[id].Add(1)
							case errors.Is(err, ErrReset):
							default:
								return
							}
						}
					}()
				}
				// Participant 0: a cancel storm — short deadlines landing
				// inside the window drain — interleaved with the redo loop.
				wg.Add(1)
				go func() {
					defer wg.Done()
					canceled, attempt := 0, 0
					for {
						attempt++
						cctx, cancel := context.WithTimeout(ctx, time.Duration(1+attempt%150)*time.Microsecond)
						_, err := b.Await(cctx, 0)
						cancel()
						switch {
						case err == nil:
							passes[0].Add(1)
						case errors.Is(err, context.DeadlineExceeded):
							canceled++
						case errors.Is(err, ErrReset):
						default:
							if ctx.Err() == nil {
								errs <- err
							}
							return
						}
					}
				}()

				// The recovery the cancels land in: a round-robin reset storm.
				for i := 0; i < 40; i++ {
					time.Sleep(300 * time.Microsecond)
					b.Reset(i % n)
				}

				// Liveness tail: every member gains 3 fresh passes.
				var base [n]int64
				for id := range base {
					base[id] = passes[id].Load()
				}
				deadline := time.Now().Add(30 * time.Second)
				for id := 0; id < n; id++ {
					for passes[id].Load() < base[id]+3 {
						if time.Now().After(deadline) {
							StuckFatalf(t, []*Barrier{b}, "member %d made no progress after the storm", id)
						}
						time.Sleep(time.Millisecond)
					}
				}
				cancelAll()
				wg.Wait()
				b.Stop()
				select {
				case err := <-errs:
					t.Fatal(err)
				default:
				}

				st := b.Stats()
				if st.ResetsInjected == 0 {
					t.Fatal("no reset was accepted; the recovery path was not exercised")
				}
				residual := begins.Load() - st.Passes - st.WastedInstances
				// Each lane gate's first pass may consume its member's
				// implicit phase-0 begin, so the floor is n - n*depth; any
				// systematic double-count drives the residual far below it.
				low := int64(n) - int64(n*depth)
				// Outstanding waves (begun, never reaped) plus reset redos
				// bound the other side.
				high := int64(n) + int64(n*depth) + st.ResetsInjected*int64(depth+1)
				if residual < low || residual > high {
					t.Errorf("begins(%d) - passes(%d) - wasted(%d) = %d, want in [%d, %d] (wasted instances double-counted or lost)",
						begins.Load(), st.Passes, st.WastedInstances, residual, low, high)
				}
				// The exported series must agree with the snapshot exactly
				// now that the protocol goroutines are quiescent.
				var sb strings.Builder
				if err := reg.WriteText(&sb); err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("barrier_wasted_instances_total %d\n", st.WastedInstances)
				if !strings.Contains(sb.String(), want) {
					t.Errorf("scrape does not carry %q", strings.TrimSpace(want))
				}
			})
		}
	}
}
