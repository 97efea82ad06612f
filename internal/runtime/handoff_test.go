package runtime

// The participant↔scheduler handoff: a parked Leave waits on its own wake
// channel only, so Halt and Stop must be delivered to it (Barrier.wakeAll)
// — to every parked Leave, on every placement, without ever costing a
// participant a pass that was already in its buffer. A ctx the participant
// has parked with before is delivered the same way, by its AfterFunc
// registration (Barrier.watch), which Stop must release.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"
)

// downCases are the two ways a barrier goes down, with the error its
// waiters must then report.
var downCases = []struct {
	name string
	down func(*Barrier)
	want error
}{
	{"halt", (*Barrier).Halt, ErrHalted},
	{"stop", (*Barrier).Stop, ErrStopped},
}

// parkedInLeave counts the goroutines parked in Leave, from a dump of all
// stacks: the park has no other observable side. A ctx seen for the first
// time parks in a select; a watched ctx, or one whose Done is nil, parks
// in a plain receive on wake.
func parkedInLeave() int { return parkedInLeaveOn("[select", "[chan receive") }

// parkedInLeaveOn counts the goroutines in Leave whose wait reason is one
// of reasons.
func parkedInLeaveOn(reasons ...string) int {
	return goroutinesWhere(func(head, stack []byte) bool {
		for _, reason := range reasons {
			if bytes.Contains(head, []byte(reason)) && bytes.Contains(stack, []byte(".(*Barrier).Leave(")) {
				return true
			}
		}
		return false
	})
}

// goroutinesIn counts the goroutines that have frame on their stack.
func goroutinesIn(frame string) int {
	return goroutinesWhere(func(_, stack []byte) bool { return bytes.Contains(stack, []byte(frame)) })
}

// goroutinesWhere counts the goroutines in a dump of all stacks for which
// match holds; head is a goroutine's first line, with its wait reason.
func goroutinesWhere(match func(head, stack []byte) bool) int {
	buf := make([]byte, 1<<20)
	buf = buf[:goruntime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		head, _, _ := bytes.Cut(g, []byte("\n"))
		if match(head, g) {
			n++
		}
	}
	return n
}

// parkedPass runs one pass of b in which member 0, awaiting with ctx,
// parks in Leave before any other member arrives: each call is one
// sighting of ctx (Barrier.watch). It returns member 0's phase.
func parkedPass(t *testing.T, b *Barrier, ctx context.Context) int {
	t.Helper()
	others := make(chan error, b.n-1)
	go func() {
		for deadline := time.Now().Add(10 * time.Second); parkedInLeave() < 1 && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		for id := 1; id < b.n; id++ {
			go func(id int) {
				_, err := b.Await(context.Background(), id)
				others <- err
			}(id)
		}
	}()
	ph, err := b.Await(ctx, 0)
	if err != nil {
		t.Fatalf("member 0's parked pass: %v", err)
	}
	for id := 1; id < b.n; id++ {
		if err := <-others; err != nil {
			t.Fatalf("a member's pass beside member 0's park: %v", err)
		}
	}
	return ph
}

// n-1 members wait in Leave for a pass the last member never lets happen;
// Halt (Stop) must get every one of them out with ErrHalted (ErrStopped),
// and leave no turn running (waitQuiesced). Swept over the placements, the
// window depths and a ctx that can end and one that cannot (a nil Done
// channel in the park). The barrier goes down only once all n-1 are seen
// parked, and each must have taken its poke: nothing else ends that park.
func TestHaltStopWakeEveryParkedLeave(t *testing.T) {
	const n = 4
	shared, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxs := []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancellable", shared}}

	for _, dc := range downCases {
		for _, depth := range []int{1, 4} {
			for _, cc := range ctxs {
				for _, pl := range placements(t, n, depth, 19) {
					dc, cc, cfg := dc, cc, pl.cfg
					t.Run(fmt.Sprintf("%s/%s/depth=%d/ctx=%s", dc.name, pl.name, depth, cc.name), func(t *testing.T) {
						b, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						defer b.Stop()

						var entered, left sync.WaitGroup
						errs := make([]error, n-1)
						for id := 0; id < n-1; id++ {
							id := id
							entered.Add(1)
							left.Add(1)
							go func() {
								defer left.Done()
								err := b.Enter(cc.ctx, id)
								entered.Done()
								if err == nil {
									_, err = b.Leave(cc.ctx, id)
								}
								errs[id] = err
							}()
						}
						entered.Wait()
						for deadline := time.Now().Add(10 * time.Second); parkedInLeave() < n-1; time.Sleep(100 * time.Microsecond) {
							if time.Now().After(deadline) {
								StuckFatalf(t, []*Barrier{b}, "%d of %d Leaves parked", parkedInLeave(), n-1)
							}
						}
						dc.down(b)

						done := make(chan struct{})
						go func() { left.Wait(); close(done) }()
						select {
						case <-done:
						case <-time.After(10 * time.Second):
							StuckFatalf(t, []*Barrier{b}, "a Leave is still parked after %s", dc.name)
						}
						for id, err := range errs {
							if !errors.Is(err, dc.want) {
								t.Errorf("member %d returned %v, want %v", id, err, dc.want)
							}
							if g := b.laneGate(b.windows[id].rcur, id); len(g.wake) != 0 {
								t.Errorf("member %d left its poke in the wake buffer: it was not parked when the barrier went down", id)
							}
						}
						waitQuiesced(t, b)
					})
				}
			}
		}
	}
}

// An Enter on a barrier that is down, or with a ctx that has already
// ended, registers nothing: not once in 1,000 calls. (A select over the
// control send and the three reasons picks a ready arm at random, and the
// send is almost always ready.)
func TestEnterOnDownBarrierRegistersNothing(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		down func(*Barrier)
		ctx  context.Context
		want error
	}{
		{"halt", (*Barrier).Halt, context.Background(), ErrHalted},
		{"stop", (*Barrier).Stop, context.Background(), ErrStopped},
		{"canceled-ctx", func(*Barrier) {}, canceled, context.Canceled},
	}
	for _, tc := range cases {
		for _, depth := range []int{1, 2} {
			tc := tc
			t.Run(fmt.Sprintf("%s/depth=%d", tc.name, depth), func(t *testing.T) {
				b, err := New(Config{Participants: 2, Depth: depth, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				defer b.Stop()
				runWorkers(t, b, 3, nil) // the counters below are not at their zero values
				tc.down(b)

				w := &b.windows[0]
				type snapshot struct {
					tickets    []uint64
					entered    []bool
					rcur, pcur uint64
				}
				snap := func() (s snapshot) {
					for _, ln := range b.lanes {
						s.tickets = append(s.tickets, ln.gates[0].tickets)
						s.entered = append(s.entered, ln.gates[0].entered)
					}
					s.rcur, s.pcur = w.rcur, w.pcur
					return s
				}
				before := fmt.Sprintf("%+v", snap())
				for i := 0; i < 1000; i++ {
					if err := b.Enter(tc.ctx, 0); !errors.Is(err, tc.want) {
						t.Fatalf("Enter %d returned %v, want %v", i, err, tc.want)
					}
				}
				if after := fmt.Sprintf("%+v", snap()); after != before {
					t.Errorf("refused Enters left a trace:\nbefore %s\nafter  %s", before, after)
				}
			})
		}
	}
}

// "The pass wins": a result already in the wake buffer when the barrier
// goes down, or when a watched ctx ends, is not displaced by the poke.
// Leave returns the phase, once; the Await after it reports the barrier
// down or the ctx ended. In the ctx row member 0 has parked twice with the
// ctx, so the poke is its AfterFunc registration's, and the row waits for
// that poke to have been tried before it calls Leave.
func TestPokeNeverDisplacesResult(t *testing.T) {
	type row struct {
		name    string
		watched bool // member 0 parks twice with the ctx first
		down    func(*Barrier, context.CancelFunc)
		want    error
	}
	rows := []row{{name: "ctx-cancel", watched: true, want: context.Canceled, down: func(b *Barrier, cancel context.CancelFunc) {
		cancel() // starts the registration's poke on a goroutine of its own
		for deadline := time.Now().Add(10 * time.Second); goroutinesIn(".(*Barrier).watch.func1(") > 0; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				StuckFatalf(t, []*Barrier{b}, "the ctx's AfterFunc poke never finished")
			}
		}
	}}}
	for _, dc := range downCases {
		dc := dc
		rows = append(rows, row{name: dc.name, want: dc.want, down: func(b *Barrier, _ context.CancelFunc) { dc.down(b) }})
	}
	for _, tc := range rows {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b, err := New(Config{Participants: 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Stop()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			warm := 0
			if tc.watched {
				for ; warm < 2; warm++ {
					parkedPass(t, b, ctx)
				}
				if b.windows[0].watched != ctx.Done() {
					t.Fatal("member 0 parked twice with the ctx and does not watch it")
				}
			}
			for id := 0; id < 2; id++ {
				if err := b.Enter(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			// The pass completes without anyone in Leave; wait for member 0's
			// result to be buffered.
			g := b.lanes[0].gates[0]
			for deadline := time.Now().Add(10 * time.Second); len(g.wake) == 0; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					StuckFatalf(t, []*Barrier{b}, "the pass both members entered never completed")
				}
			}
			tc.down(b, cancel)

			if ph, err := b.Leave(ctx, 0); err != nil || ph != warm+1 {
				t.Fatalf("Leave returned (%d, %v), want the buffered pass into phase %d", ph, err, warm+1)
			}
			if _, err := b.Await(ctx, 0); !errors.Is(err, tc.want) {
				t.Errorf("the next Await returned %v, want %v", err, tc.want)
			}
		})
	}
}

// ownCtx is a cancellable context package context does not know, so
// context.AfterFunc watches it with a goroutine of its own: a live
// registration on it shows in the goroutine count.
type ownCtx struct{ done chan struct{} }

func newOwnCtx() *ownCtx                      { return &ownCtx{done: make(chan struct{})} }
func (c *ownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *ownCtx) Done() <-chan struct{}       { return c.done }
func (c *ownCtx) Value(key any) any           { return nil }
func (c *ownCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// ctxWatchers counts the goroutines context.AfterFunc runs to watch a ctx
// package context does not know, such as an ownCtx.
func ctxWatchers() int { return goroutinesIn("context.(*cancelCtx).propagateCancel.func") }

// A registration is released when the participant parks with another ctx,
// and by Stop: a stopped barrier keeps no watcher alive and is not kept
// reachable by a ctx that outlives it. Counted like
// TestOneGoroutinePerBarrier, except that the watchers are told apart by
// their stacks, so goroutines an earlier test leaves exiting do not count.
func TestStopReleasesCtxWatch(t *testing.T) {
	base, watchers := goruntime.NumGoroutine(), ctxWatchers()
	b, err := New(Config{Participants: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	watch := func(ctx context.Context, want int, what string) {
		t.Helper()
		parkedPass(t, b, ctx)
		parkedPass(t, b, ctx)
		waitFor(t, what, func() bool { return ctxWatchers() == watchers+want })
	}
	watch(newOwnCtx(), 1, "the custom ctx's watcher")
	// Another ctx from package context: its registration starts no goroutine.
	other, cancel := context.WithCancel(context.Background())
	defer cancel()
	watch(other, 0, "the switch to another ctx to release the watcher")
	watch(newOwnCtx(), 1, "the second custom ctx's watcher")
	b.Stop()
	waitFor(t, "Stop to release the watcher", func() bool {
		return ctxWatchers() == watchers && goruntime.NumGoroutine() <= base
	})
}

// A ctx the victim has parked with before is watched (Barrier.watch): its
// park is a plain receive on wake, which only the registration's poke can
// end. The cancel sweep of TestAwaitCancelMidPhase on that path, over every
// placement and Depth {1, 4}. First the victim parks on a wave nobody else
// has entered, with a ctx it parked with twice; the cancel must return
// ctx.Err() within a deadline. Then it reuses each ctx for two passes and
// cancels the third at a delay swept through the instant the result
// lands. Every pass is counted once, in order.
func TestAwaitCancelWatchedCtx(t *testing.T) {
	const n, rounds = 4, 120
	for _, depth := range []int{1, 4} {
		for _, pl := range placements(t, n, depth, 13) {
			cfg := pl.cfg
			t.Run(fmt.Sprintf("%s/depth=%d", pl.name, depth), func(t *testing.T) {
				b, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer b.Stop()
				ctx, cancelAll := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancelAll()

				passes, lastPh := 0, -1
				inOrder := func(ph int) error {
					if lastPh != -1 {
						if want := (lastPh + 1) % b.NumPhases(); ph != want {
							return fmt.Errorf("victim phase %d after %d: a pass was lost, doubled or reordered", ph, lastPh)
						}
					}
					lastPh = ph
					passes++
					return nil
				}
				others := func(rounds int, stagger bool) error {
					var wg sync.WaitGroup
					errs := make(chan error, n-1)
					for id := 1; id < n; id++ {
						id := id
						wg.Add(1)
						go func() {
							defer wg.Done()
							for r := 0; r < rounds; r++ {
								if stagger {
									time.Sleep(time.Duration(20+10*(r%5)) * time.Microsecond)
								}
								if _, err := b.Await(ctx, id); err != nil {
									errs <- err
									return
								}
							}
						}()
					}
					wg.Wait()
					close(errs)
					return <-errs
				}

				// Part 1: a watched park that no pass can end.
				vctx, vcancel := context.WithCancel(ctx)
				type outcome struct {
					ph  int
					err error
				}
				// Room for every pass part 1 lets the victim reap, so it never
				// blocks on a send where the test waits for it to park.
				out := make(chan outcome, depth+2)
				go func() {
					for {
						ph, err := b.Await(vctx, 0)
						out <- outcome{ph, err}
						if err != nil {
							return
						}
					}
				}()
				next := func(what string) outcome {
					select {
					case o := <-out:
						return o
					case <-time.After(10 * time.Second):
						StuckFatalf(t, []*Barrier{b}, "%s", what)
						return outcome{}
					}
				}
				for round := 0; round < 2; round++ {
					waitFor(t, "the victim to park", func() bool { return parkedInLeave() == 1 })
					if err := others(1, false); err != nil {
						t.Fatal(err)
					}
				}
				// Members 1..n-1 entered waves [0, depth]: the victim reaps
				// depth+1 of them and parks on the next for good.
				for i := 0; i <= depth; i++ {
					o := next("the victim never reaped a wave every member entered")
					if o.err != nil {
						t.Fatalf("victim pass %d: %v", i, o.err)
					}
					if err := inOrder(o.ph); err != nil {
						t.Fatal(err)
					}
				}
				waitFor(t, "the victim to park on its watched ctx", func() bool { return parkedInLeaveOn("[chan receive") == 1 })
				vcancel()
				if o := next("a canceled Leave on a watched ctx stayed parked"); !errors.Is(o.err, context.Canceled) {
					t.Fatalf("the canceled Leave returned (%d, %v), want %v", o.ph, o.err, context.Canceled)
				}

				// Part 2: the sweep. The wave part 1 canceled is still
				// outstanding, and the next Await collects it.
				target := rounds + 2 // the others' two passes of part 1, then rounds more
				victim := make(chan error, 1)
				fail := func(err error) {
					victim <- err
					cancelAll() // the others' loops end too
				}
				go func() {
					watchedCancels := 0
					for attempt := 0; passes < target; attempt++ {
						// Two passes with vctx, and up to six more until a second
						// park has it watched (a pass whose result was already
						// buffered does not park).
						vctx, vcancel := context.WithCancel(ctx)
						for i := 0; passes < target && (i < 2 || i < 8 && b.windows[0].watched != vctx.Done()); i++ {
							ph, err := b.Await(vctx, 0)
							if err == nil {
								err = inOrder(ph)
							}
							if err != nil {
								vcancel()
								fail(err)
								return
							}
						}
						if passes == target {
							vcancel()
							break
						}
						watched := b.windows[0].watched == vctx.Done()
						timer := time.AfterFunc(time.Duration(1+attempt%120)*time.Microsecond, vcancel)
						ph, err := b.Await(vctx, 0)
						timer.Stop()
						vcancel()
						switch {
						case err == nil:
							err = inOrder(ph)
						case errors.Is(err, context.Canceled):
							if watched {
								watchedCancels++
							}
							err = nil
						}
						if err != nil {
							fail(err)
							return
						}
					}
					if watchedCancels == 0 {
						fail(errors.New("no cancel landed on a watched ctx; the watched park was not exercised"))
						return
					}
					victim <- nil
				}()
				othersErr := others(rounds, true)
				select {
				case err := <-victim:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(30 * time.Second):
					StuckFatalf(t, []*Barrier{b}, "the victim did not make its %d passes", target)
				}
				if othersErr != nil {
					t.Fatal(othersErr)
				}
				// Every reaped wave is counted once; the window tail the last
				// Awaits entered may add up to depth-1 passes per member.
				if got := b.Stats().Passes; got < int64(n*target) || got > int64(n*(target+depth-1)) {
					t.Errorf("Stats.Passes = %d, want in [%d, %d] (a cancel double-counted or lost a pass)",
						got, n*target, n*(target+depth-1))
				}
			})
		}
	}
}

// The scheduler is not wake's only sender, so deliver may find the slot
// it just drained taken again by a poke. It must not block on that (the
// participant may never come back to read), and the result must be what
// the buffer ends up holding. Halt's and Stop's pokes race a delivery into
// a buffer that starts out holding a stale result.
func TestDeliverNeverBlocksOnConcurrentPoke(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for trial := 0; trial < 2000; trial++ {
			g := &gate{wake: make(chan awaitResult, 1)}
			g.wake <- awaitResult{ticket: 1} // abandoned by a canceled Leave
			var pokers sync.WaitGroup
			for i := 0; i < 2; i++ {
				pokers.Add(1)
				go func() {
					defer pokers.Done()
					offer(g.wake, awaitResult{ticket: pokeTicket})
				}()
			}
			want := awaitResult{phase: 3, ticket: 2}
			g.deliver(want)
			pokers.Wait()
			if got := <-g.wake; got != want {
				t.Errorf("trial %d: the buffer holds %+v, want the delivered %+v", trial, got, want)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deliver blocked behind a poke")
	}
}
