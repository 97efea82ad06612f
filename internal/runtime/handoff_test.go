package runtime

// The participant↔scheduler handoff: a parked Leave waits on its own wake
// channel only, so Halt and Stop must be delivered to it (Barrier.wakeAll)
// — to every parked Leave, on every placement, without ever costing a
// participant a pass that was already in its buffer.

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

// parkedInLeave counts the goroutines blocked in Leave's select, from a
// dump of all stacks: the park has no other observable side.
func parkedInLeave() int {
	buf := make([]byte, 1<<20)
	buf = buf[:goruntime.Stack(buf, true)]
	parked := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		head, _, _ := bytes.Cut(g, []byte("\n"))
		if bytes.Contains(head, []byte("[select")) && bytes.Contains(g, []byte(".(*Barrier).Leave(")) {
			parked++
		}
	}
	return parked
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
// goes down is not displaced by the poke. Leave returns the phase, once;
// the Await after it reports the barrier down.
func TestPokeNeverDisplacesResult(t *testing.T) {
	for _, dc := range downCases {
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			b, err := New(Config{Participants: 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Stop()
			ctx := context.Background()
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
			dc.down(b)

			if ph, err := b.Leave(ctx, 0); err != nil || ph != 1 {
				t.Fatalf("Leave returned (%d, %v), want the buffered pass into phase 1", ph, err)
			}
			if _, err := b.Await(ctx, 0); !errors.Is(err, dc.want) {
				t.Errorf("the next Await returned %v, want %v", err, dc.want)
			}
		})
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
