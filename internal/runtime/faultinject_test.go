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

// waitQuiesced waits, on a barrier that is down, for the resend sweeper to
// exit and for every scheduler turn in flight to end (Barrier.quiesce,
// as Stop does). Every later turn sees the barrier down and touches
// nothing, so white-box tests may touch proc state and channels without
// racing one.
func waitQuiesced(t *testing.T, b *Barrier) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		b.quiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the barrier did not quiesce")
	}
}

// Halt quiesces the ring: the sweeper exits and the turns stop instead of
// retransmitting state forever into a barrier that can never complete.
func TestHaltQuiescesRing(t *testing.T) {
	b, err := New(Config{Participants: 3, Resend: 50 * time.Microsecond, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	// Let the ring exchange some traffic, then halt.
	time.Sleep(2 * time.Millisecond)
	b.Halt()
	waitQuiesced(t, b)

	// With the sweeper gone and every turn a no-op, the send counter must
	// be frozen.
	before := b.Stats().Sends
	time.Sleep(5 * time.Millisecond)
	if after := b.Stats().Sends; after != before {
		t.Errorf("ring still transmitting after Halt: sends %d -> %d", before, after)
	}
	// Fail-safe semantics are preserved.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := b.Await(ctx, 0); !errors.Is(err, ErrHalted) {
		t.Errorf("Await after Halt returned %v, want ErrHalted", err)
	}
}

// A spurious frame enters through the victim's control channel on every
// placement, like the other fault kinds. Each call counts as spurious; with
// the scheduler frozen by Halt, every call beyond the control buffer's free
// capacity costs one drop; and a genuine frame waiting in a channel link's
// receive mailbox is still there afterwards — nothing but the neighbour
// writes into a link.
func TestSpuriousEntersThroughControl(t *testing.T) {
	const n, victim, extra = 4, 1, 3
	for _, pl := range placements(t, n, 1, 32) {
		t.Run(pl.name, func(t *testing.T) {
			b, err := New(pl.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Stop()
			b.Halt()
			waitQuiesced(t, b)

			ln := b.lanes[0]
			var mailbox chan Message // the upstream mailbox of the victim scheduler's channel link
			if s := ln.gates[victim].s; s.link != nil {
				mailbox = s.link.(*chanLink).from
			}
			if (pl.cfg.LaneTransports != nil) != (mailbox != nil) {
				t.Fatalf("channel link found = %v on placement %s", mailbox != nil, pl.name)
			}
			genuine := Message{SN: 2, CP: core.Execute, PH: 1}
			genuine.Sum = genuine.Checksum()
			if mailbox != nil {
				for len(mailbox) > 0 {
					<-mailbox
				}
				mailbox <- genuine
			}

			ctrl := ln.gates[victim].s.ctrl
			calls := cap(ctrl) - len(ctrl) + extra
			before := b.Stats()
			for k := 0; k < calls; k++ {
				b.InjectSpurious(victim, int64(12345+k))
			}
			after := b.Stats()
			if got := after.Spurious - before.Spurious; got != int64(calls) {
				t.Errorf("Spurious rose by %d, want %d", got, calls)
			}
			if got := after.Drops - before.Drops; got != extra {
				t.Errorf("Drops rose by %d, want %d (the injections a full control buffer turned away)", got, extra)
			}
			if len(ctrl) != cap(ctrl) {
				t.Errorf("control buffer holds %d of %d", len(ctrl), cap(ctrl))
			}
			if mailbox != nil {
				if len(mailbox) != 1 || <-mailbox != genuine {
					t.Error("the genuine frame in the receive mailbox was displaced")
				}
			}
		})
	}
}

// Reset and Scramble never block the caller, even when a process's control
// buffer is full; overflow is accounted in DroppedInjections.
func TestInjectionNonBlocking(t *testing.T) {
	const n = 3
	b, err := New(Config{Participants: n, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	// Freeze the ring so the ctrl buffers only fill.
	b.Halt()
	waitQuiesced(t, b)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4*(n+4); i++ {
			b.Reset(1)
			b.Scramble(1, int64(i))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fault injection blocked on a full control buffer")
	}
	if got := b.Stats().DroppedInjections; got == 0 {
		t.Error("overflowing injections were not counted as dropped")
	}
	// Out-of-range injections are ignored, not panics.
	b.Reset(-1)
	b.Reset(n)
	b.Scramble(99, 1)
}

// A fault can teleport a process's protocol state straight into an
// executing control position without the begin that re-arms the work gate;
// the completion transition must then reconcile with the waiting
// participant (via ErrReset) instead of deadlocking against it. Regression
// for a wedge found by the conformance fuzzer:
//
//	runtime:n=4:ph=3:seed=1:sched=random:loss=0.05:corrupt=0.05:ops=s,u0:2050257992909156333
//
// whose scramble left proc 0 at own (4 execute 1), predecessor copy
// (1 ready 0), successor marker 6. A scramble now draws triple by triple
// (own, then each cell) where it drew field by field, so the seed below is
// the one that lands on that same state.
func TestScrambleTeleportWedgeRecovers(t *testing.T) {
	const n = 4
	for attempt := 0; attempt < 10; attempt++ {
		b, err := New(Config{Participants: n, NPhases: 3, Resend: 50 * time.Microsecond,
			LossRate: 0.05, CorruptRate: 0.05, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var passes [n]atomic.Int64
		var wg sync.WaitGroup
		for id := 0; id < n; id++ {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := b.Await(ctx, id)
					if err == nil {
						passes[id].Add(1)
					} else if !errors.Is(err, ErrReset) {
						return
					}
				}
			}()
		}
		time.Sleep(200 * time.Microsecond)
		b.Scramble(0, 155468)

		deadline := time.Now().Add(20 * time.Second)
		for id := 0; id < n; id++ {
			for passes[id].Load() < 5 {
				if time.Now().After(deadline) {
					t.Fatalf("attempt %d: worker %d wedged after scramble", attempt, id)
				}
				time.Sleep(time.Millisecond)
			}
		}
		cancel()
		wg.Wait()
		b.Stop()
	}
}

// Combined message loss, corruption, detectable resets and undetectable
// scrambles, end-to-end against the specification checker: after the chaos
// stops, the observable event trace must contain a suffix that satisfies
// the barrier specification with fresh successful barriers (stabilizing
// tolerance), and every participant must keep passing. Run with -race.
func TestCombinedFaultChaosAgainstSpec(t *testing.T) {
	const (
		n       = 4
		nPhases = 3
	)
	var (
		mu    sync.Mutex
		trace []core.Event
	)
	b, err := New(Config{
		Participants: n,
		NPhases:      nPhases,
		Resend:       50 * time.Microsecond,
		LossRate:     0.1,
		CorruptRate:  0.1,
		Seed:         34,
		EventSink: func(e core.Event) {
			mu.Lock()
			trace = append(trace, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var passes [n]atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := b.Await(ctx, id)
				if err == nil {
					passes[id].Add(1)
				} else if !errors.Is(err, ErrReset) {
					return
				}
			}
		}()
	}

	// Chaos: interleave resets, scrambles and spurious messages on top of
	// the configured message loss and corruption.
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0:
			b.Reset(i % n)
		case 1:
			b.InjectSpurious((i+1)%n, int64(i))
		case 2:
			b.Scramble((i+2)%n, int64(1000+i))
		case 3:
			// Let the ring breathe between fault bursts.
		}
		time.Sleep(500 * time.Microsecond)
	}

	// Liveness: every participant gains 5 fresh passes after faults stop.
	var base [n]int64
	for id := range base {
		base[id] = passes[id].Load()
	}
	deadline := time.Now().Add(30 * time.Second)
	for id := 0; id < n; id++ {
		for passes[id].Load() < base[id]+5 {
			if time.Now().After(deadline) {
				StuckFatalf(t, []*Barrier{b}, "worker %d made no progress after chaos stopped", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	wg.Wait()
	b.Stop()

	// Stabilization: the trace ends in a spec-satisfying suffix.
	mu.Lock()
	defer mu.Unlock()
	start, ok := core.SuffixSatisfying(trace, n, nPhases, 3)
	if !ok {
		t.Fatalf("no stabilizing suffix in %d-event trace after combined faults", len(trace))
	}
	t.Logf("stabilized: suffix of %d/%d events satisfies the spec", len(trace)-start, len(trace))

	// Sanity: the ring actually exercised the fault paths.
	st := b.Stats()
	if st.Drops == 0 || st.Spurious == 0 {
		t.Errorf("chaos did not exercise fault paths: %+v", st)
	}
}
