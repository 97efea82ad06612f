package runtime

// One turn per pass (sched.arrive, sched.due): on a scheduler hosting more
// than one member, an arrival runs the scheduler's turn only when every
// hosted member has an arrival outstanding — no pass completes before that
// — or while a hosted gate holds an ErrReset, which its arrival gets at
// once. Control messages and link input still run turns that take every
// posted arrival. Each row pins one part of that rule with the resend
// sweeper effectively off, so only the row's own calls post work.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/topo"
)

// enterAll enters the given members one after another on the test's
// goroutine.
func enterAll(t *testing.T, ctx context.Context, b *Barrier, ids ...int) {
	t.Helper()
	for _, id := range ids {
		if err := b.Enter(ctx, id); err != nil {
			t.Fatalf("Enter(%d): %v", id, err)
		}
	}
}

// upTo returns 0, 1, …, n-1.
func upTo(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// buffered reports how many of lane li's gates hold a result or poke in
// their wake buffer.
func buffered(b *Barrier, li int) int {
	k := 0
	for _, g := range b.lanes[li].gates {
		if g != nil && len(g.wake) == 1 {
			k++
		}
	}
	return k
}

// leaveAll collects one buffered or coming result per member, each a pass.
func leaveAll(t *testing.T, ctx context.Context, b *Barrier) {
	t.Helper()
	for id := 0; id < b.n; id++ {
		if _, err := b.Leave(ctx, id); err != nil {
			t.Errorf("Leave(%d) = %v, want a pass", id, err)
		}
	}
}

// quietTurns waits until no turn has run for three looks 10 ms apart and
// no scheduler holds posted work, and returns the turn count: a
// transport's channel links run their hooks on goroutines of their own,
// which may still be answering New's priming turns.
func quietTurns(t *testing.T, b *Barrier) int64 {
	t.Helper()
	last, still := b.Stats().Turns, 0
	waitFor(t, "the schedulers to go quiet", func() bool {
		time.Sleep(10 * time.Millisecond)
		now := b.Stats().Turns
		if now != last {
			last, still = now, 0
			return false
		}
		if still++; still < 3 {
			return false
		}
		for _, ln := range b.lanes {
			for _, s := range ln.scheds {
				if s.baton.Load() || s.posted() {
					return false
				}
			}
		}
		return true
	})
	return last
}

func TestArrivalTurns(t *testing.T) {
	topologies := []struct {
		name string
		topo Topology
	}{{"ring", TopologyRing}, {"tree", TopologyTree}}
	newOne := func(t *testing.T, topology Topology, n int) *Barrier {
		t.Helper()
		b, err := New(Config{Participants: n, Seed: 7, Resend: time.Hour, Topology: topology})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Stop)
		return b
	}
	for _, tp := range topologies {
		// 31 arrivals on a 32-member scheduler cannot complete a pass, so
		// they run no turn and send nothing; the 32nd runs the pass's one
		// turn and returns with every participant's result buffered.
		t.Run(tp.name+"/the arrival that completes the roster runs the one turn", func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			b := newOne(t, tp.topo, 32)
			before := b.Stats()
			enterAll(t, ctx, b, upTo(31)...)
			if st := b.Stats(); st.Turns != before.Turns || st.Sends != before.Sends {
				t.Fatalf("31 of 32 arrivals ran %d turns and %d sends, want none", st.Turns-before.Turns, st.Sends-before.Sends)
			}
			if buffered(b, 0) != 0 {
				t.Fatal("a result was delivered before the roster was complete")
			}
			enterAll(t, ctx, b, 31)
			if got := buffered(b, 0); got != 32 {
				t.Fatalf("the 32nd Enter returned with %d results buffered, want 32", got)
			}
			if got := b.Stats().Turns - before.Turns; got != 1 {
				t.Errorf("the pass ran %d turns, want 1", got)
			}
			leaveAll(t, ctx, b)
		})

		// A Reset after 31 arrivals is a control message: its turn takes the
		// deferred arrivals, the victim's among them, and answers the victim
		// with ErrReset. The 32nd arrival then leaves the roster one short,
		// and the victim's redo completes the pass.
		t.Run(tp.name+"/a control turn takes the deferred arrivals", func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			b := newOne(t, tp.topo, 32)
			s := b.lanes[0].scheds[0]
			const victim = 7
			enterAll(t, ctx, b, upTo(31)...)
			turns := b.Stats().Turns
			b.Reset(victim)
			if got := b.Stats().Turns - turns; got != 1 {
				t.Errorf("the Reset ran %d turns, want 1", got)
			}
			for i := range s.arrivals {
				if s.arrivals[i].Load() != 0 {
					t.Fatal("the Reset's turn left deferred arrivals posted")
				}
			}
			if _, err := b.Leave(ctx, victim); !errors.Is(err, ErrReset) {
				t.Fatalf("Leave(%d) = %v, want ErrReset", victim, err)
			}
			turns = b.Stats().Turns
			enterAll(t, ctx, b, 31)
			if got := b.Stats().Turns - turns; got != 0 {
				t.Errorf("the 32nd arrival ran %d turns with the victim's redo outstanding, want 0", got)
			}
			enterAll(t, ctx, b, victim)
			leaveAll(t, ctx, b)
			if st := b.Stats(); st.Resets != 1 || st.Passes != 32 {
				t.Errorf("Stats: %d resets and %d passes, want 1 and 32", st.Resets, st.Passes)
			}
		})

		// A Reset of a member that has not arrived stores its ErrReset. Its
		// arrival runs a turn of its own and is answered at once, while the
		// other 31 are still out.
		t.Run(tp.name+"/a victim under a stored ErrReset gets it at its own arrival", func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			b := newOne(t, tp.topo, 32)
			s := b.lanes[0].scheds[0]
			const victim = 3
			b.Reset(victim)
			if s.errsHeld.Load() != 1 {
				t.Fatalf("errsHeld = %d after a Reset of a working member, want 1", s.errsHeld.Load())
			}
			enterAll(t, ctx, b, victim)
			if _, err := b.Leave(ctx, victim); !errors.Is(err, ErrReset) {
				t.Fatalf("Leave(%d) = %v, want ErrReset at its own arrival", victim, err)
			}
			if s.errsHeld.Load() != 0 {
				t.Errorf("errsHeld = %d after the error was delivered, want 0", s.errsHeld.Load())
			}
			enterAll(t, ctx, b, upTo(32)...)
			leaveAll(t, ctx, b)
			if st := b.Stats(); st.Resets != 1 || st.Passes != 32 {
				t.Errorf("Stats: %d resets and %d passes, want 1 and 32", st.Resets, st.Passes)
			}
		})
	}

	// With Depth 2 every lane is a scheduler of the whole roster: the
	// arrival that completes a lane's roster runs that lane's one turn, so
	// the last participant's Enter runs two, one per lane.
	t.Run("depth 2 on one scheduler per lane", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b, err := New(Config{Participants: 4, Depth: 2, Seed: 7, Resend: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Stop()
		before := b.Stats().Turns
		enterAll(t, ctx, b, 0, 1, 2)
		if got := b.Stats().Turns - before; got != 0 {
			t.Fatalf("3 of 4 arrivals on each lane ran %d turns, want 0", got)
		}
		enterAll(t, ctx, b, 3)
		if got := b.Stats().Turns - before; got != 2 {
			t.Errorf("completing both lanes' rosters ran %d turns, want 2", got)
		}
		for li := range b.lanes {
			if got := buffered(b, li); got != 4 {
				t.Errorf("lane %d holds %d results, want 4", li, got)
			}
		}
		awaitRounds(t, ctx, b, upTo(4), 50)
	})

	// A hybrid host of two members over a channel transport: one member's
	// arrival leaves its host's roster one short and is not taken; its
	// partner's completes the roster, and the pass crosses the link.
	t.Run("a 2-member hybrid host over a chan transport", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hosts := [][]int{{0, 1}, {2, 3}}
		hy, err := topo.NewHybridTree(hosts, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{Participants: 4, Seed: 7, Resend: time.Hour, Topology: TopologyHybrid,
			Hosts: hosts, Transport: NewChanTreeTransport(hy.HostTree.Parent)})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Stop()
		turns := quietTurns(t, b)
		enterAll(t, ctx, b, 0, 2)
		if got := b.Stats().Turns - turns; got != 0 {
			t.Fatalf("one arrival per host ran %d turns, want 0", got)
		}
		for _, id := range []int{0, 2} {
			if s := b.lanes[0].gates[id].s; s.arrivals[0].Load() == 0 {
				t.Fatalf("member %d's arrival was taken with its host's roster one short", id)
			}
		}
		enterAll(t, ctx, b, 1, 3)
		leaveAll(t, ctx, b)
		awaitRounds(t, ctx, b, upTo(4), 50)
	})
}

// awaitRounds has every listed participant Await rounds passes at once
// and fails on any error.
func awaitRounds(t *testing.T, ctx context.Context, b *Barrier, ids []int, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := b.Await(ctx, id); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Await: %v", err)
	}
}
