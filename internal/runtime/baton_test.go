package runtime

// The baton (sched.go): whoever posts work — the arrival that completes
// its scheduler's roster, a control message, link input — runs the
// scheduler's turn if it gets the baton, and otherwise leaves the work to
// the holder. Each row drives one rule of that arrangement: (a) every
// release is followed by a look for posted work; (b) control messages are
// applied one at a time, each drained before the next; (c) an arrival
// posted after an injection returned is not stepped before the fault is
// applied; (d) the link's channels are polled on every turn; (e) a turn on
// a down barrier delivers nothing; (f) Stop returns only once the turn in
// flight has ended. All rows run a two-member ring with the resend sweeper
// effectively off, so nothing but the rule under test can move posted
// work: on one scheduler, or — the link rows — one scheduler per member
// over hookLinks, whose input only the test posts. On one scheduler an
// arrival runs a turn only if it completes the two-member roster, so the
// rows that need an arrival's turn have member 1 enter first.
// TestArrivalTurns holds that rule itself.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// batonRig is one row's barrier, its member 0's scheduler, and the row's
// event hook (the barrier's EventSink forwards to it once the row has set
// it).
type batonRig struct {
	b    *Barrier
	s    *sched
	hook atomic.Pointer[func(core.Event)]
}

// newBatonRig builds the row's barrier: over tr if it is not nil, else on
// one scheduler. r.s is member 0's scheduler either way.
func newBatonRig(t *testing.T, tr Transport) *batonRig {
	t.Helper()
	r := &batonRig{}
	b, err := New(Config{Participants: 2, Seed: 5, Resend: time.Hour, Transport: tr,
		EventSink: func(e core.Event) {
			if h := r.hook.Load(); h != nil {
				(*h)(e)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	r.b, r.s = b, b.lanes[0].scheds[0]
	return r
}

// waitFor polls cond until it holds; the rows use it only for states that
// have no event of their own to wait on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// hold takes member 0's scheduler's baton for the test, the way a turn
// would.
func (r *batonRig) hold(t *testing.T) {
	t.Helper()
	waitFor(t, "the baton to be free", func() bool { return r.s.baton.CompareAndSwap(false, true) })
}

// release frees the baton the test holds the way a turn's holder does:
// sched.release, which also hands a waiting quiesce its token, then a look
// for posted work (assist's loop).
func (r *batonRig) release() {
	r.s.release()
	r.s.assist()
}

// turnHeld has member 1 enter and member 0 await the pass, so that member
// 0's arrival completes the roster and runs the pass's turn on the Await's
// own goroutine; the turn stops inside at member 0's completion, holding
// the baton, until proceed is closed. (Over a link each member is a roster
// of its own: member 1's Enter runs its own turn, and member 0's pass then
// needs link input only the row can post, so a row that posts none cancels
// the Await with ctx.)
func (r *batonRig) turnHeld(t *testing.T, ctx context.Context) (proceed chan struct{}, awaited chan error) {
	t.Helper()
	if err := r.b.Enter(ctx, 1); err != nil {
		t.Fatalf("Enter(1): %v", err)
	}
	inTurn, proceed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func(e core.Event) {
		if e.Kind == core.EvComplete && e.Proc == 0 {
			once.Do(func() {
				close(inTurn)
				<-proceed
			})
		}
	}
	waitFor(t, "the baton to be free", func() bool { return !r.s.baton.Load() })
	r.hook.Store(&hook)
	awaited = make(chan error, 1)
	go func() {
		_, err := r.b.Await(ctx, 0)
		awaited <- err
	}()
	select {
	case <-inTurn:
	case <-ctx.Done():
		t.Fatal("member 0's turn never completed its phase")
	}
	return proceed, awaited
}

// hookLink is a ring link that tells its scheduler of input, the way the
// mux's groups do: whoever posts a frame to its Inbox calls the hook
// afterwards, on its own goroutine and never from inside a Send. Nothing
// posts but the row: the link's sends only record the sender's register,
// which the row may then deliver as the reader of a wire would.
type hookLink struct {
	Inbox
	sent atomic.Pointer[Message] // the last state frame this member sent
}

type hookTransport []*hookLink

func newHookTransport(n int) hookTransport {
	t := make(hookTransport, n)
	for i := range t {
		t[i] = new(hookLink)
		t[i].InitRing()
	}
	return t
}

func (t hookTransport) Open(id int) (Link, error) { return t[id], nil }
func (t hookTransport) Close() error              { return nil }

func (l *hookLink) SendState(m Message)   { l.sent.Store(&m) }
func (l *hookLink) SendTop()              {}
func (l *hookLink) SendDown(int, Message) {}
func (l *hookLink) SendUp(UpMessage)      {}
func (l *hookLink) Close() error          { l.Notify(nil); return nil }

// deliver posts m to the link's mailbox and calls the hook, on a goroutine
// of its own — the reader of a wire — and returns once the hook has.
func (l *hookLink) deliver(m Message) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.PostState(m)
		if h := l.Hook(); h != nil {
			h()
		}
	}()
	<-done
}

// upstream returns the state frame member 1 — member 0's predecessor —
// last sent, once it has announced.
func upstream(t *testing.T, tr hookTransport) Message {
	t.Helper()
	waitFor(t, "member 1 to announce", func() bool { return tr[1].sent.Load() != nil })
	return *tr[1].sent.Load()
}

// results drains g's wake buffer and returns what it held, pokes dropped.
func results(g *gate) (rs []awaitResult) {
	for {
		select {
		case r := <-g.wake:
			if r.ticket != pokeTicket {
				rs = append(rs, r)
			}
		default:
			return rs
		}
	}
}

// sendsAtResets returns, in order, the send count at each of the next
// EvResets, of whichever member: call it with the first wanted.
func (r *batonRig) sendsAtResets(ctx context.Context) func(t *testing.T) int64 {
	at := make(chan int64, 8)
	hook := func(e core.Event) {
		if e.Kind == core.EvReset {
			at <- r.b.statSends.Load()
		}
	}
	r.hook.Store(&hook)
	return func(t *testing.T) int64 {
		t.Helper()
		select {
		case n := <-at:
			return n
		case <-ctx.Done():
			t.Fatal("a Reset was never applied")
			return 0
		}
	}
}

func TestBaton(t *testing.T) {
	rows := []struct {
		name   string
		link   bool                   // the row's barrier is a ring over a hookTransport
		before func(tr hookTransport) // run before New, on the row's transport
		run    func(t *testing.T, ctx context.Context, r *batonRig, tr hookTransport)
	}{{
		// (a) Member 0 arrives, which is no work yet, and member 1's
		// arrival completes the roster while the test holds the baton the
		// way a turn does, so its CAS fails and its Enter returns. Only the
		// holder's look after releasing takes the arrivals: no other
		// goroutine runs the scheduler's turns, and without the look both
		// Leaves would wait out the test's deadline.
		name: "arrival posted under a held baton is taken by the holder's re-check",
		run: func(t *testing.T, ctx context.Context, r *batonRig, _ hookTransport) {
			r.hold(t)
			if err := r.b.Enter(ctx, 0); err != nil {
				t.Fatalf("Enter(0): %v", err)
			}
			if r.s.posted() {
				t.Fatal("member 0's arrival is work before the roster is complete")
			}
			if err := r.b.Enter(ctx, 1); err != nil {
				t.Fatalf("Enter(1) under a held baton: %v", err)
			}
			if !r.s.posted() {
				t.Fatal("the arrivals were taken while the test held the baton")
			}
			r.release()
			for id := 0; id < 2; id++ {
				if _, err := r.b.Leave(ctx, id); err != nil {
					t.Fatalf("Leave(%d): %v — the arrivals were left posted", id, err)
				}
			}
		},
	}, {
		// (a) The same for link input. Member 0's turn holds the baton when
		// the wire's reader posts its predecessor's frame and calls the
		// hook, whose CAS fails. Only the holder's look after releasing
		// receives the frame; without it the frame would wait for the next
		// post.
		name: "link input posted under a held baton is taken by the holder's re-check",
		link: true,
		run: func(t *testing.T, ctx context.Context, r *batonRig, tr hookTransport) {
			m := upstream(t, tr)
			actx, acancel := context.WithCancel(ctx)
			defer acancel()
			proceed, _ := r.turnHeld(t, actx)
			tr[0].deliver(m)
			if len(tr[0].from) != 1 {
				t.Fatal("the frame was received while member 0's turn held the baton")
			}
			close(proceed)
			waitFor(t, "the holder to receive the frame", func() bool { return len(tr[0].from) == 0 && !r.s.posted() })
		},
	}, {
		// (a) The same for a control message: the Reset of member 1 finds
		// the baton held, its injector returns, and only the holder's look
		// after releasing applies it.
		name: "a control message posted under a held baton is taken by the holder's re-check",
		run: func(t *testing.T, ctx context.Context, r *batonRig, _ hookTransport) {
			actx, acancel := context.WithCancel(ctx)
			defer acancel()
			proceed, _ := r.turnHeld(t, actx)
			r.b.Reset(1)
			if len(r.s.ctrl) != 1 {
				t.Fatal("the Reset was applied while member 0's turn held the baton")
			}
			close(proceed)
			waitFor(t, "the holder to apply the Reset", func() bool { return len(r.s.ctrl) == 0 && !r.s.posted() })
		},
	}, {
		// (b) Two Resets are queued while the test holds the baton. A drain
		// between them steps the reset member, whose announcement counts a
		// send: the second Reset is applied with more sends behind it than
		// the first. Applied in one batch, both would see the same count.
		name: "two Resets queued behind a held baton are applied with a drain between them",
		run: func(t *testing.T, ctx context.Context, r *batonRig, _ hookTransport) {
			r.hold(t)
			next := r.sendsAtResets(ctx)
			r.b.Reset(0)
			r.b.Reset(1)
			if len(r.s.ctrl) != 2 {
				t.Fatalf("control channel holds %d, want both Resets", len(r.s.ctrl))
			}
			r.release()
			first, second := next(t), next(t)
			if second <= first {
				t.Errorf("sends at the two Resets: %d, %d — no drain between them", first, second)
			}
		},
	}, {
		// (c) Member 1 has arrived. A Reset of member 0 is injected and
		// returns, then member 0's arrival completes the roster, both
		// behind a held baton. The turn that takes them must apply the
		// Reset before it steps the arrivals: at the EvReset nothing has
		// been sent since the arrival, and the arrival meets the Reset's
		// ErrReset rather than completing the pass.
		name: "an arrival posted after an injection returned is not stepped before the fault",
		run: func(t *testing.T, ctx context.Context, r *batonRig, _ hookTransport) {
			if err := r.b.Enter(ctx, 1); err != nil {
				t.Fatalf("Enter(1): %v", err)
			}
			r.hold(t)
			r.b.Reset(0)
			if err := r.b.Enter(ctx, 0); err != nil {
				t.Fatalf("Enter(0): %v", err)
			}
			next := r.sendsAtResets(ctx)
			before := r.b.statSends.Load()
			r.release()
			if sends := next(t); sends != before {
				t.Fatalf("%d sends before the Reset was applied: the arrival posted after it was stepped first", sends-before)
			}
			if _, err := r.b.Leave(ctx, 0); !errors.Is(err, ErrReset) {
				t.Errorf("Leave(0) = %v, want ErrReset from the Reset applied before the arrival", err)
			}
		},
	}, {
		// (c) The same for link input: a frame the wire's reader posts
		// after a Reset returned is received after the Reset is applied —
		// at the EvReset the frame is still in the mailbox — though both
		// wait behind one held baton and are taken by one turn.
		name: "link input waits for a pending control message",
		link: true,
		run: func(t *testing.T, ctx context.Context, r *batonRig, tr hookTransport) {
			m := upstream(t, tr)
			bufferedAtReset := make(chan int, 1)
			hook := func(e core.Event) {
				if e.Kind == core.EvReset && e.Proc == 0 {
					select {
					case bufferedAtReset <- len(tr[0].from):
					default:
					}
				}
			}
			r.hook.Store(&hook)
			r.hold(t)
			r.b.Reset(0)
			tr[0].deliver(m)
			if len(tr[0].from) != 1 {
				t.Fatal("the frame was received while the test held the baton")
			}
			r.release()
			select {
			case n := <-bufferedAtReset:
				if n != 1 {
					t.Error("the frame posted after the Reset returned was received before the Reset was applied")
				}
			case <-ctx.Done():
				t.Fatal("the Reset was never applied")
			}
			waitFor(t, "the holder to receive the frame", func() bool { return len(tr[0].from) == 0 && !r.s.posted() })
		},
	}, {
		// (d) A frame waits in member 0's mailbox from before New, so no
		// hook was called for it and no input is marked. The priming turn
		// polls the link anyway and receives it; a turn that polled only
		// on the input mark would leave it for the next sweep, an hour
		// away.
		name: "a frame posted before Notify is received by the priming turn",
		link: true,
		before: func(tr hookTransport) {
			m := Message{SN: 1, CP: core.Execute}
			m.Sum = m.Checksum()
			tr[0].from <- m
		},
		run: func(t *testing.T, ctx context.Context, r *batonRig, tr hookTransport) {
			if len(tr[0].from) != 0 {
				t.Error("the frame posted before Notify is still in the mailbox after New")
			}
		},
	}, {
		// (e) Member 1 has arrived; member 0's arrival completes the roster
		// and would complete the pass. It is posted the way enterGate posts
		// it, but only after Halt, and the turn its arrival runs must see
		// the barrier down.
		name: "a turn on a down barrier delivers nothing",
		run: func(t *testing.T, ctx context.Context, r *batonRig, _ hookTransport) {
			if err := r.b.Enter(ctx, 1); err != nil {
				t.Fatalf("Enter(1): %v", err)
			}
			r.b.Halt()
			waitQuiesced(t, r.b)
			g := r.b.lanes[0].gates[0]
			g.arrival.Store(1)
			r.s.arrive(0)
			for id, g := range r.b.lanes[0].gates {
				if rs := results(g); len(rs) != 0 {
					t.Errorf("member %d was delivered %+v by a turn on a halted barrier", id, rs)
				}
			}
			if !r.s.posted() {
				t.Error("the turn took the arrival on a halted barrier")
			}
		},
	}, {
		// (f) Member 0's turn holds the baton inside its pass when Stop is
		// called. Stop closes its channel at once but returns only after
		// the turn has ended, so no counter moves once it has returned.
		name: "Stop returns only after the turn in flight",
		run: func(t *testing.T, ctx context.Context, r *batonRig, _ hookTransport) {
			actx, acancel := context.WithCancel(ctx)
			defer acancel()
			proceed, _ := r.turnHeld(t, actx)
			stopped := make(chan struct{})
			go func() {
				r.b.Stop()
				close(stopped)
			}()
			waitFor(t, "Stop to close its channel", func() bool { return r.b.down() != nil })
			select {
			case <-stopped:
				t.Fatal("Stop returned while a turn held the baton")
			case <-time.After(20 * time.Millisecond):
			}
			close(proceed)
			select {
			case <-stopped:
			case <-ctx.Done():
				t.Fatal("Stop did not return after the turn ended")
			}
			if r.s.baton.Load() {
				t.Error("Stop kept the baton")
			}
		},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			base := goruntime.NumGoroutine()
			var (
				tr    hookTransport
				trans Transport // nil, not a nil hookTransport, for the one-scheduler rows
			)
			if row.link {
				tr = newHookTransport(2)
				trans = tr
			}
			if row.before != nil {
				row.before(tr)
			}
			r := newBatonRig(t, trans)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			row.run(t, ctx, r, tr)
			r.b.Stop()
			waitFor(t, "the barrier's goroutines to exit", func() bool { return goruntime.NumGoroutine() <= base })
		})
	}
}

// A scheduler is no goroutine: a barrier on one scheduler and one with a
// scheduler per member over channel links each run exactly one goroutine
// in this package's code, the resend sweeper, and Stop takes it away
// again. (A channel link starts a goroutine to run its hook after a post
// unless one is already pending, and it exits with its turn; the ring here
// goes quiet once primed.) The goroutines are
// told by their frames, not counted against a base: a goroutine an earlier
// test left exiting would shift a base.
func TestOneGoroutinePerBarrier(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   func() Transport
	}{
		{"one scheduler", func() Transport { return nil }},
		{"chan transport", func() Transport { return NewChanTransport(2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newBatonRig(t, tc.tr())
			// Until the sweeper first runs, its goroutine shows only New's
			// wrapper of the go statement, not sweepResends.
			waitFor(t, "the barrier to run exactly one goroutine, the sweeper", func() bool {
				return packageGoroutines() == 1 && goroutinesIn("(*Barrier).sweepResends") == 1
			})
			r.b.Stop()
			waitFor(t, "Stop to end the barrier's goroutines", func() bool { return packageGoroutines() == 0 })
		})
	}
}

// packageGoroutines counts the goroutines with a frame in this package's
// non-test code.
func packageGoroutines() int {
	_, self, _, _ := goruntime.Caller(0)
	dir := []byte(filepath.Dir(self) + string(filepath.Separator))
	return goroutinesWhere(func(_, stack []byte) bool {
		for _, line := range bytes.Split(stack, []byte("\n")) {
			file, _, _ := bytes.Cut(bytes.TrimSpace(line), []byte(":"))
			if bytes.HasPrefix(file, dir) && !bytes.HasSuffix(file, []byte("_test.go")) {
				return true
			}
		}
		return false
	})
}
