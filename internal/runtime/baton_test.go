package runtime

// The baton hand-over between participants and the scheduler goroutine
// (sched.go): each row holds s.baton from the test, the way a participant's
// turn would, and drives one rule of the hand-over through it. All rows run
// a two-member ring with the resend sweeper effectively off, so nothing but
// the rule under test can move an arrival or wake the scheduler goroutine:
// on one scheduler, or — the link rows — one scheduler per member over
// hookLinks, whose input only the test posts.

import (
	"context"
	"errors"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// batonRig is one row's barrier, its one scheduler, and the row's event
// hook (the barrier's EventSink forwards to it once the row has set it).
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

// hold takes the baton once the scheduler goroutine has primed the members
// and released it at its idle transition.
func (r *batonRig) hold(t *testing.T) {
	t.Helper()
	waitFor(t, "the scheduler goroutine to release the baton", func() bool { return r.s.baton.CompareAndSwap(false, true) })
}

// resetInHand has the scheduler goroutine receive a Reset of member 0 while
// the test holds the baton, and waits until it asks for the baton (want).
func (r *batonRig) resetInHand(t *testing.T) {
	t.Helper()
	r.hold(t)
	r.b.Reset(0)
	waitFor(t, "the scheduler goroutine to want the baton", r.s.want.Load)
}

// wakeInHand has the scheduler goroutine woken by a bare nudge while the
// test holds the baton, so that it waits for the baton with no control
// message pending.
func (r *batonRig) wakeInHand(t *testing.T) {
	t.Helper()
	r.hold(t)
	offer(r.s.nudge, struct{}{})
	waitFor(t, "the scheduler goroutine to want the baton", r.s.want.Load)
}

// hookLink is a ring link that tells its scheduler of input, the way the
// mux's links do: whoever posts a frame to its mailbox calls the hook
// afterwards, on its own goroutine and never from inside a Send. Nothing
// posts but the row: the link's sends only record the sender's register,
// which the row may then deliver as the reader of a wire would.
type hookLink struct {
	state chan Message
	top   chan struct{}
	hook  atomic.Pointer[func()]
	sent  atomic.Pointer[Message] // the last state frame this member sent
}

type hookTransport []*hookLink

func newHookTransport(n int) hookTransport {
	t := make(hookTransport, n)
	for i := range t {
		t[i] = &hookLink{state: make(chan Message, 1), top: make(chan struct{}, 1)}
	}
	return t
}

func (t hookTransport) Open(id int) (Link, error) { return t[id], nil }
func (t hookTransport) Close() error              { return nil }

func (l *hookLink) SendState(m Message)   { l.sent.Store(&m) }
func (l *hookLink) SendTop()              {}
func (l *hookLink) State() <-chan Message { return l.state }
func (l *hookLink) Top() <-chan struct{}  { return l.top }
func (l *hookLink) Close() error          { l.hook.Store(nil); return nil }
func (l *hookLink) Notify(f func())       { l.hook.Store(&f) }

// deliver posts m to the link's mailbox and calls the hook, on a goroutine
// of its own — the reader of a wire — and returns once the hook has.
func (l *hookLink) deliver(m Message) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.state <- m
		if h := l.hook.Load(); h != nil {
			(*h)()
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

func TestBaton(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	rows := []struct {
		name string
		link bool // the row's barrier is a ring over a hookTransport
		run  func(t *testing.T, r *batonRig, tr hookTransport)
	}{{
		// Member 1 posts while member 0's turn holds the baton, so its
		// CAS fails and its Enter returns. Only the holder's look after
		// releasing takes that arrival: the scheduler goroutine is parked
		// with nothing to wake it, and without the look member 1's Leave
		// would wait out the test's deadline.
		name: "arrival posted under a held baton is taken by the holder's re-check",
		run: func(t *testing.T, r *batonRig, _ hookTransport) {
			inTurn, proceed := make(chan struct{}), make(chan struct{})
			hook := func(e core.Event) {
				if e.Kind == core.EvComplete && e.Proc == 0 {
					close(inTurn)
					<-proceed
				}
			}
			waitFor(t, "the scheduler goroutine to go idle", func() bool { return !r.s.baton.Load() })
			r.hook.Store(&hook)
			awaited := make(chan error, 1)
			go func() {
				_, err := r.b.Await(ctx, 0)
				awaited <- err
			}()
			select {
			case <-inTurn:
			case <-ctx.Done():
				t.Fatal("member 0's turn never completed its phase")
			}
			if err := r.b.Enter(ctx, 1); err != nil {
				t.Fatalf("Enter(1) under a held baton: %v", err)
			}
			if !r.s.posted() {
				t.Fatal("member 1's arrival was taken while member 0's turn held the baton")
			}
			close(proceed)
			if _, err := r.b.Leave(ctx, 1); err != nil {
				t.Fatalf("Leave(1): %v — its arrival was left posted", err)
			}
			if err := <-awaited; err != nil {
				t.Fatalf("Await(0): %v", err)
			}
		},
	}, {
		// The same for link input. Member 0's turn holds the baton when the
		// wire's reader posts its predecessor's frame and calls the hook,
		// whose CAS fails. The scheduler goroutine's park does not watch a
		// notifier link, so only the holder's look after releasing receives
		// the frame; without it the frame would wait for the next post.
		name: "link input posted under a held baton is taken by the holder's re-check",
		link: true,
		run: func(t *testing.T, r *batonRig, tr hookTransport) {
			m := upstream(t, tr)
			inTurn, proceed := make(chan struct{}), make(chan struct{})
			hook := func(e core.Event) {
				if e.Kind == core.EvComplete && e.Proc == 0 {
					close(inTurn)
					<-proceed
				}
			}
			waitFor(t, "the scheduler goroutine to go idle", func() bool { return !r.s.baton.Load() })
			r.hook.Store(&hook)
			actx, acancel := context.WithCancel(ctx)
			defer acancel()
			go r.b.Await(actx, 0) // the pass needs member 1: it is cancelled
			select {
			case <-inTurn:
			case <-ctx.Done():
				t.Fatal("member 0's turn never completed its phase")
			}
			tr[0].deliver(m)
			if len(tr[0].state) != 1 {
				t.Fatal("the frame was received while member 0's turn held the baton")
			}
			close(proceed)
			waitFor(t, "the holder to receive the frame", func() bool { return len(tr[0].state) == 0 && !r.s.posted() })
		},
	}, {
		// Link input that arrives while a control message is pending is
		// posted work like an arrival: the hook starts no turn, and the
		// scheduler goroutine receives the frame only after it has applied
		// the message — at the Reset the frame is still in the mailbox.
		name: "link input waits for a pending control message",
		link: true,
		run: func(t *testing.T, r *batonRig, tr hookTransport) {
			m := upstream(t, tr)
			bufferedAtReset := make(chan int, 1)
			hook := func(e core.Event) {
				if e.Kind == core.EvReset && e.Proc == 0 {
					bufferedAtReset <- len(tr[0].state)
				}
			}
			r.hook.Store(&hook)
			waitFor(t, "the scheduler goroutine to go idle", func() bool { return !r.s.baton.Load() })
			r.s.queued.Add(1) // a sender between its count and its send
			tr[0].deliver(m)
			if r.s.baton.Load() || len(tr[0].state) != 1 {
				t.Fatalf("the hook ran a turn with control input pending (baton=%v buffered=%d)", r.s.baton.Load(), len(tr[0].state))
			}
			if !offer(r.s.ctrl, ctrlMsg{id: 0, kind: ctrlReset}) {
				t.Fatal("control channel full")
			}
			select {
			case n := <-bufferedAtReset:
				if n != 1 {
					t.Error("the frame posted before the Reset was sent was received before it was applied")
				}
			case <-ctx.Done():
				t.Fatal("the Reset was never applied")
			}
			waitFor(t, "the scheduler goroutine to receive the frame", func() bool { return len(tr[0].state) == 0 && !r.s.posted() })
		},
	}, {
		// The scheduler goroutine holds a Reset it received while the test
		// held the baton. With want set, the baton is free and member 0
		// posts, yet no participant turn may start; the Reset is applied
		// first, so at its EvReset member 0 has no arrival, and the
		// arrival then meets the stored error.
		name: "a received control message sets want and goes before later arrivals",
		run: func(t *testing.T, r *batonRig, _ hookTransport) {
			waitingAtReset := make(chan bool, 1)
			g := r.b.lanes[0].gates[0]
			hook := func(e core.Event) {
				if e.Kind == core.EvReset && e.Proc == 0 {
					waitingAtReset <- g.appWaiting // under the baton: the scheduler goroutine's turn
				}
			}
			r.hook.Store(&hook)
			r.resetInHand(t)
			r.s.baton.Store(false) // free, but want is set: no nudge yet
			if err := r.b.Enter(ctx, 0); err != nil {
				t.Fatalf("Enter(0): %v", err)
			}
			if r.s.baton.Load() || !r.s.posted() {
				t.Fatalf("a participant started a turn while the scheduler goroutine wanted the baton (baton=%v posted=%v)",
					r.s.baton.Load(), r.s.posted())
			}
			r.s.want.Store(true) // the baton was released above without the hand-over: redo it
			r.s.release()
			select {
			case waiting := <-waitingAtReset:
				if waiting {
					t.Error("the arrival posted after the Reset was received was applied before it")
				}
			case <-ctx.Done():
				t.Fatal("the Reset was never applied")
			}
			if _, err := r.b.Leave(ctx, 0); !errors.Is(err, ErrReset) {
				t.Errorf("Leave(0) = %v, want ErrReset from the Reset applied before the arrival", err)
			}
		},
	}, {
		// The same for an input that is not a control message: woken by a
		// bare nudge, the scheduler goroutine has no message pending, and
		// want alone keeps a participant from starting a turn on the free
		// baton. Handed the baton, the goroutine takes the arrival itself.
		name: "want alone blocks participant turns",
		run: func(t *testing.T, r *batonRig, _ hookTransport) {
			r.wakeInHand(t)
			r.s.baton.Store(false) // free, but want is set: no nudge yet
			if err := r.b.Enter(ctx, 0); err != nil {
				t.Fatalf("Enter(0): %v", err)
			}
			if r.s.baton.Load() || !r.s.posted() {
				t.Fatalf("a participant started a turn while the scheduler goroutine wanted the baton (baton=%v posted=%v)",
					r.s.baton.Load(), r.s.posted())
			}
			r.s.release()
			waitFor(t, "the scheduler goroutine to take the arrival", func() bool { return !r.s.posted() })
		},
	}, {
		// A control message is pending from just before its send until it
		// is applied (sched.control). A participant that posts meanwhile
		// finds the baton free and still starts no turn: no pass may
		// complete on its arrival ahead of the fault, which is applied
		// first once it reaches the scheduler goroutine.
		name: "a participant leaves its arrival to the scheduler goroutine while control input is pending",
		run: func(t *testing.T, r *batonRig, _ hookTransport) {
			waitFor(t, "the scheduler goroutine to go idle", func() bool { return !r.s.baton.Load() })
			r.s.queued.Add(1) // a sender between its count and its send
			if err := r.b.Enter(ctx, 0); err != nil {
				t.Fatalf("Enter(0): %v", err)
			}
			if r.s.baton.Load() || !r.s.posted() {
				t.Fatalf("a participant ran a turn with control input pending (baton=%v posted=%v)", r.s.baton.Load(), r.s.posted())
			}
			if !offer(r.s.ctrl, ctrlMsg{id: 0, kind: ctrlReset}) {
				t.Fatal("control channel full")
			}
			if _, err := r.b.Leave(ctx, 0); !errors.Is(err, ErrReset) {
				t.Errorf("Leave(0) = %v, want ErrReset from the Reset applied before the arrival", err)
			}
		},
	}, {
		name: "Halt gets a scheduler goroutine waiting for the baton out",
		run: func(t *testing.T, r *batonRig, _ hookTransport) {
			r.resetInHand(t)
			r.b.Halt()
			waitQuiesced(t, r.b)
		},
	}, {
		name: "Stop gets a scheduler goroutine waiting for the baton out",
		run: func(t *testing.T, r *batonRig, _ hookTransport) {
			r.resetInHand(t)
			stopped := make(chan struct{})
			go func() { r.b.Stop(); close(stopped) }()
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Fatal("Stop did not return while the test held the baton")
			}
		},
	}, {
		// Member 1 has arrived; member 0's arrival would complete the pass.
		// It is posted the way enterGate posts it, but only after Halt, and
		// the turn that takes the baton must see the barrier down.
		name: "a turn on a down barrier delivers nothing",
		run: func(t *testing.T, r *batonRig, _ hookTransport) {
			if err := r.b.Enter(ctx, 1); err != nil {
				t.Fatalf("Enter(1): %v", err)
			}
			r.wakeInHand(t) // park the scheduler goroutine away from the baton
			r.b.Halt()
			waitQuiesced(t, r.b)
			g := r.b.lanes[0].gates[0]
			g.arrival.Store(1)
			r.s.post(0)
			r.s.baton.Store(false)
			r.s.assist()
			for id, g := range r.b.lanes[0].gates {
				if rs := results(g); len(rs) != 0 {
					t.Errorf("member %d was delivered %+v by a turn on a halted barrier", id, rs)
				}
			}
			if !r.s.posted() {
				t.Error("the turn took the arrival on a halted barrier")
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
			r := newBatonRig(t, trans)
			row.run(t, r, tr)
			r.b.Stop()
			waitFor(t, "the barrier's goroutines to exit", func() bool { return goruntime.NumGoroutine() <= base })
		})
	}
}
