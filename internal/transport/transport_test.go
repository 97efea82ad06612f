package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/tokenring"
	"repro/internal/topo"
)

// The single-group suite: every behaviour of the TCP transport is checked
// once, over each shape a deployment can declare — a ring, a binary-heap
// tree, and a parent vector that is not a heap — through the public
// constructors only.

// single is what the suite needs of a single-group transport: *TCP, of
// every shape.
type single interface {
	runtime.Transport
	Stats() TCPStats
	Digest() uint64
	BreakLinks(id int)
}

// shape is one row of the suite's table.
type shape struct {
	name   string
	n      int
	parent []int // nil: ring
	heap   bool  // parent is the binary heap NewLoopbackTree builds itself
	// acc accepts a connection from dialer (its lower-indexed neighbor);
	// stranger is a member that shares no edge with acc.
	acc, dialer, stranger int
}

var shapes = []shape{
	{name: "ring", n: 4, acc: 2, dialer: 1, stranger: 0},
	{name: "heap-tree", n: 7, parent: []int{-1, 0, 0, 1, 1, 2, 2}, heap: true, acc: 3, dialer: 1, stranger: 2},
	{name: "chain", n: 4, parent: []int{-1, 0, 1, 2}, acc: 2, dialer: 1, stranger: 0},
}

func forEachShape(t *testing.T, f func(t *testing.T, sh shape)) {
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) { f(t, sh) })
	}
}

// loopback builds the shape on pre-bound loopback listeners.
func (sh shape) loopback(t *testing.T, opts ...Option) single {
	t.Helper()
	var (
		tr  single
		err error
	)
	switch {
	case sh.parent == nil:
		tr, err = NewLoopbackRing(sh.n, opts...)
	case sh.heap:
		tr, err = NewLoopbackTree(sh.n, opts...)
	default:
		tr, err = NewLoopbackTreeParent(sh.parent, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// explicit builds the shape over the given addresses; nothing is bound
// until a member opens.
func (sh shape) explicit(t *testing.T, cfg TCPConfig) single {
	t.Helper()
	var (
		tr  single
		err error
	)
	if sh.parent == nil {
		tr, err = NewTCP(cfg)
	} else {
		tr, err = NewTCPTree(cfg, sh.parent)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// flow is one direction of one protocol edge, reduced to what the suite
// needs: post a frame stamped sn at member from, and take the stamp of the
// next frame arriving at member to (ok is false when nothing arrived
// within wait, or to is not open). A ⊤ marker has no payload, so a ⊤ flow
// reports the stamp it was last sent with.
type flow struct {
	name     string
	from, to int
	payload  bool
	send     func(sn int)
	recv     func(wait time.Duration) (sn int, ok bool)
}

// deployment is a transport with some of its members opened.
type deployment struct {
	tr    single
	links []runtime.Link
	flows []flow
}

func stateMsg(sn int) runtime.Message {
	m := runtime.Message{SN: tokenring.SN(sn), CP: core.Execute, PH: sn % 3}
	m.Sum = m.Checksum()
	return m
}

func upMsg(child, sn int) runtime.UpMessage {
	m := runtime.UpMessage{Child: child, SN: tokenring.SN(sn), CP: core.Success, PH: sn % 3,
		AckSN: tokenring.SN(sn), AckCP: core.Success, AckPH: sn % 3}
	m.Sum = m.Checksum()
	return m
}

// take waits up to wait for a frame on ch that stamp recognizes as the
// flow's own; a nil ch (member not open) just times out.
func take[T any](ch <-chan T, wait time.Duration, stamp func(T) (sn int, mine bool)) (int, bool) {
	deadline := time.After(wait)
	for {
		select {
		case m := <-ch:
			if sn, mine := stamp(m); mine {
				return sn, true
			}
		case <-deadline:
			return 0, false
		}
	}
}

// open opens the given members (all of them when none are named) and
// derives every flow whose sending end is open.
func (sh shape) open(t *testing.T, tr single, members ...int) *deployment {
	t.Helper()
	if len(members) == 0 {
		for j := 0; j < sh.n; j++ {
			members = append(members, j)
		}
	}
	d := &deployment{tr: tr, links: make([]runtime.Link, sh.n)}
	for _, j := range members {
		var err error
		if d.links[j], err = tr.Open(j); err != nil {
			t.Fatalf("open member %d: %v", j, err)
		}
	}
	// A state frame must arrive exactly as sent; its SN is the stamp.
	state := func(to int) func(runtime.Message) (int, bool) {
		return func(m runtime.Message) (int, bool) {
			if m != stateMsg(int(m.SN)) {
				t.Errorf("member %d received a damaged state %+v", to, m)
			}
			return int(m.SN), true
		}
	}
	if sh.parent == nil {
		for j, l := range d.links {
			if l == nil {
				continue
			}
			l, succ, pred := l, (j+1)%sh.n, (j-1+sh.n)%sh.n
			var in <-chan runtime.Message
			var top <-chan struct{}
			if d.links[succ] != nil {
				in = d.links[succ].State()
			}
			if d.links[pred] != nil {
				top = d.links[pred].Top()
			}
			last := 0
			d.flows = append(d.flows, flow{
				name: fmt.Sprintf("state %d→%d", j, succ), from: j, to: succ, payload: true,
				send: func(sn int) { l.SendState(stateMsg(sn)) },
				recv: func(wait time.Duration) (int, bool) { return take(in, wait, state(succ)) },
			}, flow{
				name: fmt.Sprintf("⊤ %d→%d", j, pred), from: j, to: pred,
				send: func(sn int) { last = sn; l.SendTop() },
				recv: func(wait time.Duration) (int, bool) {
					return take(top, wait, func(struct{}) (int, bool) { return last, true })
				},
			})
		}
		return d
	}
	for c := 1; c < sh.n; c++ {
		c, p := c, sh.parent[c]
		if l := d.links[p]; l != nil {
			var in <-chan runtime.Message
			if d.links[c] != nil {
				in = d.links[c].State()
			}
			d.flows = append(d.flows, flow{
				name: fmt.Sprintf("down %d→%d", p, c), from: p, to: c, payload: true,
				send: func(sn int) { l.SendDown(c, stateMsg(sn)) },
				recv: func(wait time.Duration) (int, bool) { return take(in, wait, state(c)) },
			})
		}
		if l := d.links[c]; l != nil {
			var in <-chan runtime.UpMessage
			if d.links[p] != nil {
				in = d.links[p].Up()
			}
			d.flows = append(d.flows, flow{
				name: fmt.Sprintf("up %d→%d", c, p), from: c, to: p, payload: true,
				send: func(sn int) { l.SendUp(upMsg(c, sn)) },
				recv: func(wait time.Duration) (int, bool) {
					return take(in, wait, func(m runtime.UpMessage) (int, bool) {
						if m != upMsg(m.Child, int(m.SN)) {
							t.Errorf("member %d received a damaged up-message %+v", p, m)
						}
						return int(m.SN), m.Child == c // else a sibling's frame in the shared mailbox
					})
				},
			})
		}
	}
	return d
}

// flowBetween returns the payload flow from → to.
func (d *deployment) flowBetween(t *testing.T, from, to int) flow {
	t.Helper()
	for _, f := range d.flows {
		if f.payload && f.from == from && f.to == to {
			return f
		}
	}
	t.Fatalf("no payload flow %d→%d", from, to)
	return flow{}
}

// closeLink closes member j's link.
func (d *deployment) closeLink(j int) {
	if d.links[j] != nil {
		d.links[j].Close()
	}
}

// deliver resends sn on f until it arrives, the way the barrier's resend
// tick masks loss (a connection still coming up is loss too).
func deliver(t *testing.T, f flow, sn int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.send(sn)
		if got, ok := f.recv(2 * time.Millisecond); ok && got == sn {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: frame %d never arrived", f.name, sn)
		}
	}
}

func waitStat(t *testing.T, tr single, what string, cond func(TCPStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(tr.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s; stats %+v", what, tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// intrude dials addr, writes the given frames and requires the acceptor to
// close the connection. The frames leave in one Write, so they reach the
// acceptor's read buffer together: when the intruder poses as a legitimate
// neighbor, the real one redials at once and its connection replaces this
// one — what follows the hello must already be buffered by then.
func intrude(t *testing.T, addr string, frames ...[]byte) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(bytes.Join(frames, nil))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("acceptor kept the connection open (and wrote to it)")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Error("acceptor kept the connection open")
	}
}

// peers returns the deployment's address list.
func peersOf(tr single) []string { return tr.(*TCP).cfg.Peers }

// deadPeers reserves n loopback addresses nobody listens on.
func deadPeers(t *testing.T, n int) []string {
	t.Helper()
	listeners, peers, err := bindLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return peers
}

// Every protocol edge delivers in both directions: state forward and ⊤
// back around a ring, broadcast down and convergecast up a tree.
func TestDelivery(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		d := sh.open(t, sh.loopback(t))
		for i, f := range d.flows {
			deliver(t, f, 10+i)
		}
	})
}

// Latest-state-wins: when sends outpace the connection the receiver sees
// the newest state, not a backlog, and never a damaged one.
func TestLatestStateWins(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		d := sh.open(t, sh.loopback(t))
		f := d.flowBetween(t, sh.dialer, sh.acc)
		deadline := time.Now().Add(5 * time.Second)
		for {
			for sn := 0; sn < 99; sn++ {
				f.send(sn)
			}
			f.send(99)
			if got, ok := f.recv(5 * time.Second); ok && got == 99 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("final state never arrived")
			}
		}
	})
}

// Sends before any connection exists must not block: the slot absorbs and
// supersedes them.
func TestSendNeverBlocks(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		tr := sh.explicit(t, TCPConfig{
			Peers:       deadPeers(t, sh.n), // nobody ever listens
			baseBackoff: time.Millisecond,
			maxBackoff:  10 * time.Millisecond,
		})
		d := sh.open(t, tr, 0) // member 0's dialers can never succeed
		if len(d.flows) == 0 {
			t.Fatal("member 0 sends nothing")
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 10000; i++ {
				for _, f := range d.flows {
					f.send(i % 50)
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("sends blocked with no connection up")
		}
		waitStat(t, tr, "no failed dial counted", func(s TCPStats) bool { return s.FailedDials > 0 })
	})
}

// A forcibly broken connection redials and delivery resumes — the blip is
// pure message loss, masked by resending.
func TestReconnectAfterBreak(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		d := sh.open(t, sh.loopback(t))
		there := d.flowBetween(t, sh.dialer, sh.acc)
		back := there // a ring edge carries payload one way only
		if sh.parent != nil {
			back = d.flowBetween(t, sh.acc, sh.dialer)
		}
		deliver(t, there, 1)
		for i, victim := range []int{sh.dialer, sh.acc} {
			dialsBefore := d.tr.Stats().Dials
			d.tr.BreakLinks(victim)
			deliver(t, there, 20+i)
			deliver(t, back, 30+i)
			if d.tr.Stats().Dials == dialsBefore {
				t.Errorf("delivery resumed after breaking member %d without a redial being counted", victim)
			}
		}
	})
}

// A connection without a valid hello — a non-neighbor, an unknown member,
// another cluster's digest, an old wire version, no hello at all — is
// rejected and accounted, and does not disturb the legitimate edge.
func TestHandshakeRejects(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		tr := sh.loopback(t)
		d := sh.open(t, tr)
		addr := peersOf(tr)[sh.acc]
		intruders := [][]byte{
			AppendHello(nil, sh.stranger, tr.Digest()),          // right digest, shares no edge with acc
			AppendHello(nil, sh.acc+1, tr.Digest()),             // a higher index never dials a lower one
			AppendHello(nil, sh.n+5, tr.Digest()),               // not a member at all
			AppendHello(nil, sh.dialer, tr.Digest()^0xbad),      // right neighbor, wrong config digest
			AppendFrame(nil, FrameHello, []byte{1, 0, 0, 0, 0}), // v1 hello: wire version mismatch
			AppendTop(nil, 0),                    // not a hello at all
			{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}, // garbage bytes
		}
		for _, intruder := range intruders {
			intrude(t, addr, intruder)
		}
		want := int64(len(intruders))
		waitStat(t, tr, fmt.Sprintf("want %d handshake rejects", want),
			func(s TCPStats) bool { return s.HandshakeRejects >= want })
		// The digest mismatch must be distinguishable from identity rejects.
		if s := tr.Stats(); s.HandshakeRejects != want || s.DigestRejects != 1 {
			t.Errorf("handshake rejects = %d (want %d), digest rejects = %d (want 1)", s.HandshakeRejects, want, s.DigestRejects)
		}
		deliver(t, d.flowBetween(t, sh.dialer, sh.acc), 5)
	})
}

// Garbage after a valid hello drops the connection (decode error ≡ loss);
// the legitimate neighbor reconnects.
func TestDecodeErrorDropsConnection(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		tr := sh.loopback(t)
		d := sh.open(t, tr)
		intrude(t, peersOf(tr)[sh.acc],
			AppendHello(nil, sh.dialer, tr.Digest()), // pose as the legitimate dialer
			[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
		waitStat(t, tr, "decode error not accounted", func(s TCPStats) bool { return s.DecodeErrors > 0 })
		deliver(t, d.flowBetween(t, sh.dialer, sh.acc), 6)
	})
}

// A well-formed frame the route table does not expect from its sender is
// detected corruption too: here a parent-to-child state frame arriving on
// an edge (or in a direction) that carries none.
func TestUnroutableFrameDropsConnection(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		tr := sh.loopback(t)
		sh.open(t, tr)
		unroutable := AppendUp(nil, 0, upMsg(sh.dialer, 1)) // up-frames flow child → parent; dialer is acc's parent
		if sh.parent == nil {
			unroutable = AppendState(nil, 7, stateMsg(1)) // a group nobody declared
		}
		intrude(t, peersOf(tr)[sh.acc], AppendHello(nil, sh.dialer, tr.Digest()), unroutable)
		waitStat(t, tr, "route miss not accounted as a decode error", func(s TCPStats) bool { return s.DecodeErrors > 0 })
	})
}

// An up-frame whose in-band Child disagrees with the connection's verified
// peer is detected corruption: the connection is dropped, the frame
// discarded. Parents have the lower index and therefore dial, so the test
// plays the child: it listens on member 1's address, checks the root's
// hello, and answers with a frame claiming to come from member 2.
func TestChildIDCrossCheck(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		if sh.parent == nil {
			t.Skip("ring frames carry no sender id")
		}
		child, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer child.Close()
		peers := deadPeers(t, sh.n)
		peers[1] = child.Addr().String()
		tr := sh.explicit(t, TCPConfig{Peers: peers, baseBackoff: time.Millisecond, maxBackoff: 10 * time.Millisecond})
		d := sh.open(t, tr, 0)

		c, err := child.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(5 * time.Second))
		typ, payload, err := NewFrameReader(c, 256).Read()
		if err != nil || typ != FrameHello {
			t.Fatalf("first frame from the root: type %d, err %v; want a hello", typ, err)
		}
		if from, digest, err := DecodeHello(payload); err != nil || from != 0 || digest != tr.Digest() {
			t.Fatalf("root's hello = (member %d, digest %016x, err %v), want (0, %016x)", from, digest, err, tr.Digest())
		}
		c.Write(AppendUp(nil, 0, upMsg(2, 1)))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Error("root survived a cross-check violation")
		}
		waitStat(t, tr, "cross-check violation not accounted as a decode error",
			func(s TCPStats) bool { return s.DecodeErrors > 0 })
		select {
		case m := <-d.links[0].Up():
			t.Errorf("forged up-message delivered: %+v", m)
		default:
		}
	})
}

// The acceptor bounds how many connections may sit in the handshake at
// once: overflow connections are closed on arrival and counted, and the
// legitimate edge still comes up once the flood drains.
func TestMaxPendingBound(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		tr := sh.loopback(t, func(c *TCPConfig) {
			c.maxPending = 2
			c.handshakeTimeout = 250 * time.Millisecond
		})
		d := sh.open(t, tr)
		// Flood acc's listener with connections that never send a hello.
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for i := 0; i < 10; i++ {
			c, err := net.Dial("tcp", peersOf(tr)[sh.acc])
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, c)
		}
		waitStat(t, tr, "no accept overflows counted", func(s TCPStats) bool { return s.AcceptOverflows > 0 })
		// The counter is shared by every member, but only acc is flooded
		// and its own neighbors handshake in microseconds.
		if p := tr.Stats().PendingHandshakes; p > 2 {
			t.Errorf("pending handshakes = %d, exceeds cap 2", p)
		}
		deliver(t, d.flowBetween(t, sh.dialer, sh.acc), 9)
	})
}

// Close is prompt and idempotent even while dialers are mid-dial or in
// backoff, Open after Close fails, and closing one member's link frees
// that member's listener and connections while the others keep running.
func TestCloseSemantics(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		tr := sh.loopback(t)
		d := sh.open(t, tr)
		there := d.flowBetween(t, sh.dialer, sh.acc)
		deliver(t, there, 1)

		// A member's death: its link closes, its address stops answering.
		d.closeLink(sh.acc)
		if c, err := net.DialTimeout("tcp", peersOf(tr)[sh.acc], time.Second); err == nil {
			c.Close()
			t.Error("a closed member's listener still accepts")
		}
		there.send(2)
		waitStat(t, tr, "neighbor never noticed the closed member", func(s TCPStats) bool { return s.FailedDials > 0 })
		waitStat(t, tr, "pending-handshake gauge never drained", func(s TCPStats) bool { return s.PendingHandshakes == 0 })

		done := make(chan struct{})
		go func() {
			tr.Close()
			tr.Close() // idempotent
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return promptly")
		}
		if _, err := tr.Open(0); err == nil {
			t.Error("Open succeeded on a closed transport")
		}
	})

	// With only one member opened, its dialers connect to pre-bound
	// listeners nobody serves; Close must not wait for them.
	forEachShape(t, func(t *testing.T, sh shape) {
		tr := sh.loopback(t)
		sh.open(t, tr, 0)
		done := make(chan struct{})
		go func() {
			tr.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return promptly")
		}
	})
}

// Open and constructor validation.
func TestOpenValidation(t *testing.T) {
	forEachShape(t, func(t *testing.T, sh shape) {
		tr := sh.loopback(t)
		sh.open(t, tr)
		for _, id := range []int{0, -1, sh.n} {
			if _, err := tr.Open(id); err == nil {
				t.Errorf("second or out-of-range open of member %d succeeded", id)
			}
		}
	})
	if _, err := NewTCP(TCPConfig{Peers: []string{"x"}}); err == nil {
		t.Error("NewTCP with 1 peer succeeded")
	}
	if _, err := NewLoopbackRing(1); err == nil {
		t.Error("NewLoopbackRing(1) succeeded")
	}
	if _, err := NewTCPTree(TCPConfig{Peers: []string{"a", "b"}}, []int{-1}); err == nil {
		t.Error("NewTCPTree with mismatched peers/parent succeeded")
	}
	if _, err := NewTCPTree(TCPConfig{Peers: []string{"a", "b"}}, []int{-1, 5}); err == nil {
		t.Error("NewTCPTree with an invalid parent vector succeeded")
	}
	if _, err := NewLoopbackTree(1); err == nil {
		t.Error("NewLoopbackTree(1) succeeded")
	}
	if _, err := NewLoopbackTreeParent([]int{-1}); err == nil {
		t.Error("NewLoopbackTreeParent of one node succeeded")
	}
	if _, err := NewLoopbackTreeParent([]int{-1, 1}); err == nil {
		t.Error("NewLoopbackTreeParent with a self-parent succeeded")
	}
}

// In a two-member ring the predecessor is the successor: state and ⊤, in
// both directions, share the pair's single connection.
func TestTwoMemberRingSharesOneConnection(t *testing.T) {
	sh := shape{name: "ring2", n: 2}
	tr := sh.loopback(t)
	d := sh.open(t, tr)
	if len(d.flows) != 4 {
		t.Fatalf("%d flows, want state and ⊤ each way", len(d.flows))
	}
	for i, f := range d.flows {
		deliver(t, f, 40+i)
	}
	if s := tr.Stats(); s.Dials != 1 || s.Accepts != 1 || s.ConnectedOut != 1 {
		t.Errorf("dials %d, accepts %d, connected %d: want one connection for the pair", s.Dials, s.Accepts, s.ConnectedOut)
	}
}

// One transport hosting several local members counts and exports once:
// Stats is the sum over the member muxes, a registry gets each transport_*
// series exactly once, and Close takes them all away again.
func TestSharedStatsAndRegistry(t *testing.T) {
	reg := obsv.NewRegistry()
	sh := shapes[0]
	tr := sh.loopback(t, func(c *TCPConfig) { c.Registry = reg })
	d := sh.open(t, tr)
	for i, f := range d.flows {
		deliver(t, f, 50+i)
	}
	// A 4-ring has 4 edges; every member dials or accepts some of them.
	if s := tr.Stats(); s.Dials != 4 || s.Accepts != 4 || s.ConnectedOut != 4 {
		t.Errorf("dials %d, accepts %d, connected %d: want 4 each, summed over the members", s.Dials, s.Accepts, s.ConnectedOut)
	}
	// scrape returns the transport_* series the registry renders, with
	// how often each is rendered.
	scrape := func() (map[string]int, string) {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "transport_") {
				seen[line[:strings.LastIndexByte(line, ' ')]]++
			}
		}
		return seen, sb.String()
	}
	seen, text := scrape()
	if len(seen) != 13 {
		t.Errorf("%d transport series, want the 13 standard ones:\n%s", len(seen), text)
	}
	for name, count := range seen {
		if count != 1 {
			t.Errorf("series %s rendered %d times", name, count)
		}
	}
	tr.Close()
	if seen, text := scrape(); len(seen) != 0 || strings.Contains(text, "transport_") {
		t.Errorf("transport series outlived the transport:\n%s", text)
	}
}

// End to end: the real protocol engine drives loopback sockets and
// completes barriers under injected corruption and a mid-run connection
// break — as a ring, as a tree, and as a hybrid whose host tree arrives as
// a parent vector.
func TestBarrierOverTransport(t *testing.T) {
	const (
		nPhases = 2
		passes  = 30
	)
	hosts := [][]int{{0, 1}, {2, 3}, {4}, {5, 6}}
	hy, err := topo.NewHybridTree(hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		n        int
		topology runtime.Topology
		hosts    [][]int // one barrier per host; nil: one barrier hosting everyone
		build    func() (single, error)
	}{
		{"ring", 3, runtime.TopologyRing, nil, func() (single, error) { return NewLoopbackRing(3) }},
		{"tree", 7, runtime.TopologyTree, nil, func() (single, error) { return NewLoopbackTree(7) }},
		{"hybrid", 7, runtime.TopologyHybrid, hosts, func() (single, error) { return NewLoopbackTreeParent(hy.HostTree.Parent) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			// barrierOf[id] is the barrier member id awaits on.
			barrierOf := make([]*runtime.Barrier, tc.n)
			rosters := tc.hosts
			if rosters == nil {
				everyone := make([]int, tc.n)
				for id := range everyone {
					everyone[id] = id
				}
				rosters = [][]int{everyone}
			}
			for _, roster := range rosters {
				b, err := runtime.New(runtime.Config{
					Participants: tc.n,
					NPhases:      nPhases,
					Topology:     tc.topology,
					Hosts:        tc.hosts,
					Members:      roster,
					Transport:    tr,
					Resend:       200 * time.Microsecond,
					CorruptRate:  0.01,
					Seed:         7,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer b.Stop()
				for _, id := range roster {
					barrierOf[id] = b
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			errs := make(chan error, tc.n)
			for id := 0; id < tc.n; id++ {
				id := id
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < passes; k++ {
						if k == passes/2 && id == 0 {
							tr.BreakLinks(1) // mid-run network blip
						}
						ph, err := barrierOf[id].Await(ctx, id)
						if errors.Is(err, runtime.ErrReset) {
							k--
							continue
						}
						if err != nil {
							errs <- fmt.Errorf("member %d pass %d: %w", id, k, err)
							return
						}
						if want := (k + 1) % nPhases; ph != want {
							errs <- fmt.Errorf("member %d pass %d: phase %d, want %d", id, k, ph, want)
							return
						}
					}
					errs <- nil
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			st := tr.Stats()
			if st.FramesRecv == 0 {
				t.Error("barrier completed without any TCP frames — transport not exercised")
			}
			t.Logf("transport stats: %+v", st)
		})
	}
}
