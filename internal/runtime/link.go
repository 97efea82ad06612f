// The link abstraction: a scheduler talks to the members it does not
// host through one Link, and a Transport supplies one Link per ring
// member or per host of a tree, each driven by its own scheduler. A ring
// link carries a member's state announcements forward (to the successor)
// and its ⊤ markers backward (to the predecessor); a tree link carries
// state announcements down to the children and convergecast frames up to
// the parent. Both are the same edge-addressed register (Herman's safe
// register), so there is one interface and one Transport: a link has the
// edges of its transport's shape and drops a send on an edge it does not
// have. NewChanTransport and NewChanTreeTransport realize links
// in-process, each send a post to the receiving link's Inbox, while
// internal/transport realizes the same contract over TCP sockets, so a
// barrier can span OS processes and machines without any change to the
// protocol itself. (A link carries only the edges that leave a scheduler:
// between members one scheduler hosts — every member, without a Transport
// — the scheduler copies the frame itself; see sched.go.) A ring link's
// State channel and a tree link's are one member's upstream edge, read
// into the one upstream receive (sched.extFrom, node.onState).
//
// The contract every Transport must honor is deliberately weak, because
// the protocol already masks the weakness (the paper's Section 5):
//
//   - Delivery is best-effort. A Link may drop, reorder into
//     latest-state-wins, or duplicate messages; the periodic
//     retransmission of current state makes all of that equivalent to
//     delay. A send on an edge the link does not have — SendState or
//     SendTop on a tree link, SendDown or SendUp on a ring link, SendDown
//     to a node that is not a child, SendUp at the root — is dropped.
//   - Sends never block. A scheduler must not be wedged by a slow
//     or dead peer; undeliverable state is simply superseded by the next
//     retransmission.
//   - Corruption must be detectable. Messages carry an end-to-end
//     checksum (Message.Sum); a transport may additionally checksum its
//     frames, and must map every transport-level failure — decode error,
//     connection reset, partial write — onto message loss by discarding
//     the damaged data. No transport failure needs new recovery logic.
//   - Input is announced. A scheduler has no goroutine to wait on its
//     link: the barrier registers the scheduler's input hook (Notify)
//     when it attaches the link, and the link, after it posts a frame to
//     its Inbox, calls the hook Inbox.Hook returns; whoever calls it may
//     then run the scheduler's turn. It must call the hook after the
//     post, never before, and never on the goroutine of a Send*: a send
//     is made by a turn, and a hook called there would nest one
//     scheduler's turn inside another's. The mux calls it on the reader
//     that read the frame; the in-process channel links, whose posts are
//     the sends of another scheduler's turn, start a fresh goroutine for
//     it. A link with no hook registered calls nothing.
package runtime

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tokenring"
)

// Message is the MB wire triple (sn, cp, ph) a process announces to its
// successor, plus the end-to-end integrity checksum. A message whose Sum
// does not match Checksum() is detected corruption at the receiver and is
// dropped — equivalent to loss, which retransmission masks.
type Message struct {
	SN tokenring.SN
	CP core.CP
	PH int

	Sum uint32
}

// Checksum computes the message integrity check over (SN, CP, PH) — an
// FNV-style mix; a real deployment would use a CRC, and the TCP transport
// adds a CRC32 per frame on top.
func (m Message) Checksum() uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		h ^= v
		h *= 16777619
	}
	mix(uint32(int32(m.SN)))
	mix(uint32(m.CP))
	mix(uint32(int32(m.PH)))
	return h
}

// Link is one scheduler's attachment to its neighbours over a
// transport: a ring member's, or a tree host's. A link only sends and
// receives — a register the neighbour writes and the member reads
// (Herman's safe-register model). Nothing else writes into it: a fault,
// spurious reception included, reaches the member through its
// scheduler's control channel. Every send is best-effort and
// non-blocking (see the contract above). A ring link has a ⊤ mailbox and
// no up mailbox, a tree link the other way round: runtime.New rejects a
// link whose shape is not its topology's.
type Link interface {
	// SendState announces the member's current (sn, cp, ph) to its ring
	// successor: the latest state wins.
	SendState(Message)
	// SendTop propagates the ⊤ marker to the ring predecessor (the T3/T4
	// restart wave for a fully corrupted ring).
	SendTop()
	// SendDown announces the node's current (sn, cp, ph) to tree child
	// child (a node id of the transport).
	SendDown(child int, m Message)
	// SendUp announces the node's state and subtree acknowledgment to its
	// tree parent.
	SendUp(UpMessage)
	// State is the channel of state frames from upstream: the ring
	// predecessor's announcements or the tree parent's. Down is the same
	// channel under the name the benchmark harness's tree probe calls.
	// The channels are never closed; they simply fall silent when the
	// transport is down.
	State() <-chan Message
	Down() <-chan Message
	// Top is the channel of ⊤ markers from the ring successor (nil on a
	// tree link).
	Top() <-chan struct{}
	// Up is the channel of the tree children's convergecast frames,
	// shared by the children and demultiplexed by Child (nil on a ring
	// link).
	Up() <-chan UpMessage
	// Notify registers the scheduler's input hook, which the link calls
	// after each post to its mailboxes (see the contract above).
	Notify(func())
	// Close tears down any goroutines and connections serving this link.
	// It must not close the receive channels (a scheduler may still be
	// polling them).
	Close() error
}

// Transport supplies the links for a barrier. A transport is built for a
// fixed shape — a ring of members, or a tree over host indices (a flat
// tree's hosts are its members) — and Open is called once per ring
// member or host this process runs (typically one per OS process in a
// distributed deployment).
type Transport interface {
	// Open returns node id's link.
	Open(id int) (Link, error)
	// Close tears the whole transport down. The Barrier closes the links
	// it opened on Stop; the transport itself is closed by whoever created
	// it.
	Close() error
}

// --- the receive side of every link ---

// Inbox is a link's receive side, the same for every transport: the
// mailboxes a scheduler reads — the upstream neighbour's state frames
// (State), the ring successor's ⊤ markers (Top), the tree children's
// convergecast frames (Up) — and the scheduler's input hook (Notify). A
// post never blocks (post); the link posts what it receives, then calls
// the Hook as the contract above says.
// The zero Inbox has no mailboxes: InitRing or InitTree makes them.
type Inbox struct {
	from chan Message
	top  chan struct{}
	up   chan UpMessage
	hook atomic.Pointer[func()]
}

// InitRing makes a ring link's mailboxes, one slot each.
func (in *Inbox) InitRing() {
	in.from, in.top = make(chan Message, 1), make(chan struct{}, 1)
}

// InitTree makes the mailboxes of a tree node with the given number of
// children: one slot for the parent's frames, and an up mailbox the
// children share with two slots per child — a full round of state+ack
// frames — plus two.
func (in *Inbox) InitTree(children int) {
	in.from, in.up = make(chan Message, 1), make(chan UpMessage, 2*children+2)
}

// PostState, PostTop and PostUp post a received frame: an upstream state
// frame, a ⊤ marker, a child's convergecast frame.
func (in *Inbox) PostState(m Message) { post(in.from, m) }
func (in *Inbox) PostTop()            { post(in.top, struct{}{}) }
func (in *Inbox) PostUp(m UpMessage)  { post(in.up, m) }

// Notify registers the scheduler's input hook; Notify(nil) removes it.
func (in *Inbox) Notify(f func()) { in.hook.Store(&f) }

// Hook returns the registered input hook, nil if there is none.
func (in *Inbox) Hook() func() {
	if f := in.hook.Load(); f != nil {
		return *f
	}
	return nil
}

// The receive channels the Link interface asks for. Down is State: it
// stays because the benchmark harness's tree probe calls it.
func (in *Inbox) State() <-chan Message { return in.from }
func (in *Inbox) Down() <-chan Message  { return in.from }
func (in *Inbox) Top() <-chan struct{}  { return in.top }
func (in *Inbox) Up() <-chan UpMessage  { return in.up }

// post puts v in mailbox ch without blocking: if ch is full it displaces
// the oldest entry — a frame its sender has since superseded — and
// retries; losing that race is loss, which the retransmission masks. On a
// one-slot mailbox that is latest-wins.
func post[M any](ch chan M, v M) {
	if offer(ch, v) {
		return
	}
	select {
	case <-ch:
	default:
	}
	offer(ch, v)
}

// offer is a non-blocking send: it reports false when ch is full.
func offer[M any](ch chan M, m M) bool {
	select {
	case ch <- m:
		return true
	default:
		return false
	}
}

// --- in-process channel transport ---

// chanTransport wires every link's sends straight into the receiving
// link's Inbox, between the members' schedulers: a ring (parent nil) or
// the tree given by its parent vector.
type chanTransport struct {
	parent []int
	links  []*chanLink
}

// NewChanTransport returns the in-process channel transport for an
// all-local ring of n members: the one-scheduler-per-link placement
// without sockets, for tests and benchmarks to set beside the network
// transports. (A nil Config.Transport is not this: it runs the whole ring
// on one scheduler with no channels between members.)
func NewChanTransport(n int) Transport { return newChanTransport(n, nil) }

// NewChanTreeTransport returns the in-process channel transport for an
// all-local tree described by the parent vector (parent[0] == -1):
// NewChanTransport's transport in tree shape.
func NewChanTreeTransport(parent []int) Transport {
	return newChanTransport(len(parent), append([]int(nil), parent...))
}

func newChanTransport(n int, parent []int) *chanTransport {
	t := &chanTransport{parent: parent, links: make([]*chanLink, n)}
	kids := make([]int, n)
	for id := 1; id < len(parent); id++ {
		kids[parent[id]]++
	}
	for id := range t.links {
		l := &chanLink{t: t, id: id}
		if parent == nil {
			l.InitRing()
		} else {
			l.InitTree(kids[id])
		}
		t.links[id] = l
	}
	return t
}

func (t *chanTransport) Open(id int) (Link, error) {
	if id < 0 || id >= len(t.links) {
		return nil, fmt.Errorf("ftbarrier: member %d out of range [0,%d)", id, len(t.links))
	}
	return t.links[id], nil
}

func (t *chanTransport) Close() error { return nil }

// chanLink is one member's link, a ring link or a tree link as its
// transport's shape says. A send posts to the receiving link's Inbox; a
// send on an edge the shape lacks is dropped.
type chanLink struct {
	Inbox
	t  *chanTransport
	id int
}

func (l *chanLink) SendState(m Message) {
	if l.t.parent == nil {
		dst := l.t.links[(l.id+1)%len(l.t.links)]
		dst.PostState(m)
		dst.wake()
	}
}

func (l *chanLink) SendTop() {
	if l.t.parent == nil {
		n := len(l.t.links)
		dst := l.t.links[(l.id-1+n)%n]
		dst.PostTop()
		dst.wake()
	}
}

func (l *chanLink) SendDown(child int, m Message) {
	if l.t.parent != nil && child >= 0 && child < len(l.t.links) && l.t.parent[child] == l.id {
		dst := l.t.links[child]
		dst.PostState(m)
		dst.wake()
	}
}

func (l *chanLink) SendUp(m UpMessage) {
	if l.t.parent != nil && l.t.parent[l.id] >= 0 {
		dst := l.t.links[l.t.parent[l.id]]
		dst.PostUp(m)
		dst.wake()
	}
}

// wake runs the hook after a post on a fresh goroutine: a channel link's
// posts are the sends of another scheduler's turn. The goroutine ends with
// the turn it runs (on a down barrier, at once); with no hook registered
// wake starts nothing.
func (l *chanLink) wake() {
	if f := l.Hook(); f != nil {
		go f()
	}
}

func (l *chanLink) Close() error { return nil }
