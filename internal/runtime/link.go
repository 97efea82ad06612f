// Ring-link abstraction: a ring member talks to its neighbors through a
// Link, and a Transport supplies one Link per ring member, each driven by
// its own scheduler. NewChanTransport realizes links in-process as
// latest-state-wins buffered channels — exactly the semantics the protocol
// was originally built on — while internal/transport realizes the same
// contract over TCP sockets, so a barrier can span OS processes and
// machines without any change to the protocol itself. (Without a
// Transport there are no channels between members at all: see sched.go.)
//
// The contract every Transport must honor is deliberately weak, because
// the protocol already masks the weakness (the paper's Section 5):
//
//   - Delivery is best-effort. A Link may drop, reorder into
//     latest-state-wins, or duplicate messages; the periodic
//     retransmission of current state makes all of that equivalent to
//     delay.
//   - Sends never block. A scheduler must not be wedged by a slow
//     or dead peer; undeliverable state is simply superseded by the next
//     retransmission.
//   - Corruption must be detectable. Messages carry an end-to-end
//     checksum (Message.Sum); a transport may additionally checksum its
//     frames, and must map every transport-level failure — decode error,
//     connection reset, partial write — onto message loss by discarding
//     the damaged data. No transport failure needs new recovery logic.
package runtime

import (
	"fmt"

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

// Link is one ring member's attachment to its two neighbors: state
// announcements flow forward (to the successor), and the ⊤ whole-ring
// restart marker flows backward (to the predecessor). A link only sends
// and receives — a register the neighbour writes and the member reads
// (Herman's safe-register model). Nothing else writes into it: a fault,
// spurious reception included, reaches the member through its
// scheduler's control channel.
type Link interface {
	// SendState announces the member's current (sn, cp, ph) to its
	// successor. Best-effort and non-blocking: the latest state wins, and
	// any failure to deliver is equivalent to message loss.
	SendState(Message)
	// SendTop propagates the ⊤ marker to the predecessor (the T3/T4
	// restart wave for a fully corrupted ring). Best-effort, non-blocking.
	SendTop()
	// State is the channel of announcements received from the predecessor.
	// The channel is never closed; it simply falls silent when the
	// transport is down.
	State() <-chan Message
	// Top is the channel of ⊤ markers received from the successor.
	Top() <-chan struct{}
	// Close tears down any goroutines and connections serving this link.
	// It must not close the State/Top channels (a scheduler may still be
	// selecting on them).
	Close() error
}

// Transport supplies the ring links for a barrier. A transport is built
// for a fixed member count; Open is called once per member hosted by this
// process (exactly one per OS process in a distributed deployment).
type Transport interface {
	// Open returns member id's link.
	Open(id int) (Link, error)
	// Close tears the whole transport down. The Barrier closes the links
	// it opened on Stop; the transport itself is closed by whoever created
	// it.
	Close() error
}

// --- in-process channel transport ---

// chanTransport wires every link as a pair of single-slot
// latest-state-wins mailboxes directly between the members' schedulers.
type chanTransport struct {
	links []*chanLink
}

// NewChanTransport returns the in-process channel transport for an
// all-local ring of n members: the one-scheduler-per-link placement
// without sockets, for tests and benchmarks to set beside the network
// transports. (A nil Config.Transport is not this: it runs the whole ring
// on one scheduler with no channels between members.)
func NewChanTransport(n int) Transport {
	t := &chanTransport{links: make([]*chanLink, n)}
	for j := range t.links {
		t.links[j] = &chanLink{
			t:     t,
			id:    j,
			state: make(chan Message, 1),
			top:   make(chan struct{}, 1),
		}
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

type chanLink struct {
	t     *chanTransport
	id    int
	state chan Message  // announcements from the predecessor
	top   chan struct{} // ⊤ markers from the successor
}

func (l *chanLink) SendState(m Message) {
	n := len(l.t.links)
	dst := l.t.links[(l.id+1)%n].state
	// Latest-state-wins mailbox: drain a stale message, then send.
	select {
	case <-dst:
	default:
	}
	select {
	case dst <- m:
	default:
	}
}

func (l *chanLink) SendTop() {
	n := len(l.t.links)
	dst := l.t.links[(l.id-1+n)%n].top
	select {
	case dst <- struct{}{}:
	default: // a ⊤ marker is already pending; it is idempotent
	}
}

func (l *chanLink) State() <-chan Message { return l.state }
func (l *chanLink) Top() <-chan struct{}  { return l.top }

// offer is a non-blocking send: it reports false when ch is full.
func offer[M any](ch chan M, m M) bool {
	select {
	case ch <- m:
		return true
	default:
		return false
	}
}

func (l *chanLink) Close() error { return nil }
