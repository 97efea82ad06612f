// Tree-link abstraction: the double-tree runtime (Config.Topology ==
// TopologyTree) replaces the ring's two edges per member with tree edges —
// state announcements flow DOWN from a parent to each child, and combined
// state+acknowledgment announcements flow UP from each child to its
// parent. The delivery contract is the ring Link contract unchanged:
// best-effort, non-blocking, latest-state-wins, corruption detectable via
// the end-to-end checksum; the periodic per-edge retransmission makes
// loss, duplication and detected corruption equivalent to delay.
package runtime

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/tokenring"
)

// UpMessage is the convergecast wire record a tree node announces to its
// parent: the child's live state (SN, CP, PH) — read by the parent's
// resynchronization and restart actions — and its subtree acknowledgment
// summary (AckSN, AckCP, AckPH) — read by the parent's own convergecast.
// Child tags the sender so siblings can share the parent's up mailbox.
type UpMessage struct {
	Child int
	SN    tokenring.SN
	CP    core.CP
	PH    int

	AckSN tokenring.SN
	AckCP core.CP
	AckPH int

	Sum uint32
}

// Checksum computes the integrity check over every field but Sum itself,
// the same FNV-style mix as Message.Checksum.
func (m UpMessage) Checksum() uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		h ^= v
		h *= 16777619
	}
	mix(uint32(int32(m.Child)))
	mix(uint32(int32(m.SN)))
	mix(uint32(m.CP))
	mix(uint32(int32(m.PH)))
	mix(uint32(int32(m.AckSN)))
	mix(uint32(m.AckCP))
	mix(uint32(int32(m.AckPH)))
	return h
}

// TreeLink is one tree member's attachment to its parent and children.
// Like Link it only sends and receives; faults do not come through it.
type TreeLink interface {
	// SendDown announces the member's current (sn, cp, ph) to child
	// (a member id). Best-effort and non-blocking; latest state wins.
	SendDown(child int, m Message)
	// SendUp announces the member's state and subtree acknowledgment to
	// its parent. Best-effort and non-blocking. No-op at the root.
	SendUp(m UpMessage)
	// Down is the channel of announcements received from the parent.
	Down() <-chan Message
	// Up is the channel of announcements received from the children
	// (shared across children; receivers demultiplex by Child).
	Up() <-chan UpMessage
	// Close tears down any goroutines and connections serving this link.
	// It must not close the Down/Up channels.
	Close() error
}

// TreeTransport supplies the tree links for a TopologyTree barrier. A
// transport is built for a fixed tree (parent vector); OpenTree is called
// once per member hosted by this process.
type TreeTransport interface {
	// OpenTree returns member id's tree link.
	OpenTree(id int) (TreeLink, error)
	// Close tears the whole transport down (see Transport.Close).
	Close() error
}

// treeOnly makes a TreeTransport satisfy the ring Transport interface for
// Config.Transport while rejecting ring use.
type treeOnly struct{}

func (treeOnly) Open(id int) (Link, error) {
	return nil, errors.New("ftbarrier: tree transport requires Config.Topology == TopologyTree")
}

// --- in-process channel tree transport ---

// chanTreeTransport wires every tree edge as a pair of latest-state-wins
// mailboxes between the members' schedulers.
type chanTreeTransport struct {
	treeOnly
	parent []int
	links  []*chanTreeLink
}

// NewChanTreeTransport returns the in-process channel transport for an
// all-local tree described by the parent vector (parent[0] == -1): the
// tree twin of NewChanTransport.
func NewChanTreeTransport(parent []int) Transport {
	t := &chanTreeTransport{parent: append([]int(nil), parent...)}
	kids := make([]int, len(parent))
	for id := 1; id < len(parent); id++ {
		kids[parent[id]]++
	}
	t.links = make([]*chanTreeLink, len(parent))
	for id := range t.links {
		t.links[id] = &chanTreeLink{
			t:    t,
			id:   id,
			down: make(chan Message, 1),
			// The up mailbox is shared by all children; two slots per
			// child absorb a full round of state+ack announcements, and
			// anything beyond that is dropped as loss (masked by the
			// per-edge retransmission).
			up: make(chan UpMessage, 2*kids[id]+2),
		}
	}
	return t
}

func (t *chanTreeTransport) OpenTree(id int) (TreeLink, error) {
	if id < 0 || id >= len(t.links) {
		return nil, fmt.Errorf("ftbarrier: member %d out of range [0,%d)", id, len(t.links))
	}
	return t.links[id], nil
}

func (t *chanTreeTransport) Close() error { return nil }

type chanTreeLink struct {
	t    *chanTreeTransport
	id   int
	down chan Message   // announcements from the parent
	up   chan UpMessage // announcements from the children
}

func (l *chanTreeLink) SendDown(child int, m Message) {
	if child < 0 || child >= len(l.t.links) || l.t.parent[child] != l.id {
		return
	}
	dst := l.t.links[child].down
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

func (l *chanTreeLink) SendUp(m UpMessage) {
	p := l.t.parent[l.id]
	if p < 0 {
		return
	}
	dst := l.t.links[p].up
	select {
	case dst <- m:
		return
	default:
	}
	// Full: displace the oldest entry — a stale announcement some sibling
	// has already superseded — and retry; if that race is lost too, the
	// message is dropped as loss and the retransmission masks it.
	select {
	case <-dst:
	default:
	}
	select {
	case dst <- m:
	default:
	}
}

func (l *chanTreeLink) Down() <-chan Message { return l.down }
func (l *chanTreeLink) Up() <-chan UpMessage { return l.up }

func (l *chanTreeLink) Close() error { return nil }
