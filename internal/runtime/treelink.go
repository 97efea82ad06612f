// Tree-link abstraction: the double-tree runtime (Config.Topology ==
// TopologyTree) replaces the ring's two edges per member with tree edges —
// state announcements flow DOWN from a parent to each child, and combined
// state+acknowledgment announcements flow UP from each child to its
// parent. The delivery contract is the ring Link contract unchanged:
// best-effort, non-blocking, latest-state-wins, corruption detectable via
// the end-to-end checksum; the periodic per-edge retransmission makes
// loss, duplication and detected corruption equivalent to delay. A down
// announcement is the ring's state frame on a tree edge — one Message,
// received through the same upstream path (node.onState); only the up
// frame, with its acknowledgment half, is the tree's own.
package runtime

import (
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
	// Notify registers the scheduler's input hook, which the link calls
	// after each post to Down or Up (see the Link contract).
	Notify(func())
	// Close tears down any goroutines and connections serving this link.
	// It must not close the Down/Up channels.
	Close() error
}

// TreeTransport supplies the tree links for a TopologyTree or
// TopologyHybrid barrier. A transport is built for a fixed tree (parent
// vector) over host indices — a flat tree's hosts are its members — and
// OpenTree is called once per host this process runs.
type TreeTransport interface {
	// OpenTree returns node id's tree link.
	OpenTree(id int) (TreeLink, error)
	// Close tears the whole transport down (see Transport.Close).
	Close() error
}
