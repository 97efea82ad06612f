// The double tree's own frame: the runtime's tree topology
// (Config.Topology == TopologyTree or TopologyHybrid) replaces the ring's
// two edges per member with tree edges — state announcements flow DOWN
// from a parent to each child, and combined state+acknowledgment
// announcements flow UP from each child to its parent — over the same
// Link and Transport as the ring (link.go), under the same contract. A
// down announcement is the ring's state frame on a tree edge — one
// Message, received through the same upstream path (node.onState); only
// the up frame, with its acknowledgment half, is the tree's own.
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
