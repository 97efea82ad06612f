package runtime

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/tokenring"
)

// The table's oracle: the receive windows restated as data, independently
// of cell.go, and checked against admit and forge for every edge role and
// every frame over a small L and NPhases.

const (
	oracleL  = 5
	oracleNP = 3
)

// edgeRow is one row of DESIGN.md §13's table.
type edgeRow struct {
	name string
	role role
	ring bool
	// legal lists the legal sequence numbers as offsets from the
	// receiver's own sn (mod L).
	legal [2]int
}

var edgeRows = []edgeRow{
	{"ring follower ← predecessor", ahead, true, [2]int{0, 1}},
	{"ring leader ← last", behind, true, [2]int{oracleL - 1, 0}},
	{"tree child ← parent", ahead, false, [2]int{0, 1}},
	{"tree parent ← child (live)", behind, false, [2]int{oracleL - 1, 0}},
}

// oracleNode is a settled member with own state (sn, execute, ph) on a
// barrier that exists only to count.
func oracleNode(sn, ph int) *node {
	b := &Barrier{l: oracleL, nPhases: oracleNP}
	return &node{
		gate:   &gate{b: b, s: &sched{b: b}},
		triple: triple{tokenring.SN(sn), core.Execute, ph},
		from:   cell{triple: triple{cp: core.Execute}},
	}
}

func mod(a, m int) int { return ((a % m) + m) % m }

// wantHalf is the table for one triple: what a settled receiver with own
// (sn, ph) says to frame half f refreshing a copy at phase copyPH.
func wantHalf(legal [2]int, ack bool, sn, ph, copyPH int, f triple) rejectReason {
	d := mod(int(f.sn)-sn, oracleL)
	if d != legal[0] && d != legal[1] {
		return rejSeq
	}
	if ack {
		if d == 0 && f.ph != ph {
			return rejPhase
		}
		return rejNone
	}
	if dp := mod(f.ph-copyPH, oracleNP); dp > 1 {
		return rejPhase
	}
	return rejNone
}

func rejected(b *Barrier) map[rejectReason]int64 {
	st := b.Stats()
	return map[rejectReason]int64{rejSeq: st.RejectedSeq, rejPhase: st.RejectedPhase, rejTop: st.RejectedTop, rejSender: st.RejectedSender}
}

// Every one-triple edge × own sn × copy × (Δsn, Δph): admit accepts
// exactly what the table lists, stores by the row's store rule, labels
// each rejection as the table does and holds the frame for a second
// sighting, which it then adopts.
func TestCellAdmitMatchesTable(t *testing.T) {
	for _, row := range edgeRows {
		for sn := 0; sn < oracleL; sn++ {
			for copySN := 0; copySN < oracleL; copySN++ {
				for fsn := 0; fsn < oracleL; fsn++ {
					for fph := 0; fph < oracleNP; fph++ {
						const ph, copyPH = 1, 2
						n := oracleNode(sn, ph)
						n.from = cell{triple: triple{tokenring.SN(copySN), core.Execute, copyPH}, role: row.role, ring: row.ring}
						before := n.from.triple
						m := triple{tokenring.SN(fsn), core.Success, fph}.message()
						name := fmt.Sprintf("%s: own sn=%d copy=%v frame=%v", row.name, sn, before, m.triple())
						deliver := func() rejectReason {
							return admit(n, &n.seen, true, half{&n.from, m.triple()}, half{})
						}

						got := deliver()
						if row.ring && fsn == copySN {
							// The ring's once-per-sn rule comes before any window.
							if got != rejNone || n.from.triple != before || n.seen.held {
								t.Fatalf("%s: a sequence number the ring copy holds must be ignored", name)
							}
							continue
						}
						want := wantHalf(row.legal, false, sn, ph, copyPH, m.triple())
						if got != want {
							t.Fatalf("%s: admit = %d, table says %d", name, got, want)
						}
						stored := m.triple()
						if row.ring {
							stored.cp, stored.ph, _ = core.FollowerUpdate(before.cp, before.ph, m.CP, m.PH)
						}
						if want == rejNone {
							if n.from.triple != stored || n.seen.held {
								t.Fatalf("%s: accepted, copy = %v held = %v, want %v stored and nothing held", name, n.from.triple, n.seen.held, stored)
							}
							continue
						}
						if n.from.triple != before || !n.seen.held || n.seen.a != m.triple() {
							t.Fatalf("%s: rejected, but copy = %v (was %v), held = %v", name, n.from.triple, before, n.seen.held)
						}
						if c := rejected(n.b); c[want] != 1 || c[rejSeq]+c[rejPhase]+c[rejTop]+c[rejSender] != 1 {
							t.Fatalf("%s: rejection counted as %v, want one under reason %d", name, c, want)
						}
						if again := deliver(); again != rejNone || n.from.triple != stored || n.seen.held {
							t.Fatalf("%s: bit-identical second sighting not adopted: %d, copy = %v", name, again, n.from.triple)
						}
					}
				}
			}
		}
	}
}

// The up edge: every (Δsn, Δph) of the live half × every (Δack sn, Δack
// ph) of the acknowledgment half. The first half the table rejects names
// the reason, nothing of a rejected frame is stored, and an accepted one
// stores both halves plainly.
func TestCellAdmitUpMatchesTable(t *testing.T) {
	const sn, ph, livePH = 3, 1, 2
	behindWindow := [2]int{oracleL - 1, 0}
	for lsn := 0; lsn < oracleL; lsn++ {
		for lph := 0; lph < oracleNP; lph++ {
			for asn := 0; asn < oracleL; asn++ {
				for aph := 0; aph < oracleNP; aph++ {
					n := oracleNode(sn, ph)
					k := kidCopy{
						live: cell{triple: triple{sn, core.Execute, livePH}, role: behind},
						ack:  cell{triple: triple{sn - 1, core.Success, 0}, role: behind, ack: true},
					}
					before := k
					m := upMessage(7, triple{tokenring.SN(lsn), core.Execute, lph}, triple{tokenring.SN(asn), core.Success, aph})
					want := wantHalf(behindWindow, false, sn, ph, livePH, m.live())
					if want == rejNone {
						want = wantHalf(behindWindow, true, sn, ph, 0, m.acked())
					}
					got := admit(n, &k.seen, true, half{&k.live, m.live()}, half{&k.ack, m.acked()})
					if got != want {
						t.Fatalf("up frame live=%v ack=%v: admit = %d, table says %d", m.live(), m.acked(), got, want)
					}
					if want == rejNone {
						if k.live.triple != m.live() || k.ack.triple != m.acked() || k.seen.held {
							t.Fatalf("up frame live=%v ack=%v accepted but stored as %v / %v", m.live(), m.acked(), k.live.triple, k.ack.triple)
						}
					} else if k.live != before.live || k.ack != before.ack || !k.seen.held || k.seen.a != m.live() || k.seen.b != m.acked() || rejected(n.b)[want] != 1 {
						t.Fatalf("up frame live=%v ack=%v rejected (%d) but copies or slot or count disagree", m.live(), m.acked(), want)
					}
				}
			}
		}
	}
}

// The marker rules, the sender rule and the stand-aside: a ⊤ marker is
// rejected exactly while the receiver's own sn is ordinary; a settled tree
// copy leaves ⊥/⊤ unstored and a ring copy never stores one; a corrupted
// frame is a drop and a crashed member deaf; and an unsettled receiver
// stores whatever its cells take, in or out of window.
func TestCellMarkerUnsettled(t *testing.T) {
	top := cell{role: marker}
	if n := oracleNode(2, 0); top.check(n, triple{sn: tokenring.Top}) != rejTop {
		t.Error("⊤ at a receiver with an ordinary sn not rejected as topwindow")
	}
	if n := oracleNode(int(tokenring.Bot), 0); top.check(n, triple{sn: tokenring.Top}) != rejNone {
		t.Error("⊤ rejected at a receiver inside the restart wave")
	}

	for _, row := range edgeRows {
		n := oracleNode(2, 0)
		n.from = cell{triple: triple{2, core.Execute, 0}, role: row.role, ring: row.ring}
		deliver := func(tr triple) rejectReason {
			return admit(n, &n.seen, true, half{&n.from, tr}, half{})
		}
		before := n.from.triple
		for _, mark := range []tokenring.SN{tokenring.Bot, tokenring.Top} {
			if r := deliver(triple{mark, core.Error, 1}); r != rejNone || n.from.triple != before || n.seen.held {
				t.Errorf("%s: settled receiver did not ignore a %v frame", row.name, mark)
			}
		}

		n.cp = core.Repeat // unsettled: validation stands aside
		wild := triple{tokenring.SN(mod(2+3, oracleL)), core.Success, 2}
		if r := deliver(wild); r != rejNone || n.from.sn != wild.sn {
			t.Errorf("%s: unsettled receiver did not adopt an out-of-window frame (%d, copy %v)", row.name, r, n.from.triple)
		}
		if r := deliver(triple{tokenring.Bot, core.Error, 1}); r != rejNone || (n.from.sn == tokenring.Bot) == row.ring {
			t.Errorf("%s: unsettled receiver and a ⊥ frame: copy %v (a tree copy stores it, a ring copy never)", row.name, n.from.triple)
		}
		if c := rejected(n.b); c[rejSeq]+c[rejPhase]+c[rejTop]+c[rejSender] != 0 {
			t.Errorf("%s: markers and unsettled deliveries counted as rejections: %v", row.name, c)
		}
	}

	// A child's frame with a restart marker in both halves stores nothing
	// at a settled parent, yet clears what was held for that child.
	n := oracleNode(2, 0)
	k := kidCopy{live: cell{role: behind}, ack: cell{role: behind, ack: true}}
	k.seen.held = true
	reset := upMessage(7, triple{tokenring.Bot, core.Error, 1}, triple{tokenring.Bot, core.Error, 2})
	if r := admit(n, &k.seen, true, half{&k.live, reset.live()}, half{&k.ack, reset.acked()}); r != rejNone || k.seen.held || k.live.sn != 0 || k.ack.sn != 0 {
		t.Errorf("child's restart markers at a settled parent: admit = %d, held = %v, copies %v / %v", r, k.seen.held, k.live.triple, k.ack.triple)
	}

	if n.hears(false) || n.b.Stats().Drops != 1 || n.s.owed != 1 || !n.hears(true) {
		t.Errorf("corrupted frame: drops = %d owed = %d, want a drop that unbalances the ledger", n.b.Stats().Drops, n.s.owed)
	}
	if n.crashed = true; n.hears(true) {
		t.Error("a crashed member heard a frame")
	}
}

// forge is the table's complement: every frame it emits, on every edge,
// from every own position, is rejected by admit on first sighting; forged
// again from the same seed while that sighting is held it comes out
// different — never the held frame — and is rejected again; and a
// bit-identical second sighting is adopted.
func TestCellForgeIsTheComplement(t *testing.T) {
	// try forges twice with seed and delivers: the first forgery once, the
	// second twice. ok is false if the victim could not host the forgery.
	type verdicts struct{ first, second, confirm rejectReason }
	type edge struct {
		name string
		try  func(n *node, seed int64) (v verdicts, same, ok bool)
	}
	state := func(row edgeRow) edge {
		return edge{row.name, func(n *node, seed int64) (v verdicts, same, ok bool) {
			n.from.role, n.from.ring = row.role, row.ring
			deliver := func(m Message) rejectReason {
				return admit(n, &n.seen, m.Sum == m.Checksum(), half{&n.from, m.triple()}, half{})
			}
			t1, ok1 := forge(n, &n.from, &n.seen, seed, triple{})
			if !ok1 {
				return v, false, false
			}
			v.first = deliver(t1.message())
			t2, ok2 := forge(n, &n.from, &n.seen, seed, triple{})
			if !ok2 {
				return v, false, false
			}
			v.second, v.confirm = deliver(t2.message()), deliver(t2.message())
			return v, t1 == t2, true
		}}
	}
	var kid kidCopy
	edges := []edge{state(edgeRows[0]), state(edgeRows[1]), state(edgeRows[2]), {"tree parent ← child (ack)",
		func(n *node, seed int64) (v verdicts, same, ok bool) {
			live := triple{n.sn, kid.live.cp, kid.live.ph}
			frame := func(ack triple) UpMessage { return upMessage(7, live, ack) }
			deliver := func(m UpMessage) rejectReason {
				return admit(n, &kid.seen, m.Sum == m.Checksum(), half{&kid.live, m.live()}, half{&kid.ack, m.acked()})
			}
			a1, ok1 := forge(n, &kid.ack, &kid.seen, seed, live)
			if !ok1 {
				return v, false, false
			}
			v.first = deliver(frame(a1))
			a2, ok2 := forge(n, &kid.ack, &kid.seen, seed, live)
			if !ok2 {
				return v, false, false
			}
			v.second, v.confirm = deliver(frame(a2)), deliver(frame(a2))
			return v, a1 == a2, true
		}}}

	for _, nPhases := range []int{2, oracleNP} {
		for _, e := range edges {
			hosted := 0
			for sn := 0; sn < oracleL; sn++ {
				for copyOff := -1; copyOff <= 1; copyOff++ {
					for seed := int64(0); seed < 40; seed++ {
						n := oracleNode(sn, 1)
						n.b.nPhases = nPhases
						copySN := tokenring.SN(mod(sn+copyOff, oracleL))
						n.from.triple = triple{copySN, core.Execute, 1}
						kid = kidCopy{
							live: cell{triple: triple{copySN, core.Execute, 1}, role: behind},
							ack:  cell{triple: triple{copySN, core.Success, 0}, role: behind, ack: true},
						}
						v, same, ok := e.try(n, seed)
						if !ok {
							continue
						}
						hosted++
						bad := func(r rejectReason) bool { return r == rejNone || r == rejSender }
						if bad(v.first) || bad(v.second) || v.confirm != rejNone || same {
							t.Fatalf("%s NPhases=%d own sn=%d copy sn=%v seed=%d: verdicts %+v, same frame twice = %v; want rejected, a different frame rejected, then adopted",
								e.name, nPhases, sn, copySN, seed, v, same)
						}
						if c := rejected(n.b); c[rejSeq]+c[rejPhase] != 2 {
							t.Fatalf("%s NPhases=%d seed=%d: two forgeries delivered, rejections counted %v", e.name, nPhases, seed, c)
						}
					}
				}
			}
			if hosted == 0 {
				t.Errorf("%s NPhases=%d: no forgery was ever hosted", e.name, nPhases)
			}
		}
	}
}
