// The neighbour-copy cell: everything a member knows about a neighbour is
// a local copy refreshed by a message (the paper's MB, Section 5), and
// this file is the only code that writes one. It holds the receive
// windows that close the forged-frame hole, the two-sighting slot that
// keeps them from livelocking stabilization, and the Byzantine
// adversary's crafter, which is the windows' complement.
//
// The conformance fuzzer proved that a single well-formed, valid-checksum
// forged frame could complete a barrier at the wrong phase: the follower
// update copies the phase of whatever the copy cell last adopted, so one
// lie propagates around the ring (or down the tree) before the genuine
// retransmission overrides it. The defense is a receive window derived
// from the token discipline itself. MB's superposition invariant bounds
// the sequence numbers of any two neighbors:
//
//	sn_0 ≥ sn_1 ≥ … ≥ sn_{n-1} ≥ sn_0 − 1   (cyclically, mod L)
//
// so what a genuine NEW frame may carry depends only on which way the
// edge points. That is the table, one row per edge role, windows relative
// to the RECEIVER'S OWN sn and ph (not to the copy: the copy may trail):
//
//	role    edges                          sn window   phase rule
//	ahead   ring follower ← predecessor    {sn, sn+1}  {copy, copy+1}
//	        tree child ← parent
//	behind  ring leader ← last process     {sn−1, sn}  {copy, copy+1}
//	        tree parent ← child, live half
//	        tree parent ← child, ack half  {sn−1, sn}  ack of wave sn carries own ph
//	marker  ring ← successor (⊤)           none: rejected while own sn is ordinary
//
// and one column per protocol:
//
//	        marker rule (⊥/⊤ in a state frame)    store rule
//	ring    never stored                          follower statement, once per sn
//	tree    stored only while unsettled           plain store
//
// The phase counter advances at most once per wave, hence {copy, copy+1}
// (mod NPhases). An acknowledgment of the receiver's CURRENT wave must
// carry the receiver's own phase — that is precisely the frame the
// original forgery used to complete a barrier at the wrong phase. The
// windows only hold in steady state, so they are enforced only while the
// receiver is "settled" (own sequence number ordinary, own and upstream
// control positions coherent); during recovery the paper's fault branches
// need to see arbitrary values and validation stands aside. A copy that
// is read (sched.pullRound) and a copy that is told pass the same admit.
//
// Rejection alone would livelock stabilization: after an undetectable
// fault the GENUINE neighbor state can sit outside the window, and the
// receiver must eventually adopt it. Rejected frames are therefore held
// as a pending sighting: a bit-identical second sighting — which the
// periodic retransmission of a genuine sender supplies within a resend
// period or two, and which a single forged frame by definition is not —
// confirms the frame and is adopted. A single forger therefore cannot
// advance any correct member's phase; a persistent adversary replaying
// the identical forgery every period degrades the tolerance to the
// paper's stabilizing class, no worse than the pre-defense behavior.
//
// Every rejection is counted in barrier_rejected_frames_total{reason}:
// "seqwindow" (sequence number outside the legal window), "phasewindow"
// (sequence legal but phase outside the window, or a current-wave
// acknowledgment with a foreign phase), "topwindow" (a ⊤ marker while
// the receiver's own sequence number is ordinary — ⊤ is only meaningful
// to a process already in the restart wave), and "sender" (a frame whose
// claimed sender does not exist on this edge).
package runtime

import (
	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/tokenring"
)

// rejectReason labels a frame rejection for the per-reason counter.
type rejectReason uint8

const (
	rejNone rejectReason = iota
	rejSeq
	rejPhase
	rejTop
	rejSender
)

func (b *Barrier) countReject(r rejectReason) {
	switch r {
	case rejSeq:
		b.statRejSeq.Add(1)
	case rejPhase:
		b.statRejPhase.Add(1)
	case rejTop:
		b.statRejTop.Add(1)
	case rejSender:
		b.statRejSender.Add(1)
	}
}

// coherentCP reports whether cp is a steady-state control position (not a
// recovery marker).
func coherentCP(cp core.CP) bool {
	return cp == core.Ready || cp == core.Execute || cp == core.Success
}

// triple is MB's (sn, cp, ph): a member's own state, and what every frame
// half carries and every cell copies.
type triple struct {
	sn tokenring.SN
	cp core.CP
	ph int
}

// message is the state frame announcing t.
func (t triple) message() Message {
	m := Message{SN: t.sn, CP: t.cp, PH: t.ph}
	m.Sum = m.Checksum()
	return m
}

func (m Message) triple() triple { return triple{m.SN, m.CP, m.PH} }

// upMessage is the convergecast frame of child, announcing its live state
// and its subtree acknowledgment.
func upMessage(child int, live, ack triple) UpMessage {
	m := UpMessage{
		Child: child,
		SN:    live.sn, CP: live.cp, PH: live.ph,
		AckSN: ack.sn, AckCP: ack.cp, AckPH: ack.ph,
	}
	m.Sum = m.Checksum()
	return m
}

func (m UpMessage) live() triple  { return triple{m.SN, m.CP, m.PH} }
func (m UpMessage) acked() triple { return triple{m.AckSN, m.AckCP, m.AckPH} }

// volatile is a piece of protocol state that a process fault takes: a
// member's own triples, its cells, its held sightings (node.memory).
type volatile interface {
	// reset is the detectable fault: ⊥, error, an arbitrary phase.
	reset(rng *prng.PRNG, nPhases int)
	// scramble is the undetectable one: arbitrary domain values.
	scramble(rng *prng.PRNG, l, nPhases int)
}

func (t *triple) reset(rng *prng.PRNG, nPhases int) {
	*t = triple{tokenring.Bot, core.Error, rng.Intn(nPhases)}
}

func (t *triple) scramble(rng *prng.PRNG, l, nPhases int) {
	*t = triple{randomSN(rng, l), core.CP(rng.Intn(core.NumCP)), rng.Intn(nPhases)}
}

// randomSN draws uniformly over [0,L) ∪ {⊥,⊤} — the domain a scramble or
// a spurious message may leave in a sequence-number cell.
func randomSN(rng *prng.PRNG, l int) tokenring.SN {
	switch v := rng.Intn(l + 2); v {
	case l:
		return tokenring.Bot
	case l + 1:
		return tokenring.Top
	default:
		return tokenring.SN(v)
	}
}

// role is which way an edge points (the table's rows).
type role uint8

const (
	ahead  role = iota // the neighbour runs at most one wave ahead of the receiver
	behind             // the neighbour runs at most one wave behind it
	marker             // the ring successor, of which only the ⊤ marker is copied (MB's snR)
)

// cell is a member's copy of one triple a neighbour announces, with its
// place in the table. A fault resets or scrambles it like any other triple
// (volatile); apart from that only store writes it (barriervet seqwindow).
type cell struct {
	triple
	role role
	ack  bool // the acknowledgment half of a child's frame
	ring bool // a ring copy (else a tree copy): the marker and store rules
}

// wrap is v mod m for a v at most one step outside [0, m) — which is every
// v but the garbage a fault can leave — without dividing on the way.
func wrap(v, m int) int {
	if v < 0 || v >= m {
		v = (v%m + m) % m
	}
	return v
}

// seqWindow returns the two sequence numbers a genuine frame on this edge
// may carry, per the token-discipline invariant.
func (c *cell) seqWindow(n *node) (lo, hi tokenring.SN) {
	if c.role == behind {
		return tokenring.SN(wrap(int(n.sn)-1, n.b.l)), n.sn
	}
	return n.sn, tokenring.SN(wrap(int(n.sn)+1, n.b.l))
}

// phaseWindow returns the phases a genuine frame carrying sn may carry:
// width consecutive phases from first — or width 0 when the table leaves
// the phase free (the acknowledgment of the previous wave).
func (c *cell) phaseWindow(n *node, sn tokenring.SN) (first, width int) {
	switch {
	case !c.ack:
		return c.ph, 2
	case sn == n.sn:
		return n.ph, 1
	}
	return 0, 0
}

// check reads the table for t arriving at a settled receiver (for the ⊤
// marker: at any receiver); the caller has applied takes.
func (c *cell) check(n *node, t triple) rejectReason {
	if c.role == marker {
		// A settled process is not in the restart wave, and the marker is
		// only ever consumed by T4' with sn = ⊥ (every path into which
		// clears it), so a ⊤ arriving while sn is ordinary is either stale
		// or a forgery trying to trigger a spurious whole-ring restart. A
		// genuine sender retransmits, and the marker is accepted once the
		// receiver itself has entered the wave.
		if n.sn.Ordinary() {
			return rejTop
		}
		return rejNone
	}
	if t.sn != n.sn { // in every window, and the common case: skip the arithmetic
		if lo, hi := c.seqWindow(n); t.sn != lo && t.sn != hi {
			return rejSeq
		}
	}
	if first, width := c.phaseWindow(n, t.sn); width > 0 && t.ph != first &&
		(width == 1 || t.ph != wrap(first+1, n.b.nPhases)) {
		return rejPhase
	}
	return rejNone
}

// takes is the marker rule and the ring's once-per-sn rule: whether t is
// anything this cell could store. A ring copy never holds ⊥/⊤ and takes a
// sequence number once (the follower statement is not idempotent); a tree
// copy must show ⊥/⊤ to the bottom-up resynchronization and the restart
// wave, which run only while the receiver is itself unsettled — its own
// reset clears the copy before they matter.
func (c *cell) takes(t triple, settled bool) bool {
	if c.ring {
		return t.sn.Ordinary() && t.sn != c.sn
	}
	return !settled || t.sn.Ordinary()
}

// store is the store rule. A ring copy evolves by the same follower
// statement as a real process (Section 5: "identical to the superposed
// action T2"); a tree copy and the ⊤ marker are plain.
func (c *cell) store(t triple) {
	if c.ring {
		t = c.follow(t)
	}
	c.triple = t
}

func (c *cell) follow(t triple) triple {
	t.cp, t.ph, _ = core.FollowerUpdate(c.cp, c.ph, t.cp, t.ph)
	return t
}

// stale reports whether a co-hosted neighbour's output register t differs
// from this copy of it, so that a pull should take it through admit. Of a
// ring copy only sn is comparable (cp and ph evolve by the follower
// statement); of the successor only ⊤ is copied at all.
func (c *cell) stale(t triple) bool {
	switch {
	case c.role == marker:
		return t.sn == tokenring.Top && c.sn != tokenring.Top
	case c.ring:
		return t.sn != c.sn
	}
	return t != c.triple
}

// slot is an edge's two-sighting slot: the triples of the last frame its
// windows turned away — a and, for a child's frame, b, as admit names them.
// They identify the frame exactly: its checksum held before it got here,
// and a child's slot only ever sees that child. Per edge — two
// out-of-window children sharing one slot would alternate and never
// confirm.
type slot struct {
	a, b triple
	held bool
}

// holds reports whether the frame carrying a and b is the pending sighting.
func (s *slot) holds(a, b triple) bool { return s.held && s.a == a && s.b == b }

// confirm is hold-then-confirm for the frame carrying a and b; r is what
// the windows said about it. A frame they pass clears the slot, so a
// one-shot forgery can never be confirmed by later genuine traffic.
func (s *slot) confirm(a, b triple, r rejectReason) bool {
	if r == rejNone || s.holds(a, b) {
		// In the window, or a bit-identical second sighting: a genuine
		// sender's retransmission confirms the frame.
		s.held = false
		return true
	}
	s.a, s.b, s.held = a, b, true
	return false
}

func (s *slot) reset(*prng.PRNG, int)         { s.held = false }
func (s *slot) scramble(*prng.PRNG, int, int) { s.held = false }

// half pairs a triple a frame carries with the cell it would refresh.
type half struct {
	c *cell
	t triple
}

// hears reports whether a frame reaches the member's protocol at all: a
// crashed member is deaf, and a frame that fails its checksum (sumOK false)
// is detected corruption — dropped; the retransmission masks it, at the
// next quiescence if the sender is co-hosted (sched.pullRound).
func (n *node) hears(sumOK bool) bool {
	if n.crashed {
		return false
	}
	if !sumOK {
		n.b.statDrops.Add(1)
		n.s.owed++
	}
	return sumOK
}

// admit is the one way a received — or pulled — frame reaches the copies:
// a frame arrived on the edge whose slot is s, carrying a.t for a.c and, if
// it is a child's frame, its acknowledgment half b.t for b.c. It reports the
// rejection, if the windows made one. While the receiver is unsettled
// validation stands aside and everything the cells take is stored.
func admit(n *node, s *slot, sumOK bool, a, b half) rejectReason {
	if !n.hears(sumOK) {
		return rejNone
	}
	settled := n.settled()
	takeA, takeB := a.c.takes(a.t, settled), b.c != nil && b.c.takes(b.t, settled)
	if !takeA && b.c == nil {
		// A one-triple frame its cell does not take is ignored outright. A
		// child's frame goes on even then: restart markers in both halves
		// clear what was held for that child.
		return rejNone
	}
	if settled {
		r := rejNone
		if takeA {
			r = a.c.check(n, a.t)
		}
		if takeB && r == rejNone {
			r = b.c.check(n, b.t)
		}
		if !s.confirm(a.t, b.t, r) {
			n.b.countReject(r)
			return r
		}
	}
	if takeA {
		a.c.store(a.t)
	}
	if takeB {
		b.c.store(b.t)
	}
	return rejNone
}

// byzSkipped reclassifies an accepted Byzantine injection whose victim
// could not host the forgery — crashed, or mid-recovery where validation
// stands aside — as a dropped injection. Keeping the accepted counter
// equal to the forgeries actually delivered preserves the conformance
// oracle: in a byz-only schedule, rejected frames == accepted injections,
// exactly.
func (b *Barrier) byzSkipped() {
	b.statInjByz.Add(-1)
	b.statInjDropped.Add(1)
}

// forge crafts the Byzantine adversary's triple for cell c of victim n —
// the table's complement, from the victim's own view: the strongest
// position an adversary on the edge can reach, since a real one observes
// at most what the victim announces. A forged acknowledgment rides in a
// child's frame whose live half is live (ignored for any other cell);
// the frame is never the one s holds, so each injection is rejected
// exactly once. ok is false, and the injection reclassified, when the
// victim cannot host a forgery: an unsettled or crashed one is in a
// recovery whose stabilizing tolerance covers arbitrary state anyway, and
// a ring copy deaf to the forged sn (a transiently stale copy colliding
// with a stale-sequence echo) would let it land on deaf ears and
// under-count the rejected == accepted identity.
func forge(n *node, c *cell, s *slot, seed int64, live triple) (t triple, ok bool) {
	if n.crashed || !n.settled() {
		n.b.byzSkipped()
		return t, false
	}
	fresh := func() bool { // t's frame is not the pending sighting
		if c.ack {
			return !s.holds(live, t)
		}
		return !s.holds(t, triple{})
	}
	rng := prng.New(seed)
	l, np := n.b.l, n.b.nPhases
	lo, hi := c.seqWindow(n)
	// Wrong-phase replay: the sequence number of the next genuine frame
	// and a phase outside the window — the shape of the original fuzz
	// counterexample; on the acknowledgment half, a completion of the
	// victim's CURRENT wave at a foreign phase.
	t = triple{sn: hi, cp: c.cp}
	if c.ring && t.sn == c.sn {
		t.sn = lo // a ring copy is deaf to the sequence number it holds
	}
	if c.ack {
		t.cp = core.Success
	}
	first, width := c.phaseWindow(n, t.sn)
	crafted := false
	if span := np - width; span > 0 && rng.Intn(2) == 0 {
		off := width + rng.Intn(span)
		for tries := 0; tries < 2 && !crafted; tries++ {
			t.ph = (first + off) % np
			crafted = fresh()
			off = width + (off-width+1)%span
		}
	}
	// Stale-sequence echo: a well-formed frame whose sequence number lies
	// outside the receive window.
	span := l - 2
	for off := rng.Intn(span); !crafted; off = (off + 1) % span {
		t = triple{tokenring.SN((int(lo) + 2 + off) % l), c.cp, c.ph}
		crafted = fresh()
	}
	if !c.takes(t, true) {
		n.b.byzSkipped()
		return t, false
	}
	return t, true
}
