// The double-tree runtime: a message-passing refinement of program DT
// (Figure 2d; package dtree is the guarded-command original) in the same
// way the ring runtime refines MB from RB. One tree is used twice — down
// it, waves disseminate from the root toward the leaves (action D.j); up
// it, a convergecast detects completion from the leaves back to the root
// (action U.j); the root closes the cycle by advancing the wave when its
// whole tree has acknowledged (action R.0). A barrier pass costs three
// waves of 2h hops each, h = O(log N), against the ring's 3N.
//
// The superposition discipline is MB's: each node keeps local copies of
// its parent's announced (sn, cp, ph) and, per child, of the child's
// announced live state and acknowledgment summary. Copies are refreshed by
// per-edge announcements — retransmitted periodically, so message loss,
// duplication and detected corruption are equivalent to delay — and every
// guarded action reads only the node's own state and its copies. The
// convergecast keeps every copy at most one wave stale in fault-free runs
// (the root cannot advance past a wave its whole tree has not
// acknowledged), and the fault branches (the root and bottom-up
// resynchronizations, the ⊤ restart wave) mark recovery waves repeat so
// the interrupted phase is re-executed, exactly as in DT.
package runtime

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/tokenring"
	"repro/internal/topo"
)

// startTree wires the double-tree topology: with no transport one
// scheduler hosts the whole k-ary tree; over a transport the tree is the
// hybrid whose hosts each have one member (its member tree and host tree
// are both the k-ary heap), and startHosts gives each hosted member a
// scheduler attached to its link.
func (b *Barrier) startTree(cfg Config, members []int, ln *lane) error {
	// Unlike the ring procs (which start mid-phase, in execute), tree procs
	// start in DT's start state — wave 0 fully acknowledged, everyone ready
	// in phase 0 — so the begins of phase 0 are emitted by the protocol
	// itself when the first wave rolls; no implicit events are needed here.
	if cfg.Transport == nil {
		// Every member is local (Members requires an explicit Transport).
		tree, err := topo.NewKAryTree(b.n, treeArity(cfg))
		if err != nil {
			return fmt.Errorf("ftbarrier: %w", err)
		}
		b.startFusedTree(cfg, tree, ln)
		return nil
	}
	hosts := make([][]int, b.n)
	for id := range hosts {
		hosts[id] = []int{id}
	}
	hy, err := topo.NewHybridTree(hosts, treeArity(cfg))
	if err != nil {
		return fmt.Errorf("ftbarrier: %w", err)
	}
	return b.startHosts(cfg, hy, members, ln)
}

// addTree creates tree member id on this scheduler.
func (s *sched) addTree(cfg Config, ln *lane, id int, tree *topo.Tree) {
	tp := newTreeProc(newGate(s, id, ln.idx), tree.Parent[id], tree.Children[id], cfg)
	s.members[id] = tp
	ln.tprocs[id], ln.gates[id] = tp, tp.gate
}

// kidCopy is what a tree node holds of one child: a cell for each half of
// its convergecast frames — the live state, read by the resynchronization
// and restart actions, and the subtree acknowledgment, read by the node's
// own convergecast — and the last such frame the windows turned away.
type kidCopy struct {
	live, ack cell
	seen      slot
}

// treeProc is one DT process: the protocol state of a tree member, owned
// by the scheduler that hosts it.
type treeProc struct {
	node // own triple; from copies the parent's announced state

	parentID int   // -1 at the root
	kids     []int // child member ids, increasing

	ack triple    // the subtree acknowledgment (DT)
	kid []kidCopy // indexed like kids

	lastUp     UpMessage // the up register (the down one is node.lastSent)
	haveSentUp bool
}

func newTreeProc(g *gate, parentID int, kids []int, cfg Config) *treeProc {
	// DT's start state: wave 0 disseminated and acknowledged, everyone
	// ready in phase 0 — the root's first increment begins phase 0.
	ready := triple{cp: core.Ready}
	tp := &treeProc{
		node: node{
			gate:   g,
			triple: ready,
			from:   cell{triple: ready, role: ahead},
			rng:    prng.New(cfg.Seed + int64(g.id)*7919),
		},
		parentID: parentID,
		kids:     append([]int(nil), kids...),
		ack:      ready,
		kid:      make([]kidCopy, len(kids)),
	}
	// memory holds the cells this member's role has. A root has no parent,
	// so its parent copy stays the coherent start value nothing refreshes:
	// a fault that took it would leave the root unsettled (node.settled)
	// for good, and its windows standing aside for the rest of the run.
	tp.memory = append(make([]volatile, 0, 4+3*len(kids)), &tp.triple, &tp.ack)
	if parentID >= 0 {
		tp.memory = append(tp.memory, &tp.from, &tp.seen)
	}
	for i := range tp.kid {
		tp.kid[i] = kidCopy{
			live: cell{triple: ready, role: behind},
			ack:  cell{triple: ready, role: behind, ack: true},
		}
		k := &tp.kid[i]
		tp.memory = append(tp.memory, &k.live, &k.ack, &k.seen)
	}
	if cfg.Rejoin {
		tp.lose()
	}
	return tp
}

// kidOf returns the copy held of child id, or nil if this node has no such
// child.
func (tp *treeProc) kidOf(id int) *kidCopy {
	for i, c := range tp.kids {
		if c == id {
			return &tp.kid[i]
		}
	}
	return nil
}

// onUp refreshes the local copies of one child's live state and summary.
// The frame comes by pointer, which keeps a copy of it out of the frames
// of the co-hosted delivery path (sched.copyHops), which a participant's
// turn runs on its own stack.
func (tp *treeProc) onUp(m *UpMessage) {
	sumOK := m.Sum == m.Checksum()
	k := tp.kidOf(m.Child)
	if k == nil {
		// A child id this node does not have: a well-formed frame that
		// cannot be attributed to any edge of this node — a sender violation.
		if tp.hears(sumOK) {
			tp.b.countReject(rejSender)
		}
		return
	}
	admit(&tp.node, &k.seen, sumOK, half{&k.live, m.live()}, half{&k.ack, m.acked()})
}

func (tp *treeProc) onCtrl(c ctrlMsg) { tp.ctrl(c, tp) }

func (tp *treeProc) forget() { tp.haveSent, tp.haveSentUp = false, false }

// onByz delivers a Byzantine forgery to this node: a parent announcement
// through the parent copy's windows, or a convergecast frame claiming to
// come from child c.from, forged in its acknowledgment half — the live
// half is kept benign so the rejection is attributed to the forged
// acknowledgment alone. An adversary that is not a child of this node
// lands in the sender rejection, like any unattributable frame.
func (tp *treeProc) onByz(c ctrlMsg) {
	if c.kind == ctrlByzDown {
		tp.byzState(c.seed)
		return
	}
	k := tp.kidOf(c.from)
	if k == nil {
		tp.b.countReject(rejSender)
		return
	}
	live := triple{tp.sn, k.live.cp, k.live.ph}
	if ack, ok := forge(&tp.node, &k.ack, &k.seen, c.seed, live); ok {
		m := upMessage(c.from, live, ack)
		tp.onUp(&m)
	}
}

// onSpurious receives a frame drawn from seed: a parent announcement at a
// non-root, at the root a drawn child's convergecast frame.
func (tp *treeProc) onSpurious(seed int64) {
	rng := prng.New(seed)
	draw := func() (t triple) {
		t.scramble(&rng, tp.b.l, tp.b.nPhases)
		return t
	}
	if tp.parentID < 0 {
		child := tp.kids[rng.Intn(len(tp.kids))]
		m := upMessage(child, draw(), draw())
		tp.onUp(&m)
		return
	}
	tp.onState(draw().message())
}

// step applies every enabled DT action to quiescence: D.j/B.j (or R.0 at
// the root), U.j, and the ⊤ restart wave T3/T4/T5.
func (tp *treeProc) step() {
	if tp.crashed {
		return
	}
	for {
		changed := false
		if tp.parentID < 0 {
			changed = tp.stepRoot() || changed
		} else {
			changed = tp.stepDown() || changed
			changed = tp.stepBottomUp() || changed
		}
		changed = tp.stepAck() || changed
		changed = tp.stepRestart() || changed
		if !changed {
			return
		}
	}
}

// stepRoot is action R.0: the root advances the wave when its whole tree
// has acknowledged; a detectably corrupted root resynchronizes from the
// live state of a non-corrupted child (never from an acknowledgment
// summary, which may describe an older wave), the recovery wave marked
// repeat so the current phase is re-executed.
func (tp *treeProc) stepRoot() bool {
	if tp.sn.Ordinary() {
		if tp.ack.sn != tp.sn {
			return false
		}
		cpN, phN := tp.foldKidAcks()
		if tp.cp == core.Error || tp.cp == core.Repeat {
			// The root lost its own phase: recover it from a live child's
			// announced state rather than a possibly stale summary.
			for i := range tp.kids {
				if tp.kid[i].live.sn.Ordinary() {
					phN = tp.kid[i].live.ph
					break
				}
			}
		}
		newCP, newPH, out := core.LeaderUpdate(tp.cp, tp.ph, cpN, phN, tp.b.nPhases)
		// The work gate: the completion transition waits for the root's
		// participant to arrive at the barrier.
		if out == core.OutComplete && tp.completionBlocked() {
			return false
		}
		oldPH := tp.ph
		tp.sn = tokenring.SN((int(tp.sn) + 1) % tp.b.l)
		tp.cp = newCP
		tp.ph = newPH
		tp.applyOutcome(out, oldPH, newPH)
		return true
	}
	if tp.sn == tokenring.Bot {
		for i := range tp.kids {
			if tp.kid[i].live.sn.Ordinary() {
				tp.sn = tokenring.SN((int(tp.kid[i].live.sn) + 1) % tp.b.l)
				tp.cp = core.Repeat
				tp.ph = tp.kid[i].live.ph
				return true
			}
		}
	}
	return false
}

// stepDown is action D.j: adopt the parent's wave.
func (tp *treeProc) stepDown() bool {
	if !tp.from.sn.Ordinary() || tp.sn == tp.from.sn {
		return false
	}
	newCP, newPH, out := core.FollowerUpdate(tp.cp, tp.ph, tp.from.cp, tp.from.ph)
	// The work gate, as in D.j's guard: the completing wave waits for this
	// node's participant.
	if out == core.OutComplete && tp.completionBlocked() {
		return false
	}
	oldPH := tp.ph
	tp.sn = tp.from.sn
	tp.cp = newCP
	tp.ph = newPH
	tp.applyOutcome(out, oldPH, newPH)
	return true
}

// stepBottomUp is action B.j: an internal node whose sequence number was
// corrupted while its parent's is too (so the down wave cannot repair it)
// adopts a live child's wave and phase, marked repeat. Without it a
// simultaneous corruption of a whole root-path would deadlock.
func (tp *treeProc) stepBottomUp() bool {
	if tp.sn.Ordinary() || tp.from.sn.Ordinary() {
		return false
	}
	for i := range tp.kids {
		if tp.kid[i].live.sn.Ordinary() {
			tp.sn = tp.kid[i].live.sn
			tp.cp = core.Repeat
			tp.ph = tp.kid[i].live.ph
			return true
		}
	}
	return false
}

// stepAck is action U.j: acknowledge the current wave once every child
// has, folding the children's summaries with this node's own state —
// disagreement reads as repeat, forcing the root to re-execute.
func (tp *treeProc) stepAck() bool {
	own := tp.triple
	if !own.sn.Ordinary() || tp.ack.sn == own.sn {
		return false
	}
	for i := range tp.kid {
		k := &tp.kid[i].ack
		if k.sn != own.sn {
			return false
		}
		if k.cp != own.cp || k.ph != own.ph {
			own.cp = core.Repeat
		}
	}
	tp.ack = own
	return true
}

// stepRestart is the whole-tree-corruption restart wave: T3 (a leaf turns
// ⊥ into ⊤), T4 (an inner node whose children all reached ⊤ follows), T5
// (the root turns ⊤ into wave 0, restarting the tree).
func (tp *treeProc) stepRestart() bool {
	if tp.sn == tokenring.Bot {
		if len(tp.kids) == 0 {
			tp.sn = tokenring.Top // T3
			return true
		}
		for i := range tp.kids {
			if tp.kid[i].live.sn != tokenring.Top {
				return false
			}
		}
		tp.sn = tokenring.Top // T4
		return true
	}
	if tp.parentID < 0 && tp.sn == tokenring.Top {
		tp.sn = 0 // T5
		return true
	}
	return false
}

// foldKidAcks merges the children's summaries (what R.0 passes to the
// leader update: the state of all non-root processes).
func (tp *treeProc) foldKidAcks() (core.CP, int) {
	cp, ph := tp.kid[0].ack.cp, tp.kid[0].ack.ph
	for i := 1; i < len(tp.kids); i++ {
		if tp.kid[i].ack.cp != cp || tp.kid[i].ack.ph != ph {
			cp = core.Repeat
		}
	}
	return cp, ph
}

// pull is the tree member's share of a pull round (see proc.pull): the
// parent's down register against the parent copy (pullFrom), each child's
// lastUp against that child's live and acknowledgment copies. While this
// node is settled the cells leave ⊥/⊤ unstored, so such a register keeps
// differing and is re-read once per round — never more (sched.pullRound).
func (tp *treeProc) pull() (pulls int) {
	if tp.parentID >= 0 {
		pulls = tp.pullFrom(tp.s.peer(tp.parentID))
	}
	for i, c := range tp.kids {
		kid, k := tp.s.treePeer(c), &tp.kid[i]
		if kid == nil || !kid.haveSentUp {
			continue
		}
		if u := &kid.lastUp; k.live.stale(u.live()) || k.ack.stale(u.acked()) {
			tp.onUp(u)
			pulls++
		}
	}
	return pulls
}

// announce sends the node's current state down every child edge and its
// state+acknowledgment up the parent edge, if they changed since the last
// send, through the scheduler, which makes the loss and corruption draws.
func (tp *treeProc) announce() {
	if tp.crashed {
		return
	}
	if len(tp.kids) > 0 && tp.restate() {
		for _, c := range tp.kids {
			tp.s.sendState(&tp.node, c, tp.lastSent)
		}
	}
	if tp.parentID >= 0 && (!tp.haveSentUp || tp.upUrgent()) {
		tp.lastUp = upMessage(tp.id, tp.triple, tp.ack)
		tp.haveSentUp = true
		tp.noteSent()
		tp.s.sendUp(tp)
	}
}

// upUrgent decides whether a changed up announcement is sent eagerly or
// left to the periodic retransmission. The parent acts immediately only on
// the acknowledgment summary (its convergecast, action U.j) and on a
// non-ordinary live sequence number (the ⊤ restart wave, T4); the ordinary
// live state is read only by the tick-paced recovery actions, so an
// internal node that just adopted a wave need not wake its parent — the
// acknowledgment it sends moments later carries the same live state. This
// halves an internal node's up traffic per wave.
func (tp *treeProc) upUrgent() bool {
	return tp.ack != tp.lastUp.acked() || !tp.sn.Ordinary() && tp.triple != tp.lastUp.live()
}
