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
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/tokenring"
	"repro/internal/topo"
)

// startTree wires the double-tree topology: with no transport one
// scheduler hosts the whole tree over direct-copy links, otherwise each
// hosted member gets a scheduler attached to the link the transport opens
// for it.
func (b *Barrier) startTree(cfg Config, members []int, ln *lane) error {
	arity := cfg.TreeArity
	if arity == 0 {
		arity = 2
	}
	tree, err := topo.NewKAryTree(b.n, arity)
	if err != nil {
		return fmt.Errorf("ftbarrier: %w", err)
	}
	if cfg.Transport == nil {
		// Every member is local (Members requires an explicit Transport).
		b.startFusedTree(cfg, tree, ln)
		return nil
	}
	tt, ok := cfg.Transport.(TreeTransport)
	if !ok {
		return errors.New("ftbarrier: Topology == TopologyTree requires a tree transport (NewChanTreeTransport, transport.NewTCPTree)")
	}
	for _, j := range members {
		link, err := tt.OpenTree(j)
		if err != nil {
			return fmt.Errorf("ftbarrier: open tree link for member %d: %w", j, err)
		}
		s := newSched(b, cfg, ln, false)
		s.treeIn = s.addTree(cfg, ln, j, tree, link)
		s.extDown, s.extUp = link.Down(), link.Up()
	}
	// Unlike the ring procs (which start mid-phase, in execute), tree procs
	// start in DT's start state — wave 0 fully acknowledged, everyone ready
	// in phase 0 — so the begins of phase 0 are emitted by the protocol
	// itself when the first wave rolls; no implicit events are needed here.
	return nil
}

// addTree creates tree member id on this scheduler, speaking over link.
func (s *sched) addTree(cfg Config, ln *lane, id int, tree *topo.Tree, link TreeLink) *treeProc {
	ln.links = append(ln.links, link)
	tp := newTreeProc(newGate(s, id, ln.idx), tree.Parent[id], tree.Children[id], link, cfg)
	s.members[id] = tp
	ln.tprocs[id], ln.gates[id] = tp, tp.gate
	return tp
}

// treeProc is one DT process: the protocol state of a tree member, owned
// by the scheduler that hosts it.
type treeProc struct {
	*gate

	parentID int   // -1 at the root
	kids     []int // child member ids, increasing

	// Protocol state (DT): own triple and subtree acknowledgment.
	sn tokenring.SN
	cp core.CP
	ph int

	ackSN tokenring.SN
	ackCP core.CP
	ackPH int

	// Local copy of the parent's announced state (meaningless at the root).
	pSN tokenring.SN
	pCP core.CP
	pPH int

	// Local copies of each child's announced live state and summary,
	// indexed like kids.
	kidSN    []tokenring.SN
	kidCP    []core.CP
	kidPH    []int
	kidAckSN []tokenring.SN
	kidAckCP []core.CP
	kidAckPH []int

	// crashed marks the crash fault class: the node is down — it neither
	// receives, steps nor announces — until ctrlRestart revives it.
	crashed bool

	// Pending sightings for the validation windows (validate.go): the
	// last rejected parent frame, and per child the last rejected up
	// frame. Per-kid slots matter — two simultaneously out-of-window
	// children sharing one slot would alternate and never confirm.
	pendDown     Message
	havePendDown bool
	kidPend      []UpMessage
	kidHavePend  []bool

	link TreeLink
	down <-chan Message
	up   <-chan UpMessage

	lastDown     Message
	haveSentDown bool
	lastUp       UpMessage
	haveSentUp   bool

	// rng is owned by the hosting scheduler (seeded before it starts; the
	// goroutine-start happens-before edge publishes it).
	rng prng.PRNG
}

func newTreeProc(g *gate, parentID int, kids []int, link TreeLink, cfg Config) *treeProc {
	tp := &treeProc{
		gate:        g,
		parentID:    parentID,
		kids:        append([]int(nil), kids...),
		kidSN:       make([]tokenring.SN, len(kids)),
		kidCP:       make([]core.CP, len(kids)),
		kidPH:       make([]int, len(kids)),
		kidAckSN:    make([]tokenring.SN, len(kids)),
		kidAckCP:    make([]core.CP, len(kids)),
		kidAckPH:    make([]int, len(kids)),
		kidPend:     make([]UpMessage, len(kids)),
		kidHavePend: make([]bool, len(kids)),
		link:        link,
		down:        link.Down(),
		up:          link.Up(),
		rng:         prng.New(cfg.Seed + int64(g.id)*7919),
	}
	// DT's start state: wave 0 disseminated and acknowledged, everyone
	// ready in phase 0 — the root's first increment begins phase 0.
	tp.cp, tp.ackCP, tp.pCP = core.Ready, core.Ready, core.Ready
	for i := range tp.kidCP {
		tp.kidCP[i], tp.kidAckCP[i] = core.Ready, core.Ready
	}
	if cfg.Rejoin {
		tp.resetState()
	}
	return tp
}

// resetState puts the proc in the detectably-reset state (DT's detectable
// fault action plus the loss of every local copy): sn ⊥, cp error, phases
// arbitrary. Used for Rejoin and for the Reset fault injection.
func (tp *treeProc) resetState() {
	tp.sn, tp.cp, tp.ph = tokenring.Bot, core.Error, tp.rng.Intn(tp.b.nPhases)
	tp.ackSN, tp.ackCP, tp.ackPH = tokenring.Bot, core.Error, tp.rng.Intn(tp.b.nPhases)
	tp.pSN, tp.pCP, tp.pPH = tokenring.Bot, core.Error, tp.rng.Intn(tp.b.nPhases)
	tp.havePendDown = false
	for i := range tp.kids {
		tp.kidSN[i], tp.kidCP[i], tp.kidPH[i] = tokenring.Bot, core.Error, tp.rng.Intn(tp.b.nPhases)
		tp.kidAckSN[i], tp.kidAckCP[i], tp.kidAckPH[i] = tokenring.Bot, core.Error, tp.rng.Intn(tp.b.nPhases)
		tp.kidHavePend[i] = false
	}
}

// poll consumes the link's queued receives — on a direct-copy link,
// spurious injections (a cold path: the scheduler polls a transport
// link's channels itself).
func (tp *treeProc) poll() bool {
	progressed := false
	for {
		select {
		case m := <-tp.down:
			tp.onDown(m)
		case m := <-tp.up:
			tp.onUp(m)
		default:
			return progressed
		}
		progressed = true
	}
}

// onDown refreshes the local copy of the parent's state — including ⊥/⊤,
// which the bottom-up resynchronization must observe (while the node is
// itself in the restart wave; a settled node ignores the markers — its
// own reset clears the copy before they matter).
func (tp *treeProc) onDown(m Message) {
	if tp.crashed {
		return
	}
	if m.Sum != m.Checksum() {
		// Detected corruption: drop; the retransmission masks it — at the
		// next quiescence, if the sender is co-hosted (sched.pullRound).
		tp.b.statDrops.Add(1)
		tp.s.owed++
		return
	}
	if tp.settled() {
		if !m.SN.Ordinary() {
			return
		}
		if r := tp.checkDown(m); r != rejNone {
			if tp.havePendDown && m == tp.pendDown {
				// Second sighting: a genuine parent's retransmission.
				tp.havePendDown = false
			} else {
				tp.pendDown = m
				tp.havePendDown = true
				tp.b.countReject(r)
				return
			}
		} else {
			tp.havePendDown = false
		}
	}
	tp.pSN, tp.pCP, tp.pPH = m.SN, m.CP, m.PH
}

// onUp refreshes the local copies of one child's live state and summary.
func (tp *treeProc) onUp(m UpMessage) {
	if tp.crashed {
		return
	}
	if m.Sum != m.Checksum() {
		tp.b.statDrops.Add(1)
		tp.s.owed++ // as in onDown
		return
	}
	for i, c := range tp.kids {
		if c == m.Child {
			tp.storeUp(i, m)
			return
		}
	}
	// A child id this node does not have: a well-formed frame that cannot
	// be attributed to any edge of this node — a sender violation.
	tp.b.statRejSender.Add(1)
}

// storeUp validates one child's frame against the receive windows
// (validate.go) and stores it. While settled, non-ordinary halves are
// restart markers this node has no use for (T4 reads them only with its
// own sn at ⊥, where validation stands aside) and are left unstored.
func (tp *treeProc) storeUp(i int, m UpMessage) {
	if !tp.settled() {
		tp.kidSN[i], tp.kidCP[i], tp.kidPH[i] = m.SN, m.CP, m.PH
		tp.kidAckSN[i], tp.kidAckCP[i], tp.kidAckPH[i] = m.AckSN, m.AckCP, m.AckPH
		return
	}
	if r := tp.checkUp(i, m); r != rejNone {
		if tp.kidHavePend[i] && m == tp.kidPend[i] {
			tp.kidHavePend[i] = false
		} else {
			tp.kidPend[i] = m
			tp.kidHavePend[i] = true
			tp.b.countReject(r)
			return
		}
	} else {
		tp.kidHavePend[i] = false
	}
	if m.SN.Ordinary() {
		tp.kidSN[i], tp.kidCP[i], tp.kidPH[i] = m.SN, m.CP, m.PH
	}
	if m.AckSN.Ordinary() {
		tp.kidAckSN[i], tp.kidAckCP[i], tp.kidAckPH[i] = m.AckSN, m.AckCP, m.AckPH
	}
}

func (tp *treeProc) onCtrl(c ctrlMsg) {
	switch c.kind {
	case ctrlArrive:
		tp.onArrive(c)
	case ctrlTick:
		// Quiet edges at the resend sweep: forget the last announcements so
		// the post-ctrl announce retransmits them (see proc.onCtrl).
		tp.haveSentDown, tp.haveSentUp = false, false
	case ctrlReset:
		if tp.crashed {
			return // a crashed node has no state left to lose
		}
		tp.resetDT()
	case ctrlScramble:
		if tp.crashed {
			return
		}
		rng := prng.New(c.seed)
		drawSN := func() tokenring.SN { return randomSN(&rng, tp.b.l) }
		randomCP := func() core.CP { return core.CP(rng.Intn(core.NumCP)) }
		randomPH := func() int { return rng.Intn(tp.b.nPhases) }
		tp.sn, tp.cp, tp.ph = drawSN(), randomCP(), randomPH()
		tp.ackSN, tp.ackCP, tp.ackPH = drawSN(), randomCP(), randomPH()
		tp.pSN, tp.pCP, tp.pPH = drawSN(), randomCP(), randomPH()
		for i := range tp.kids {
			tp.kidSN[i], tp.kidCP[i], tp.kidPH[i] = drawSN(), randomCP(), randomPH()
			tp.kidAckSN[i], tp.kidAckCP[i], tp.kidAckPH[i] = drawSN(), randomCP(), randomPH()
			tp.kidHavePend[i] = false
		}
		tp.havePendDown = false
		tp.noteFault()
	case ctrlCrash:
		// The crash fault class: the node goes down and stays down until
		// Restart revives it.
		tp.crashed = true
	case ctrlRestart:
		// Section 7 restart: revive in the detectably-reset state, so the
		// tree masks the rejoin like any other detectable fault.
		tp.crashed = false
		tp.resetDT()
	case ctrlByzDown:
		tp.onByzDown(c.seed)
	case ctrlByzUp:
		tp.onByzUp(c.from, c.seed)
	}
}

// resetDT is DT's detectable fault action (shared by ctrlReset and the
// restart half of the crash fault class); see the ring resetMB for the
// workVoided rationale.
func (tp *treeProc) resetDT() {
	workVoided := tp.cp == core.Execute || tp.cp == core.Error
	if tp.cp != core.Error {
		tp.b.emit(core.Event{Kind: core.EvReset, Proc: tp.id, Phase: tp.ph})
	}
	tp.resetState()
	if workVoided {
		tp.failPending(ErrReset)
	}
	tp.noteFault()
}

// injectSpurious delivers a forged, well-formed announcement to this node:
// a parent announcement for non-roots, a child announcement at the root.
func (tp *treeProc) injectSpurious(seed int64) {
	rng := prng.New(seed)
	drawSN := func() tokenring.SN { return randomSN(&rng, tp.b.l) }
	tp.b.statSpurious.Add(1)
	if tp.parentID < 0 {
		m := UpMessage{
			Child: tp.kids[rng.Intn(len(tp.kids))],
			SN:    drawSN(),
			CP:    core.CP(rng.Intn(core.NumCP)),
			PH:    rng.Intn(tp.b.nPhases),
			AckSN: drawSN(),
			AckCP: core.CP(rng.Intn(core.NumCP)),
			AckPH: rng.Intn(tp.b.nPhases),
		}
		m.Sum = m.Checksum()
		if !tp.link.InjectUp(m) {
			tp.b.statDrops.Add(1)
		}
		return
	}
	m := Message{
		SN: drawSN(),
		CP: core.CP(rng.Intn(core.NumCP)),
		PH: rng.Intn(tp.b.nPhases),
	}
	m.Sum = m.Checksum()
	if !tp.link.InjectDown(m) {
		// The mailbox holds a genuine in-flight announcement; the forgery
		// loses the race (see the ring InjectSpurious).
		tp.b.statDrops.Add(1)
	}
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
		if tp.ackSN != tp.sn {
			return false
		}
		cpN, phN := tp.foldKidAcks()
		if tp.cp == core.Error || tp.cp == core.Repeat {
			// The root lost its own phase: recover it from a live child's
			// announced state rather than a possibly stale summary.
			for i := range tp.kids {
				if tp.kidSN[i].Ordinary() {
					phN = tp.kidPH[i]
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
			if tp.kidSN[i].Ordinary() {
				tp.sn = tokenring.SN((int(tp.kidSN[i]) + 1) % tp.b.l)
				tp.cp = core.Repeat
				tp.ph = tp.kidPH[i]
				return true
			}
		}
	}
	return false
}

// stepDown is action D.j: adopt the parent's wave.
func (tp *treeProc) stepDown() bool {
	if !tp.pSN.Ordinary() || tp.sn == tp.pSN {
		return false
	}
	newCP, newPH, out := core.FollowerUpdate(tp.cp, tp.ph, tp.pCP, tp.pPH)
	// The work gate, as in D.j's guard: the completing wave waits for this
	// node's participant.
	if out == core.OutComplete && tp.completionBlocked() {
		return false
	}
	oldPH := tp.ph
	tp.sn = tp.pSN
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
	if tp.sn.Ordinary() || tp.pSN.Ordinary() {
		return false
	}
	for i := range tp.kids {
		if tp.kidSN[i].Ordinary() {
			tp.sn = tp.kidSN[i]
			tp.cp = core.Repeat
			tp.ph = tp.kidPH[i]
			return true
		}
	}
	return false
}

// stepAck is action U.j: acknowledge the current wave once every child
// has, folding the children's summaries with this node's own state —
// disagreement reads as repeat, forcing the root to re-execute.
func (tp *treeProc) stepAck() bool {
	if !tp.sn.Ordinary() || tp.ackSN == tp.sn {
		return false
	}
	for i := range tp.kids {
		if tp.kidAckSN[i] != tp.sn {
			return false
		}
	}
	cp, ph := tp.cp, tp.ph
	for i := range tp.kids {
		if tp.kidAckCP[i] != cp || tp.kidAckPH[i] != ph {
			cp = core.Repeat
		}
	}
	tp.ackSN, tp.ackCP, tp.ackPH = tp.sn, cp, ph
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
			if tp.kidSN[i] != tokenring.Top {
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
	cp, ph := tp.kidAckCP[0], tp.kidAckPH[0]
	for i := 1; i < len(tp.kids); i++ {
		if tp.kidAckCP[i] != cp || tp.kidAckPH[i] != ph {
			cp = core.Repeat
		}
	}
	return cp, ph
}

// pull is the tree member's share of a pull round (see proc.pull): the
// parent's lastDown against the parent copy, each child's lastUp against
// that child's live and acknowledgment copies. While this node is settled
// onDown and storeUp leave ⊥/⊤ unstored, so such a register keeps differing
// and is re-read once per round — never more (sched.pullRound).
func (tp *treeProc) pull() (pulls int) {
	if tp.parentID >= 0 {
		if par := tp.s.treePeer(tp.parentID); par != nil && par.haveSentDown {
			if m := par.lastDown; m.SN != tp.pSN || m.CP != tp.pCP || m.PH != tp.pPH {
				tp.onDown(m)
				pulls++
			}
		}
	}
	for i, c := range tp.kids {
		kid := tp.s.treePeer(c)
		if kid == nil || !kid.haveSentUp {
			continue
		}
		if u := kid.lastUp; u.SN != tp.kidSN[i] || u.CP != tp.kidCP[i] || u.PH != tp.kidPH[i] ||
			u.AckSN != tp.kidAckSN[i] || u.AckCP != tp.kidAckCP[i] || u.AckPH != tp.kidAckPH[i] {
			tp.onUp(u)
			pulls++
		}
	}
	return pulls
}

// announce sends the node's current state down every child edge and its
// state+acknowledgment up the parent edge, if they changed since the last
// send, subject to the configured loss and corruption rates (injected
// above the transport, as in the ring).
func (tp *treeProc) announce(lossRate, corruptRate float64) {
	if tp.crashed {
		return
	}
	if len(tp.kids) > 0 {
		m := Message{SN: tp.sn, CP: tp.cp, PH: tp.ph}
		m.Sum = m.Checksum()
		if !tp.haveSentDown || m != tp.lastDown {
			tp.lastDown = m
			tp.haveSentDown = true
			tp.noteSent()
			for _, c := range tp.kids {
				tp.b.statSends.Add(1)
				if tp.s.treePeer(c) != nil {
					tp.s.owed++ // until fusedTreeLink delivers it
				}
				if lossRate > 0 && tp.rng.Float64() < lossRate {
					tp.b.statDrops.Add(1)
					continue
				}
				mm := m
				if corruptRate > 0 && tp.rng.Float64() < corruptRate {
					mm.Sum ^= 0xdeadbeef
				}
				tp.link.SendDown(c, mm)
			}
		}
	}
	if tp.parentID >= 0 {
		u := UpMessage{
			Child: tp.id,
			SN:    tp.sn, CP: tp.cp, PH: tp.ph,
			AckSN: tp.ackSN, AckCP: tp.ackCP, AckPH: tp.ackPH,
		}
		u.Sum = u.Checksum()
		if !tp.haveSentUp || tp.upUrgent(u) {
			tp.lastUp = u
			tp.haveSentUp = true
			tp.noteSent()
			tp.b.statSends.Add(1)
			if tp.s.treePeer(tp.parentID) != nil {
				tp.s.owed++
			}
			if lossRate > 0 && tp.rng.Float64() < lossRate {
				tp.b.statDrops.Add(1)
				return
			}
			if corruptRate > 0 && tp.rng.Float64() < corruptRate {
				u.Sum ^= 0xdeadbeef
			}
			tp.link.SendUp(u)
		}
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
func (tp *treeProc) upUrgent(u UpMessage) bool {
	if u == tp.lastUp {
		return false
	}
	return u.AckSN != tp.lastUp.AckSN || u.AckCP != tp.lastUp.AckCP ||
		u.AckPH != tp.lastUp.AckPH || !u.SN.Ordinary()
}
