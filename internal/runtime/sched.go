// The runtime's one executor. Every protocol member — ring proc or tree
// proc — runs on a sched: one goroutine that owns the state of the
// members it hosts and steps them off a dirty-flag work queue. The
// paper's programs are guarded-command processes, correct under any fair
// interleaving of their actions; the scheduler picks one (a deterministic
// queue at step granularity, compare the guarded engine's
// maximal-parallel scheduler), and the protocol code — step, announce
// with its loss and corruption draws, the checksum and window checks at
// the receiver — is the same wherever a member is placed.
//
// Placement is the only policy; Topology, Transport and Members decide it:
//
//   - No Transport: one scheduler per lane hosts every member.
//   - A ring over a Transport: one scheduler per hosted member, attached
//     to the link the transport opens for it (the distributed deployment,
//     and every member of an in-process NewChanTransport or NewLoopbackRing).
//   - A tree or hybrid over a TreeTransport: one scheduler per hosted host,
//     running its roster on the host's link in the cross-host tree; a tree
//     is the hybrid whose hosts have one member each.
//
// A scheduler owns its members' edges. One between two members it hosts
// is a register it copies (sendState, sendTop, sendDown, sendUp): the
// announcement refreshes the receiver's copy and queues the receiver, so a
// wave crosses the whole roster in one wakeup. Every other edge is on the
// scheduler's one link, its external attachment. Every input a member sees
// comes through one of two doors: the receive channels of that attachment,
// or the control channel the hosted members share, which carries whatever
// other goroutines send — arrivals, resend pokes, and every fault kind, a
// spurious frame included (the paper's faults are environment actions on a
// process's variables, and "unexpected message reception" is one on the
// receiver's copy). A scheduler owns no timer: the barrier's one sweeper
// paces every retransmission.
//
// The nudge is how a scheduler learns of Halt and Stop. It does not wait
// on their channels: it looks at them (Barrier.down) each time round its
// loop, and Halt and Stop offer the nudge after closing theirs, which ends
// an idle park. The nudge has capacity 1 and carries no payload — its one
// sender is Barrier.wakeAll, non-blocking, and a full buffer already
// guarantees the wake-up it wanted. The participants' side of the same
// arrangement is the gate's wake channel, where the scheduler is the
// sender of results and wakeAll of pokes (see gate).
//
// What a scheduler can do without a timer is notice, when it runs out of
// work, that a frame between two members it hosts never arrived: both ends
// of a direct-copy edge are its own state, so it keeps a ledger of those
// edges (owed) and, if the ledger does not balance at the idle transition,
// has every member re-read its co-hosted neighbours' output registers
// (pullRound) before it parks. Loss on a direct-copy edge is thereby masked
// at the next quiescence; loss on the external attachment still waits for
// the sweeper (DESIGN.md §12).
package runtime

import (
	"errors"
	"fmt"

	"repro/internal/prng"
	"repro/internal/topo"
)

// member is a protocol state machine as the scheduler drives it; proc
// (ring) and treeProc (tree, hybrid) implement it.
type member interface {
	step()            // apply every enabled action to quiescence
	announce()        // send what changed since the last announcement
	onCtrl(c ctrlMsg) // arrival, fault injection, or the sweeper's resend poke
	pull() int        // re-read co-hosted neighbours' registers; how many were taken
}

// sched is the scheduler: a work queue of members with unprocessed input
// or unapplied enabled actions. All proc and gate state is owned by the
// scheduler goroutine; only the channels are shared.
type sched struct {
	b       *Barrier
	members []member // indexed by member id; nil for members hosted elsewhere

	// owed is the ledger of the direct-copy edges: frames announced to a
	// co-hosted neighbour (counted before the loss draw) minus frames its
	// receive function took with a good checksum, plus one for every fault
	// that cost a hosted member its copies. Nonzero at the idle transition
	// means some copy may trail its neighbour's register: see pullRound.
	owed int

	lossRate, corruptRate float64 // Config's, drawn against in lost

	ctrl  chan ctrlMsg
	nudge chan struct{} // "look again": Halt or Stop

	dirty []bool
	queue []int
	head  int

	// The external attachment, at most one: link is the ring link of a
	// one-member ring scheduler, whose member is ringIn; tlink is a host's
	// link in the cross-host tree, and treeIn the host root, the one member
	// with edges on it. extState/extTop/extDown/extUp are the attachment's
	// receive channels, nil — never ready — where it is absent.
	link     Link
	tlink    TreeLink
	ringIn   *proc
	treeIn   *treeProc
	extState <-chan Message
	extTop   <-chan struct{}
	extDown  <-chan Message
	extUp    <-chan UpMessage

	// Host-tree addressing (with tlink): tlink's node space is the host
	// indices, host is this scheduler's; hy.HostOf addresses down sends to
	// remote child hosts, hy.HostRoot attributes received up summaries.
	host int
	hy   *topo.Hybrid
}

// newSched adds an empty scheduler for a roster of hosted members to the
// lane; addRing/addTree populate it and New starts it.
func newSched(b *Barrier, cfg Config, ln *lane, hosted int) *sched {
	// The control channel: at most one outstanding arrival and one resend
	// poke per hosted member, plus headroom for fault-injection bursts
	// (inject drops on overflow).
	ctrlCap := b.n + 4
	if hosted > 1 {
		ctrlCap = 4*b.n + 16 // shared by the roster
	}
	s := &sched{
		b:           b,
		members:     make([]member, b.n),
		lossRate:    cfg.LossRate,
		corruptRate: cfg.CorruptRate,
		ctrl:        make(chan ctrlMsg, ctrlCap),
		nudge:       make(chan struct{}, 1),
		dirty:       make([]bool, b.n),
		queue:       make([]int, 0, b.n),
	}
	ln.scheds = append(ln.scheds, s)
	return s
}

// startFusedTree wires the all-local tree: one scheduler hosts every
// member.
func (b *Barrier) startFusedTree(cfg Config, tree *topo.Tree, ln *lane) {
	s := newSched(b, cfg, ln, b.n)
	for id := 0; id < b.n; id++ {
		s.addTree(cfg, ln, id, tree)
	}
}

// treeArity is Config.TreeArity with its default.
func treeArity(cfg Config) int {
	if cfg.TreeArity == 0 {
		return 2
	}
	return cfg.TreeArity
}

// startHybrid wires the two-level hybrid topology. With no transport every
// host is local and the member-level tree (stars under host roots, host
// roots in the cross-host tree) runs on one scheduler; with a
// TreeTransport over the host indices, startHosts runs this process's
// hosts.
func (b *Barrier) startHybrid(cfg Config, members []int, ln *lane) error {
	hy, err := topo.NewHybridTree(cfg.Hosts, treeArity(cfg))
	if err != nil {
		return fmt.Errorf("ftbarrier: %w", err)
	}
	if len(hy.HostOf) != b.n {
		return fmt.Errorf("ftbarrier: Hosts cover %d members, Participants = %d", len(hy.HostOf), b.n)
	}
	if cfg.Transport == nil {
		b.startFusedTree(cfg, hy.Tree, ln)
		return nil
	}
	tt, ok := cfg.Transport.(TreeTransport)
	if !ok {
		return errors.New("ftbarrier: Topology == TopologyHybrid requires a tree transport over the host indices (transport.NewTCPTree)")
	}
	return b.startHosts(cfg, hy, members, tt, ln)
}

// startHosts wires this process's hosts into the cross-host tree: Members
// must be a union of whole entries of Hosts, and the transport's node
// space is the host indices. Each host gets one scheduler, which presents
// the host's whole subtree as one node on the external host-tree edges:
// down messages from the parent host refresh the local host root's parent
// copy, and the host root's convergecast acknowledgment — already the
// aggregate of its entire local subtree — is the only thing that crosses
// the network upward.
func (b *Barrier) startHosts(cfg Config, hy *topo.Hybrid, members []int, tt TreeTransport, ln *lane) error {
	hosted := make([]int, len(hy.Hosts)) // how many of each host's members are in Members
	for _, j := range members {
		hosted[hy.HostOf[j]]++
	}
	for h, roster := range hy.Hosts {
		if hosted[h] == 0 {
			continue
		}
		if hosted[h] != len(roster) {
			// New closes the links opened so far.
			return fmt.Errorf("ftbarrier: Members must be a union of whole hosts: host %d's roster is %v, Members %v", h, roster, members)
		}
		tl, err := tt.OpenTree(h)
		if err != nil {
			return fmt.Errorf("ftbarrier: open host-tree link for host %d: %w", h, err)
		}
		ln.links = append(ln.links, tl)
		s := newSched(b, cfg, ln, len(roster))
		s.tlink, s.extDown, s.extUp = tl, tl.Down(), tl.Up()
		s.host, s.hy = h, hy
		for _, id := range roster {
			s.addTree(cfg, ln, id, hy.Tree)
		}
		s.treeIn = ln.tprocs[hy.HostRoot[h]]
	}
	return nil
}

// remapUpChild rewrites an up summary's Child for the member↔host-index
// translation at the external edge, preserving the message's integrity
// status: the checksum covers Child, so a plain rewrite would either
// invalidate a genuine message or — worse — launder a corrupted one into
// validity. A message that arrived corrupted leaves corrupted, and one
// whose Child is already right leaves untouched (a tree's hosts are its
// members, so there the translation is the identity).
func remapUpChild(m UpMessage, child int) UpMessage {
	if m.Child == child {
		return m
	}
	valid := m.Sum == m.Checksum()
	m.Child = child
	m.Sum = m.Checksum()
	if !valid {
		m.Sum ^= 0xdeadbeef
	}
	return m
}

// lost counts a frame onto an edge and makes its one loss and corruption
// draw, from the sending member's rng: it reports a lost frame (counted in
// Drops), and flips a corrupted frame's checksum so the receiver's
// integrity check rejects it. The draw sits above every link, so loss and
// detected corruption take the same protocol paths between co-hosted
// members as over sockets. A frame to a co-hosted member (local) is
// credited to the ledger before the draw; copied debits it on delivery,
// and a checksum failure at the receiver credits it again.
func (s *sched) lost(rng *prng.PRNG, sum *uint32, local bool) bool {
	s.b.statSends.Add(1)
	if local {
		s.owed++
	}
	if s.lossRate > 0 && rng.Float64() < s.lossRate {
		s.b.statDrops.Add(1)
		return true // a pull or the resend sweep will mask it
	}
	if s.corruptRate > 0 && rng.Float64() < s.corruptRate {
		*sum ^= 0xdeadbeef // bit-flip in flight
	}
	return false
}

// copied settles the ledger for a frame delivered into co-hosted member id
// and queues the member for a step.
func (s *sched) copied(id int) {
	s.owed--
	s.mark(id)
}

// sendState puts ring member p's announcement on the edge to its
// successor: a copy when this scheduler hosts it, otherwise the link. It
// reports whether the frame survived the loss draw: the ⊤ marker rides on
// it (sendTop).
func (s *sched) sendState(p *proc, m Message) bool {
	succ := s.ringPeer((p.id + 1) % s.b.n)
	if s.lost(&p.rng, &m.Sum, succ != nil) {
		return false
	}
	if succ == nil {
		s.link.SendState(m)
		return true
	}
	succ.onPredState(m)
	s.copied(succ.id)
	return true
}

// sendTop propagates p's ⊤ marker to its predecessor. It makes no draw of
// its own and leaves the ledger alone: it rides on the state frame.
func (s *sched) sendTop(p *proc) {
	pred := s.ringPeer((p.id - 1 + s.b.n) % s.b.n)
	if pred == nil {
		s.link.SendTop()
		return
	}
	pred.onTop()
	s.mark(pred.id)
}

// sendDown puts tree member tp's announcement on the edge to child. A
// child on another host — only a host root has one — is reached over the
// host tree, addressed by its host index.
func (s *sched) sendDown(tp *treeProc, child int, m Message) {
	kid := s.treePeer(child)
	if s.lost(&tp.rng, &m.Sum, kid != nil) {
		return
	}
	if kid == nil {
		s.tlink.SendDown(s.hy.HostOf[child], m)
		return
	}
	kid.onDown(m)
	s.copied(child)
}

// sendUp puts tree member tp's state and acknowledgment on the edge to its
// parent. A parent on another host makes tp the host root: its up summary
// — the aggregate acknowledgment of this host's whole subtree — is the one
// frame that crosses the network, with Child translated to our host index
// (the transport's node space).
func (s *sched) sendUp(tp *treeProc, u UpMessage) {
	par := s.treePeer(tp.parentID)
	if s.lost(&tp.rng, &u.Sum, par != nil) {
		return
	}
	if par == nil {
		s.tlink.SendUp(remapUpChild(u, s.host))
		return
	}
	par.onUp(u)
	s.copied(par.id)
}

// mark queues member id for a step unless it is already queued.
func (s *sched) mark(id int) {
	if !s.dirty[id] {
		s.dirty[id] = true
		s.queue = append(s.queue, id)
	}
}

// drain steps queued members to quiescence. Announcements made during a
// step to a co-hosted member deliver immediately and re-queue their
// receivers, so one drain carries a wave as far as the protocol allows.
func (s *sched) drain() {
	for s.head < len(s.queue) {
		id := s.queue[s.head]
		s.head++
		s.dirty[id] = false
		m := s.members[id]
		m.step()
		m.announce()
	}
	s.queue = s.queue[:0]
	s.head = 0
}

// ringPeer and treePeer return member id if this scheduler hosts it — the
// far end of a direct-copy edge — and nil if it is reached over the link.
func (s *sched) ringPeer(id int) *proc {
	p, _ := s.members[id].(*proc)
	return p
}

func (s *sched) treePeer(id int) *treeProc {
	tp, _ := s.members[id].(*treeProc)
	return tp
}

// pullRound is loss recovery at quiescence. The queue is drained and no
// input is waiting, yet the ledger says a frame between two hosted members
// was dropped, failed its checksum, or was delivered before a fault wiped
// the copy it refreshed — so nothing short of the resend sweeper would move
// the receiver. Every hosted member re-reads its co-hosted neighbours'
// output registers (the last announcement put on each edge, whether or not
// it was delivered) and takes those that differ from its copies through the
// ordinary receive functions; a pull is a read, with no loss or corruption
// draw. The ledger is rebalanced whatever the outcome: one round per
// imbalance, so a register its receiver legitimately keeps ignoring (⊥/⊤
// at a settled node, anything at a crashed one) cannot spin the scheduler —
// that case is left to the sweeper. Reports whether any member was queued.
func (s *sched) pullRound() bool {
	s.owed = 0
	pulls := 0
	for id, m := range s.members {
		if m == nil {
			continue
		}
		if k := m.pull(); k > 0 {
			pulls += k
			s.mark(id)
		}
	}
	s.b.statPulls.Add(int64(pulls))
	return pulls > 0
}

// onCtrl dispatches a control message to its target member.
func (s *sched) onCtrl(c ctrlMsg) {
	if c.id < 0 || c.id >= len(s.members) || s.members[c.id] == nil {
		return
	}
	s.members[c.id].onCtrl(c)
	switch c.kind {
	case ctrlReset, ctrlScramble, ctrlRestart:
		// The member's copies are gone while its neighbours' registers are
		// not: unbalance the ledger so the next quiescence re-reads them.
		s.owed++
	}
	s.mark(c.id)
}

// onExtState and onExtTop deliver what a one-member ring scheduler's link
// received: the predecessor's announcement and the successor's ⊤ marker.
func (s *sched) onExtState(m Message) {
	s.ringIn.onPredState(m)
	s.mark(s.ringIn.id)
}

func (s *sched) onExtTop() {
	s.ringIn.onTop()
	s.mark(s.ringIn.id)
}

// onExtDown delivers an announcement from the external parent edge: it
// refreshes the attached member's parent copy (checksum verification and
// all fault branches are the member's own onDown).
func (s *sched) onExtDown(m Message) {
	s.treeIn.onDown(m)
	s.mark(s.treeIn.id)
}

// onExtUp delivers a convergecast frame from an external child edge. On
// the host tree Child is the sending HOST index (the TCP transport
// cross-checks it against the hello identity); here it is translated to
// that host's root member — the child the member-level tree lists under
// our root. An out-of-range host index cannot be attributed to any edge:
// a sender violation, rejected and counted like onUp's unknown child.
func (s *sched) onExtUp(m UpMessage) {
	if m.Child < 0 || m.Child >= len(s.hy.HostRoot) {
		s.b.statRejSender.Add(1)
		return
	}
	s.treeIn.onUp(remapUpChild(m, s.hy.HostRoot[m.Child]))
	s.mark(s.treeIn.id)
}

// poll consumes already-queued input with non-blocking single-channel
// polls and reports whether there was any. Polling an empty channel is a
// lock-free check, where the blocking select in run locks every live
// case's channel on entry and exit — with a wave hot that difference
// dominates the cost of a hop.
func (s *sched) poll() bool {
	progressed := false
	select {
	case c := <-s.ctrl:
		s.onCtrl(c)
		progressed = true
	default:
	}
	if s.ringIn != nil {
		select {
		case m := <-s.extState:
			s.onExtState(m)
			progressed = true
		default:
		}
		select {
		case <-s.extTop:
			s.onExtTop()
			progressed = true
		default:
		}
	}
	if s.treeIn != nil {
		select {
		case m := <-s.extDown:
			s.onExtDown(m)
			progressed = true
		default:
		}
		for drained := false; !drained; {
			select {
			case m := <-s.extUp:
				s.onExtUp(m)
				progressed = true
			default:
				drained = true
			}
		}
	}
	return progressed
}

// run is the scheduler goroutine: started by New, it exits on Stop and —
// fail-safe — on Halt: no completion may ever be reported again, so
// circulating waves or retransmitting state is pure waste, and
// Await/Enter/Leave keep returning ErrHalted via b.halted. Both are looked
// for once per turn of the loop, busy or about to park; the park itself
// waits only on this scheduler's own inputs, and wakeAll's nudge ends it.
func (s *sched) run() {
	defer s.b.wg.Done()
	for id, m := range s.members {
		if m != nil {
			s.mark(id) // prime the collective
		}
	}
	for {
		s.drain()
		if s.b.down() != nil {
			return
		}
		if s.poll() {
			continue // busy: stay out of the blocking select
		}
		// Idle: every hosted member is quiescent. An unbalanced ledger is
		// settled first (one compare when it balances); then park until
		// something arrives. A quiet member is poked by the barrier's
		// sweeper (ctrlTick); hot schedulers never take a timer wakeup.
		if s.owed != 0 && s.pullRound() {
			continue
		}
		select {
		case c := <-s.ctrl:
			s.onCtrl(c)
		case <-s.nudge:
		case m := <-s.extState:
			s.onExtState(m)
		case <-s.extTop:
			s.onExtTop()
		case m := <-s.extDown:
			s.onExtDown(m)
		case m := <-s.extUp:
			s.onExtUp(m)
		}
	}
}
