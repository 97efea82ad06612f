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
//   - No Transport: every member is local and one scheduler per lane
//     hosts them all. A neighbour's state is a register you read, not a
//     goroutine you hand off to: an announcement refreshes the receiver's
//     copy directly (fusedRingLink, fusedTreeLink) and queues the receiver
//     for a step, so a wave crosses the whole collective in one wakeup.
//   - A Transport: one scheduler per opened link — a one-member scheduler
//     for a ring or tree member (the distributed deployment, and every
//     member of an in-process NewChanTransport or NewLoopbackRing), one
//     scheduler for a hybrid host's whole roster.
//
// That link is the scheduler's one external attachment. Every input a
// member sees comes through one of two doors: the receive channels of that
// attachment, or the control channel the hosted members share, which
// carries whatever other goroutines send — arrivals, resend pokes, and
// every fault kind, a spurious frame included (the paper's faults are
// environment actions on a process's variables, and "unexpected message
// reception" is one on the receiver's copy). A scheduler owns no timer:
// the barrier's one sweeper paces every retransmission.
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
	"sort"

	"repro/internal/topo"
)

// member is a protocol state machine as the scheduler drives it; proc
// (ring) and treeProc (tree, hybrid) implement it.
type member interface {
	step()                                  // apply every enabled action to quiescence
	announce(lossRate, corruptRate float64) // send what changed since the last announcement
	onCtrl(c ctrlMsg)                       // arrival, fault injection, or the sweeper's resend poke
	pull() int                              // re-read co-hosted neighbours' registers; how many were taken
}

// sched is the scheduler: a work queue of members with unprocessed input
// or unapplied enabled actions. All proc and gate state is owned by the
// scheduler goroutine; only the channels are shared.
type sched struct {
	b       *Barrier
	members []member // indexed by member id; nil for members hosted elsewhere

	// The hosted members by protocol, indexed by id, on a scheduler whose
	// members deliver to each other by direct copy (the lane's slices); nil
	// on a one-member scheduler, which has no co-hosted edge.
	procs  []*proc
	tprocs []*treeProc

	// owed is the ledger of the direct-copy edges: frames announced to a
	// co-hosted neighbour (counted before the loss draw) minus frames its
	// receive function took with a good checksum, plus one for every fault
	// that cost a hosted member its copies. Nonzero at the idle transition
	// means some copy may trail its neighbour's register: see pullRound.
	owed int

	lossRate, corruptRate float64 // Config's, drawn against in announce

	ctrl  chan ctrlMsg
	nudge chan struct{} // "look again": Halt or Stop

	dirty []bool
	queue []int
	head  int

	// The external attachment, at most one. ringIn is the member of a
	// one-member ring scheduler; its link's extState/extTop are the
	// attachment. treeIn is the member whose remote tree edges
	// extDown/extUp carry: the member of a one-member tree scheduler (the
	// channels are its own link's), or the local host root of a hybrid
	// roster. The channels of an absent attachment are nil, never ready.
	ringIn   *proc
	treeIn   *treeProc
	extState <-chan Message
	extTop   <-chan struct{}
	extDown  <-chan Message
	extUp    <-chan UpMessage

	// Hybrid host-tree addressing (nil/zero otherwise): ext is this
	// host's edge set in the cross-host tree (node space = host indices),
	// host this host's index; hy.HostOf addresses down sends to remote
	// child hosts, hy.HostRoot attributes received up summaries.
	ext  TreeLink
	host int
	hy   *topo.Hybrid
}

// newSched adds an empty scheduler to the lane; addRing/addTree populate
// it and New starts it. A fused scheduler's members deliver to each other
// by direct copy.
func newSched(b *Barrier, cfg Config, ln *lane, fused bool) *sched {
	// The control channel: at most one outstanding arrival and one resend
	// poke per hosted member, plus headroom for fault-injection bursts
	// (inject drops on overflow).
	ctrlCap := b.n + 4
	if fused {
		ctrlCap = 4*b.n + 16 // shared by up to n members
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
	if fused {
		s.procs, s.tprocs = ln.procs, ln.tprocs
	}
	ln.scheds = append(ln.scheds, s)
	return s
}

// startFusedTree wires the all-local tree: one scheduler, links deliver
// by direct copy refresh.
func (b *Barrier) startFusedTree(cfg Config, tree *topo.Tree, ln *lane) {
	s := newSched(b, cfg, ln, true)
	for id := 0; id < b.n; id++ {
		s.addTree(cfg, ln, id, tree, &fusedTreeLink{s, id})
	}
}

// startHybrid wires the two-level hybrid topology. With no transport
// every host is local and the member-level tree (stars under host roots,
// host roots in the cross-host tree) runs on one scheduler. With a
// TreeTransport — opened over HOST indices, one process per host — this
// process runs exactly one host's members on one scheduler, which
// presents that whole subtree as one node on the external host-tree
// edges: down messages from the parent host refresh the local host
// root's parent copy, and the host root's convergecast acknowledgment —
// already the aggregate of its entire local subtree — is the only thing
// that crosses the network upward.
func (b *Barrier) startHybrid(cfg Config, members []int, ln *lane) error {
	arity := cfg.TreeArity
	if arity == 0 {
		arity = 2
	}
	hy, err := topo.NewHybridTree(cfg.Hosts, arity)
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
	return b.startFusedHybrid(cfg, hy, members, tt, ln)
}

// startFusedHybrid wires one host's roster into the cross-host tree:
// Members must be exactly one entry of Hosts, and the transport's node
// space is the host indices.
func (b *Barrier) startFusedHybrid(cfg Config, hy *topo.Hybrid, members []int, tt TreeTransport, ln *lane) error {
	if len(members) == 0 || len(members) == b.n {
		return errors.New("ftbarrier: hybrid over a transport needs Members = the roster of exactly one host")
	}
	host := hy.HostOf[members[0]]
	roster := hy.Hosts[host]
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	if len(sorted) != len(roster) {
		return fmt.Errorf("ftbarrier: Members must be exactly host %d's roster %v, got %v", host, roster, members)
	}
	for i, j := range sorted {
		if roster[i] != j {
			return fmt.Errorf("ftbarrier: Members must be exactly host %d's roster %v, got %v", host, roster, members)
		}
	}
	ext, err := tt.OpenTree(host)
	if err != nil {
		return fmt.Errorf("ftbarrier: open host-tree link for host %d: %w", host, err)
	}
	ln.links = append(ln.links, ext)
	s := newSched(b, cfg, ln, true)
	s.ext, s.extDown, s.extUp = ext, ext.Down(), ext.Up()
	s.host, s.hy = host, hy
	for _, id := range roster {
		s.addTree(cfg, ln, id, hy.Tree, &fusedTreeLink{s, id})
	}
	s.treeIn = ln.tprocs[hy.HostRoot[host]]
	return nil
}

// remapUpChild rewrites an up summary's Child for the member↔host-index
// translation at the external edge, preserving the message's integrity
// status: the checksum covers Child, so a plain rewrite would either
// invalidate a genuine message or — worse — launder a corrupted one into
// validity. A message that arrived corrupted leaves corrupted.
func remapUpChild(m UpMessage, child int) UpMessage {
	valid := m.Sum == m.Checksum()
	m.Child = child
	m.Sum = m.Checksum()
	if !valid {
		m.Sum ^= 0xdeadbeef
	}
	return m
}

// mark queues member id for a step unless it is already queued.
func (s *sched) mark(id int) {
	if !s.dirty[id] {
		s.dirty[id] = true
		s.queue = append(s.queue, id)
	}
}

// drain steps queued members to quiescence. Announcements made during a
// step over a direct-copy link deliver immediately and re-queue their
// receivers, so one drain carries a wave as far as the protocol allows.
func (s *sched) drain() {
	for s.head < len(s.queue) {
		id := s.queue[s.head]
		s.head++
		s.dirty[id] = false
		m := s.members[id]
		m.step()
		m.announce(s.lossRate, s.corruptRate)
	}
	s.queue = s.queue[:0]
	s.head = 0
}

// ringPeer and treePeer return member id if this scheduler hosts it — the
// far end of a direct-copy edge — and nil if it is reached over a link.
func (s *sched) ringPeer(id int) *proc {
	if id < len(s.procs) {
		return s.procs[id]
	}
	return nil
}

func (s *sched) treePeer(id int) *treeProc {
	if id < len(s.tprocs) {
		return s.tprocs[id]
	}
	return nil
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

// onExtUp delivers a convergecast frame from an external child edge. On a
// hybrid's host tree Child is the sending HOST index (the TCP transport
// cross-checks it against the hello identity); here it is translated to
// that host's root member — the child the member-level tree lists under
// our root. An out-of-range host index cannot be attributed to any edge:
// a sender violation, rejected and counted like onUp's unknown child.
func (s *sched) onExtUp(m UpMessage) {
	if s.hy != nil {
		if m.Child < 0 || m.Child >= len(s.hy.HostRoot) {
			s.b.statRejSender.Add(1)
			return
		}
		m = remapUpChild(m, s.hy.HostRoot[m.Child])
	}
	s.treeIn.onUp(m)
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

// fusedRingLink is a member's ring link when the whole ring shares one
// scheduler: sends refresh the neighbour's copies directly (the caller is
// always the scheduler goroutine), so there is nothing to receive.
type fusedRingLink struct {
	s  *sched // hosts the whole ring: s.procs is every member
	id int
}

// SendState delivers the announcement and credits the ledger with it (a
// checksum failure at the receiver debits it again). The ⊤ marker rides on
// the state frame — announce draws loss once for both — so SendTop leaves
// the ledger alone.
func (l *fusedRingLink) SendState(m Message) {
	succ := (l.id + 1) % len(l.s.procs)
	l.s.procs[succ].onPredState(m)
	l.s.owed--
	l.s.mark(succ)
}

func (l *fusedRingLink) SendTop() {
	pred := (l.id - 1 + len(l.s.procs)) % len(l.s.procs)
	l.s.procs[pred].onTop()
	l.s.mark(pred)
}

func (l *fusedRingLink) State() <-chan Message { return nil }
func (l *fusedRingLink) Top() <-chan struct{}  { return nil }

func (l *fusedRingLink) Close() error { return nil }

// fusedTreeLink is the tree twin of fusedRingLink.
type fusedTreeLink struct {
	s  *sched // s.tprocs is the lane's members; nil entries live on other hosts
	id int
}

func (l *fusedTreeLink) SendDown(child int, m Message) {
	if child < 0 || child >= len(l.s.tprocs) {
		return
	}
	tp := l.s.tprocs[child]
	if tp == nil {
		// A remote child: in the hybrid, the host root's children of other
		// hosts are reached over the external host-tree edge, addressed by
		// host index. (Only the host root has remote children.)
		if l.s.ext != nil && l.id == l.s.treeIn.id {
			l.s.ext.SendDown(l.s.hy.HostOf[child], m)
		}
		return
	}
	if tp.parentID != l.id {
		return
	}
	tp.onDown(m)
	l.s.owed--
	l.s.mark(child)
}

func (l *fusedTreeLink) SendUp(m UpMessage) {
	p := l.s.tprocs[l.id].parentID
	if p < 0 {
		return
	}
	if l.s.treePeer(p) == nil {
		// The host root's parent lives on another host: the up summary —
		// the aggregate acknowledgment of this entire fused subtree — is
		// the one message that crosses the network, with Child translated
		// to our host index (the transport's node space).
		if l.s.ext != nil && l.id == l.s.treeIn.id {
			l.s.ext.SendUp(remapUpChild(m, l.s.host))
		}
		return
	}
	l.s.tprocs[p].onUp(m)
	l.s.owed--
	l.s.mark(p)
}

func (l *fusedTreeLink) Down() <-chan Message { return nil }
func (l *fusedTreeLink) Up() <-chan UpMessage { return nil }

func (l *fusedTreeLink) Close() error { return nil }
