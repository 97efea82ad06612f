// The runtime's one executor. Every protocol member — ring proc or tree
// proc — runs on a sched: a state machine that owns the state of the
// members it hosts and steps them off a dirty-flag work queue. The paper's
// programs are guarded-command processes, correct under any fair
// interleaving of their actions, so it does not matter which goroutine
// steps a member, only that someone does; the scheduler picks one of the
// legal schedules (a deterministic queue at step granularity, compare the
// guarded engine's maximal-parallel scheduler), and the protocol code —
// step, announce with its loss and corruption draws, the checksum and
// window checks at the receiver — is the same wherever a member is placed.
//
// Placement is the only policy; Topology, Transport and Members decide it:
//
//   - No Transport: one scheduler per lane hosts every member.
//   - A ring over a Transport: one scheduler per hosted member, attached
//     to the link the transport opens for it (the distributed deployment,
//     and every member of an in-process NewChanTransport or NewLoopbackRing).
//   - A tree or hybrid over a Transport of tree shape: one scheduler per
//     hosted host, running its roster on the host's link in the cross-host
//     tree; a tree is the hybrid whose hosts have one member each.
//
// Either way a scheduler over a Transport gets its link from attach, the
// one place that opens a link, records it for Stop, registers the
// scheduler's hook and rejects a link whose shape is not the topology's.
//
// A scheduler owns its members' edges. One between two members it hosts
// is a register it copies (sendState, sendTop, sendUp, then copyHops):
// each frame of an announcement refreshes the receiver's copy and queues
// the receiver as soon as the announcement returns, so a wave crosses the
// whole roster in one turn. Every other edge is on the scheduler's one
// link, its external attachment. A state frame travels one way whatever
// the topology: the upstream neighbour's register — the ring predecessor's
// or the tree parent's (node.lastSent) — reaches the member's one copy of
// it through one receive (node.onState), whether it was copied (a hop),
// pulled (pullRound) or received (extFrom).
//
// Every input a member sees is posted work, in one of three places other
// goroutines write: the arrivals, one word per gate (gate.arrival) and one
// bit per hosted member (arrivals); the control channel the hosted members
// share, which carries resend pokes and every fault kind, a spurious frame
// included (the paper's faults are environment actions on a process's
// variables, and "unexpected message reception" is one on the receiver's
// copy); and the link's receive channels — upstream state frames, the
// ring's ⊤ markers, a host's convergecast frames. A control message or
// link input also sets input. A scheduler owns no goroutine and no timer:
// the barrier's one sweeper paces every retransmission, poking a quiet
// member through the control channel like any fault injector.
//
// Whoever posts work runs the turn — apply the control messages, take the
// posted arrivals, receive the link's input, drain the queue, pull at
// quiescence — if it gets the baton (one CAS; assist), and only the
// holder receives from the channels. An arriving participant does: the
// last arriver carries the whole wave and delivers every result, its own
// included, so neither its arrival nor its Leave wakes another goroutine.
// So does a fault injector or the sweeper (control), and the goroutine
// that posted link input, which calls the hook the scheduler registered
// with its link (Notify, external): a wire frame is answered on the mux
// reader that read it, a channel link's frame on a fresh goroutine. New
// runs each scheduler's first turn (prime). A poster that finds the baton
// taken leaves its work to the holder: every release is followed by a
// look for posted work, and the atomics are sequentially consistent, so
// of a poster whose CAS failed and the holder that released, one sees the
// other's write. No poster waits for the baton, and nothing spins; the
// one waiter is Stop, which takes and releases each baton once on the
// down barrier to wait out the turn in flight (Barrier.quiesce).
//
// Faults keep their place among the passes (controls). A turn applies
// control messages one at a time and drains after each, so spaced faults
// are never applied in one batch; and it applies every message posted
// before the arrivals it took ahead of the drain that steps them, so no
// pass completes on an arrival posted after an injection returned and
// before its fault was applied. (Applying an arrival and a control
// message commute; a drain between them does not.)
//
// What a scheduler can do without a timer is notice, when it runs out of
// work, that a frame between two members it hosts never arrived: both ends
// of a direct-copy edge are its own state, so it keeps a ledger of those
// edges (owed) and, if the ledger does not balance when a turn's queue
// runs dry, has every member re-read its co-hosted neighbours' output
// registers (pullRound) before the turn ends. Loss on a direct-copy edge
// is thereby masked at the next quiescence; loss on the external
// attachment still waits for the sweeper (DESIGN.md §12).
package runtime

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/prng"
	"repro/internal/topo"
)

// member is a protocol state machine as the scheduler drives it; proc
// (ring) and treeProc (tree, hybrid) implement it.
type member interface {
	step()            // apply every enabled action to quiescence
	announce()        // send what changed since the last announcement
	onCtrl(c ctrlMsg) // fault injection or the sweeper's resend poke
	takeArrival()     // hand the posted arrival to the work gate
	pull() int        // re-read co-hosted neighbours' registers; how many were taken
}

// sched is the scheduler: a work queue of members with unprocessed input
// or unapplied enabled actions. All proc and gate state, and the queue,
// belong to the holder of the baton; the channels and the atomics
// (arrivals, input, baton) are shared.
type sched struct {
	b       *Barrier
	members []member // indexed by member id; nil for members hosted elsewhere

	// owed is the ledger of the direct-copy edges: frames announced to a
	// co-hosted neighbour (counted before the loss draw) minus frames its
	// receive function took with a good checksum, plus one for every fault
	// that cost a hosted member its copies. Nonzero when the queue runs dry
	// means some copy may trail its neighbour's register: see pullRound.
	owed int

	lossRate, corruptRate float64 // Config's, drawn against in lost

	ctrl chan ctrlMsg

	// arrivals has one bit per hosted member whose gate holds a posted
	// arrival not yet taken (bit id%64 of word id/64), and input says a
	// control message or link input was posted since the holder last
	// looked. baton is held by whoever runs a turn.
	arrivals []atomic.Uint64
	input    atomic.Bool
	baton    atomic.Bool

	dirty []bool
	queue []int
	head  int
	hops  []hop // an announcement's co-hosted frames, awaiting delivery

	// The external attachment, at most one: link is the ring link of a
	// one-member ring scheduler or a host's link in the cross-host tree
	// (hy says which), and in the one member with edges on it (the ring
	// member, or the host root). Its receive channels: extFrom, the
	// upstream neighbour's state frames — the ring predecessor's
	// announcements or the parent host's down frames; extTop, the ring
	// successor's ⊤ markers; extUp, the child hosts' convergecast frames.
	// A channel the attachment lacks is nil, never ready.
	link    Link
	in      *node
	extFrom <-chan Message
	extTop  <-chan struct{}
	extUp   <-chan UpMessage

	// Host-tree addressing (a tree link; nil hy on a ring): the link's
	// node space is the host indices, host is this scheduler's; hy.HostOf
	// addresses down sends to remote child hosts, hy.HostRoot attributes
	// received up summaries.
	host int
	hy   *topo.Hybrid
}

// newSched adds an empty scheduler for a roster of hosted members to the
// lane; addRing/addTree populate it and New primes it.
func newSched(b *Barrier, cfg Config, ln *lane, hosted int) *sched {
	// The control channel: one resend poke per hosted member plus headroom
	// for fault-injection bursts (inject drops on overflow). Arrivals do
	// not come through it; the capacities are the ones sized when they did,
	// so a burst drops exactly as many injections as it always has.
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
		arrivals:    make([]atomic.Uint64, (b.n+63)/64),
		dirty:       make([]bool, b.n),
		queue:       make([]int, 0, b.n),
		hops:        make([]hop, 0, hosted+1), // one per co-hosted neighbour, and a ⊤ marker
	}
	s.baton.Store(true) // prime releases it, after the first turn
	ln.scheds = append(ln.scheds, s)
	return s
}

// attach opens node id's link on cfg.Transport — ring member id's, or
// tree host id's — for a new scheduler of hosted members, records it for
// Stop and registers the scheduler's input hook. A link whose shape is not
// the topology's is rejected: a ring link has a ⊤ mailbox, a tree link an
// up mailbox. New closes it with every other link it recorded.
func (b *Barrier) attach(cfg Config, ln *lane, id int, tree bool, hosted int) (*sched, error) {
	l, err := cfg.Transport.Open(id)
	if err != nil {
		return nil, fmt.Errorf("ftbarrier: open link for node %d: %w", id, err)
	}
	ln.links = append(ln.links, l)
	switch {
	case tree && l.Up() == nil:
		return nil, errors.New("ftbarrier: a tree or hybrid topology requires a tree transport over the host indices (NewChanTreeTransport, transport.NewTCPTree)")
	case !tree && l.Top() == nil:
		return nil, errors.New("ftbarrier: a ring topology requires a ring transport (NewChanTransport, transport.NewTCP)")
	}
	s := newSched(b, cfg, ln, hosted)
	s.link, s.extFrom, s.extTop, s.extUp = l, l.State(), l.Top(), l.Up()
	l.Notify(s.external)
	return s, nil
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
// roots in the cross-host tree) runs on one scheduler; with a transport
// over the host indices, startHosts runs this process's hosts.
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
	return b.startHosts(cfg, hy, members, ln)
}

// startHosts wires this process's hosts into the cross-host tree: Members
// must be a union of whole entries of Hosts, and the transport's node
// space is the host indices. Each host gets one scheduler, which presents
// the host's whole subtree as one node on the external host-tree edges:
// down messages from the parent host refresh the local host root's parent
// copy, and the host root's convergecast acknowledgment — already the
// aggregate of its entire local subtree — is the only thing that crosses
// the network upward.
func (b *Barrier) startHosts(cfg Config, hy *topo.Hybrid, members []int, ln *lane) error {
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
		s, err := b.attach(cfg, ln, h, true, len(roster))
		if err != nil {
			return err
		}
		s.host, s.hy = h, hy
		for _, id := range roster {
			s.addTree(cfg, ln, id, hy.Tree)
		}
		s.in = &ln.tprocs[hy.HostRoot[h]].node
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
// credited to the ledger before the draw; copyHops debits it on delivery,
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

// sendState puts member n's state frame on the edge to downstream member
// to — its ring successor or a tree child: a copy when this scheduler hosts
// it, otherwise the link. A child on another host — only a host root has
// one — is reached over the host tree, addressed by its host index. It
// reports whether the frame survived the loss draw: the ring's ⊤ marker
// rides on it (sendTop).
func (s *sched) sendState(n *node, to int, m Message) bool {
	peer := s.peer(to)
	if s.lost(&n.rng, &m.Sum, peer != nil) {
		return false
	}
	switch {
	case peer != nil:
		h := s.hop()
		h.to, h.m = peer, m
	case s.hy == nil:
		s.link.SendState(m)
	default:
		s.link.SendDown(s.hy.HostOf[to], m)
	}
	return true
}

// sendTop propagates p's ⊤ marker to its predecessor. It makes no draw of
// its own and leaves the ledger alone: it rides on the state frame.
func (s *sched) sendTop(p *proc) {
	pred := s.peer((p.id - 1 + s.b.n) % s.b.n)
	if pred == nil {
		s.link.SendTop()
		return
	}
	h := s.hop()
	h.to, h.kind = pred, hopTop
}

// sendUp puts tree member tp's state and acknowledgment, its last up
// announcement, on the edge to its parent. A parent on another host makes
// tp the host root: its up summary — the aggregate acknowledgment of this
// host's whole subtree — is the one frame that crosses the network
// (sendUpLink).
func (s *sched) sendUp(tp *treeProc) {
	par := s.treePeer(tp.parentID)
	if par == nil {
		s.sendUpLink(tp)
		return
	}
	h := s.hop()
	h.to, h.kind, h.u = &par.node, hopUp, tp.lastUp
	if s.lost(&tp.rng, &h.u.Sum, true) {
		s.hops = s.hops[:len(s.hops)-1]
	}
}

// sendUpLink is sendUp to a parent on another host, with Child translated
// to our host index (the transport's node space). It is a function of its
// own so that its frame copies stay out of sendUp's, which is on a turn's
// path.
func (s *sched) sendUpLink(tp *treeProc) {
	u := tp.lastUp
	if !s.lost(&tp.rng, &u.Sum, false) {
		s.link.SendUp(remapUpChild(u, s.host))
	}
}

// hop is a frame between two members this scheduler hosts, past its loss
// draw, to member to: a state frame from upstream (the ring predecessor's
// or the tree parent's), the ring successor's ⊤ marker, or a tree child's
// up frame. drain delivers the hops of an announcement as soon as it
// returns, in the order they were sent. A receive refreshes the receiver's
// copies and queues it, and touches nothing the rest of the announcement
// reads, so delivering after the announcement rather than inside it
// changes no outcome; what it changes is depth. The receive path no
// longer sits on the send path's frames, and a turn runs on a
// participant's goroutine, whose stack starts small: nested, the two grew
// every arriving participant's stack on its first pass.
type hop struct {
	to   *node
	kind hopKind
	m    Message   // hopState
	u    UpMessage // hopUp
}

// hopKind names the receive a hop takes: onState, onTop or onUp.
type hopKind uint8

const (
	hopState hopKind = iota
	hopTop
	hopUp
)

// hop appends a zero hop to the announcement's and returns it, built in
// place rather than copied in from a temporary on the sender's frame.
func (s *sched) hop() *hop {
	n := len(s.hops)
	s.hops = slices.Grow(s.hops, 1)[:n+1]
	h := &s.hops[n]
	*h = hop{}
	return h
}

// copyHops hands the hops of the last announcement to their receivers and
// queues them. Each frame settles its ledger entry (see lost); the ⊤ marker
// rides on the state frame and has none.
func (s *sched) copyHops() {
	for i := range s.hops {
		h := &s.hops[i]
		switch h.kind {
		case hopState:
			h.to.onState(h.m)
			s.owed--
		case hopTop:
			s.ringPeer(h.to.id).onTop()
		case hopUp:
			s.treePeer(h.to.id).onUp(&h.u)
			s.owed--
		}
		s.mark(h.to.id)
	}
	s.hops = s.hops[:0]
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
		s.copyHops()
	}
	s.queue = s.queue[:0]
	s.head = 0
}

// peer, ringPeer and treePeer return member id if this scheduler hosts it —
// the far end of a direct-copy edge — and nil if it is reached over the
// link.
func (s *sched) peer(id int) *node {
	switch m := s.members[id].(type) {
	case *proc:
		return &m.node
	case *treeProc:
		return &m.node
	}
	return nil
}

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

// external is the hook the scheduler registers with its link (Notify),
// run by the goroutine that posted link input, and control's tail: mark
// the input posted, then take the baton and run the turn that receives it.
func (s *sched) external() {
	s.input.Store(true)
	s.assist()
}

// onExtFrom, onExtTop and onExtUp deliver what the link received to the
// attached member: a state frame from upstream, a ⊤ marker from the ring
// successor, a convergecast frame from a child host.
func (s *sched) onExtFrom(m Message) {
	s.in.onState(m)
	s.mark(s.in.id)
}

func (s *sched) onExtTop() {
	s.ringPeer(s.in.id).onTop()
	s.mark(s.in.id)
}

// On the host tree Child is the sending HOST index (the TCP transport
// cross-checks it against the hello identity); here it is translated to
// that host's root member — the child the member-level tree lists under
// our root. An out-of-range host index cannot be attributed to any edge:
// a sender violation, rejected and counted like onUp's unknown child.
func (s *sched) onExtUp(m UpMessage) {
	if m.Child < 0 || m.Child >= len(s.hy.HostRoot) {
		s.b.statRejSender.Add(1)
		return
	}
	m = remapUpChild(m, s.hy.HostRoot[m.Child])
	s.treePeer(s.in.id).onUp(&m)
	s.mark(s.in.id)
}

// pollLink receives what the link's channels hold, with non-blocking
// single-channel polls: polling an empty channel is a lock-free check,
// where a select over several locks every one. A turn polls them whether
// or not input was posted, so frames the link kept from before the hook
// was registered are received by the next turn, not the next sweep.
func (s *sched) pollLink() {
	if s.in == nil {
		return
	}
	select {
	case m := <-s.extFrom:
		s.onExtFrom(m)
	default:
	}
	select {
	case <-s.extTop:
		s.onExtTop()
	default:
	}
	for {
		select {
		case m := <-s.extUp:
			s.onExtUp(m)
		default:
			return
		}
	}
}

// controls applies the control messages waiting in the channel if input
// was posted since the holder last looked, clearing input first, so input
// posted after the look is posted again. drained applies them one at a
// time with a drain after each; a turn does that before it takes the
// arrivals. Called again after the take, undrained, it applies what was
// posted since the first look ahead of the drain that steps the arrivals:
// an arrival posted after an injection returned must not be stepped before
// the fault is applied.
func (s *sched) controls(drained bool) {
	if !s.input.Load() {
		return
	}
	s.input.Swap(false) // a read of the poster's mark, so its message is seen
	for {
		select {
		case c := <-s.ctrl:
			s.onCtrl(c)
			if drained {
				s.drain()
			}
		default:
			return
		}
	}
}

// post marks member id's arrival as posted; its ticket is already in the
// gate's arrival word. atomic.Uint64.Or needs go1.23, so the bit is set by
// CAS, retried only when another poster changed the word in between.
func (s *sched) post(id int) {
	w, bit := &s.arrivals[id/64], uint64(1)<<(id%64)
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// posted reports whether an arrival, a control message or link input waits
// to be taken.
func (s *sched) posted() bool {
	if s.input.Load() {
		return true
	}
	for i := range s.arrivals {
		if s.arrivals[i].Load() != 0 {
			return true
		}
	}
	return false
}

// takeArrivals hands every posted arrival to its member's work gate and
// queues the member for a step.
func (s *sched) takeArrivals() {
	for i := range s.arrivals {
		if s.arrivals[i].Load() == 0 {
			continue
		}
		for w := s.arrivals[i].Swap(0); w != 0; w &= w - 1 {
			id := i*64 + bits.TrailingZeros64(w)
			s.members[id].takeArrival()
			s.mark(id)
		}
	}
}

// assist is a poster's share of its scheduler's work, called after it
// posted: while posted work waits, take the baton and run a turn. A failed
// CAS leaves the posted work to the holder, whose release is followed by
// the same look. On a barrier that is down the posted work stays where it
// is.
func (s *sched) assist() {
	for s.posted() && s.baton.CompareAndSwap(false, true) {
		ran := s.turn()
		s.baton.Store(false)
		if !ran {
			return
		}
	}
}

// turn is one scheduler turn, run by the baton's holder: apply the control
// messages, take the posted arrivals, receive the link's input, drain, and
// at quiescence settle an unbalanced ledger. On a barrier that is down it
// does nothing, so it delivers nothing, and reports false.
func (s *sched) turn() bool {
	if s.b.down() != nil {
		return false
	}
	for {
		s.controls(true)
		s.takeArrivals()
		s.controls(false)
		s.pollLink()
		s.drain()
		if s.owed == 0 || !s.pullRound() {
			return true
		}
	}
}

// control offers c to the control channel without blocking and reports
// whether it was queued. A queued message is posted input: the caller — a
// fault injector or the resend sweeper — then runs the turn that applies
// it, unless another goroutine holds the baton (external).
func (s *sched) control(c ctrlMsg) bool {
	if !offer(s.ctrl, c) {
		return false
	}
	s.external()
	return true
}

// prime runs the scheduler's first turn on New's goroutine, holding the
// baton newSched handed over: every hosted member steps, and what the link
// received before the hook was registered is taken. Then it releases the
// baton and, like every release, looks for work posted meanwhile.
func (s *sched) prime() {
	for id, m := range s.members {
		if m != nil {
			s.mark(id)
		}
	}
	s.turn()
	s.baton.Store(false)
	s.assist()
}
