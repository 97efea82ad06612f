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
// Placement is the only policy, and the topology is a roster, not a code
// path. New works out the rosters once (rostersOf): one member each for a
// ring and a tree — a tree is the hybrid whose hosts have one member — and
// Config.Hosts for a hybrid. Then place puts each lane's members:
//
//   - No Transport: one scheduler per lane hosts every member.
//   - A Transport: one scheduler per roster Members covers (a union of
//     whole rosters), on the roster's link, which attach opens, records
//     for Stop, checks for the topology's shape and hooks to the scheduler.
//
// The member kind, a ring proc or a tree proc (add), is the only fork.
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
// goroutines write: the arrivals, one word per gate (gate.arrival), one
// bit per hosted member (arrivals) and the count of them not yet answered
// (unanswered); the control channel the hosted members share, which
// carries resend pokes and every fault kind, a spurious frame included
// (the paper's faults are environment actions on a process's variables,
// and "unexpected message reception" is one on the receiver's copy); and
// the link's receive channels — upstream state frames, the
// ring's ⊤ markers, a host's convergecast frames. A control message or
// link input also sets input. A scheduler owns no goroutine and no timer:
// the barrier's one sweeper paces every retransmission, poking a quiet
// member through the control channel like any fault injector.
//
// Whoever posts work runs the turn — apply the control messages, take the
// posted arrivals, receive the link's input, drain the queue, pull at
// quiescence — if it gets the baton (one CAS; assist), and only the
// holder receives from the channels. A fault injector or the sweeper does
// (control), and so does the goroutine that posted link input, which
// calls the hook the scheduler registered with its link (Notify,
// external): a wire frame is answered on the mux reader that read it, a
// channel link's frame on a goroutine the link starts (one for every post
// made before it runs). An arrival is work only once it can complete
// something (arrive, due): on a scheduler hosting more than one member no
// pass completes before every hosted member has arrived, so the arrivals
// wait, posted, for the one that completes the roster, and that arrival
// runs the pass's one turn — it carries the whole wave and delivers every
// result, its own included, so neither an arrival nor a Leave wakes
// another goroutine. (A hosted gate holding an ErrReset makes every
// arrival due: the victim is answered at its own arrival. On a one-member
// roster every arrival is due.) A control message's or link input's turn
// takes every posted arrival, due or not. New runs each scheduler's first
// turn (prime). A poster that finds the baton taken leaves its work to
// the holder: every release is followed by a look for posted work, and
// the atomics are sequentially consistent, so of a poster whose CAS failed
// and the holder that released, one sees the other's write. No poster
// waits for the baton, and nothing spins; the one waiter is Stop, which
// takes and releases each baton once on the down barrier to wait out the
// turn in flight (Barrier.quiesce), parked until a release tells it the
// baton is free (release).
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

	"repro/internal/core"
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

	// roster is the number of members this scheduler hosts. On a roster of
	// more than one, posted arrivals are work only once they can complete
	// something (due): unanswered counts the hosted gates whose posted
	// arrival is not yet answered — enterGate adds one, gate.deliver takes
	// it away — and errsHeld the hosted gates holding an undelivered
	// ErrReset (gate.pendingErr), which only the holder changes.
	roster     int64
	unanswered atomic.Int64
	errsHeld   atomic.Int64

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
	// node space is the roster indices, host is this scheduler's; hy.HostOf
	// addresses down sends to remote child hosts, hy.HostRoot attributes
	// received up summaries.
	host int
	hy   *topo.Hybrid
}

// newSched adds an empty scheduler for a roster of hosted members to the
// lane; add populates it and New primes it.
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
		roster:      int64(hosted),
	}
	s.baton.Store(true) // prime releases it, after the first turn
	ln.scheds = append(ln.scheds, s)
	return s
}

// attach opens node id on cfg.Transport — lane li's roster h is node
// li·len(rosters) + h, a ring member or a tree host of that lane — for a
// new scheduler of hosted members, records the link for Stop and
// registers the scheduler's input hook. A link whose shape is not the
// topology's is rejected: a ring link has a ⊤ mailbox, a tree link an up
// mailbox. New closes it with every other link it recorded.
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

// rostersOf works out a barrier's rosters — the groups of members that
// share a scheduler over a Transport, roster h speaking on link h — and,
// for a tree or hybrid, the member tree they run (hy, nil on a ring). A
// ring's and a tree's rosters have one member each, and a tree is the
// hybrid of those one-member hosts; a hybrid's are Config.Hosts. It is
// the one place the topology decides anything but the metric label.
func rostersOf(cfg Config) (rosters [][]int, hy *topo.Hybrid, err error) {
	if cfg.Hosts != nil && cfg.Topology != TopologyHybrid {
		return nil, nil, errors.New("ftbarrier: Hosts is only meaningful with Topology == TopologyHybrid")
	}
	arity := cfg.TreeArity
	if arity == 0 {
		arity = 2
	}
	switch cfg.Topology {
	case TopologyTree:
		hy, err = topo.NewKAryHybrid(cfg.Participants, arity)
	case TopologyHybrid:
		if cfg.Hosts == nil {
			return nil, nil, errors.New("ftbarrier: Topology == TopologyHybrid requires Hosts (the host grouping)")
		}
		hy, err = topo.NewHybridTree(cfg.Hosts, arity)
		if err == nil && len(hy.HostOf) != cfg.Participants {
			return nil, nil, fmt.Errorf("ftbarrier: Hosts cover %d members, Participants = %d", len(hy.HostOf), cfg.Participants)
		}
	default:
		return topo.Singletons(cfg.Participants), nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("ftbarrier: %w", err)
	}
	return hy.Hosts, hy, nil
}

// place puts lane ln's members on schedulers. With no Transport one
// scheduler hosts every member. Over a Transport each roster this process
// hosts gets a scheduler of its own on the roster's link in this lane
// (local must cover a union of whole rosters), and the roster's first
// member, its host root, holds the link's edges: a parent host's down
// frames refresh its parent copy, and its convergecast acknowledgment —
// the aggregate of the roster's whole subtree — is the one frame that goes
// up. The member kind (add) is all the topology changes here.
func (b *Barrier) place(cfg Config, ln *lane, rosters [][]int, hy *topo.Hybrid, local []bool) error {
	if cfg.Transport == nil {
		// Every member is local (Members requires an explicit Transport).
		s := newSched(b, cfg, ln, b.n)
		for id := 0; id < b.n; id++ {
			s.add(cfg, ln, id, hy)
		}
		return nil
	}
	for h, roster := range rosters {
		hosted := 0
		for _, id := range roster {
			if local[id] {
				hosted++
			}
		}
		if hosted == 0 {
			continue
		}
		if hosted != len(roster) {
			// New closes the links opened so far.
			return fmt.Errorf("ftbarrier: Members must be a union of whole hosts: host %d's roster is %v, Members %v", h, roster, cfg.Members)
		}
		s, err := b.attach(cfg, ln, ln.idx*len(rosters)+h, hy != nil, len(roster))
		if err != nil {
			return err
		}
		s.host, s.hy = h, hy
		for _, id := range roster {
			s.add(cfg, ln, id, hy)
		}
		s.in = s.peer(roster[0])
	}
	return nil
}

// add creates member id on this scheduler: a tree proc at its place in
// hy's member tree, or with no member tree a ring proc. A tree proc starts
// in DT's start state (wave 0 acknowledged, everyone ready), and the first
// wave emits its begin of phase 0; a ring proc starts mid-phase, executing
// phase 0, so its begin is recorded here and the event trace forms
// complete instances.
func (s *sched) add(cfg Config, ln *lane, id int, hy *topo.Hybrid) {
	g := newGate(s, id, ln.idx)
	ln.gates[id] = g
	if hy != nil {
		s.members[id] = newTreeProc(g, hy.Tree.Parent[id], hy.Tree.Children[id], cfg)
		return
	}
	s.members[id] = newProc(g, cfg)
	if !cfg.Rejoin {
		s.b.emit(core.Event{Kind: core.EvBegin, Proc: id, Phase: 0})
	}
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

// arrive marks member id's arrival as posted — its ticket is already in
// the gate's arrival word — and counts it unanswered, then assists only if
// that made the posted arrivals due (see due). An arrival is counted after
// it is posted, so the count never reads more than the arrivals
// outstanding, and the last of them to count sees them all.
// atomic.Uint64.Or needs go1.23, so the bit is set by CAS, retried only
// when another poster changed the word in between.
func (s *sched) arrive(id int) {
	w, bit := &s.arrivals[id/64], uint64(1)<<(id%64)
	for old := w.Load(); !w.CompareAndSwap(old, old|bit); old = w.Load() {
	}
	if s.roster == 1 || s.unanswered.Add(1) >= s.roster || s.errsHeld.Load() > 0 {
		s.assist()
	}
}

// answered takes an answered arrival off the count (gate.deliver).
func (s *sched) answered() {
	if s.roster > 1 {
		s.unanswered.Add(-1)
	}
}

// due reports whether posted arrivals are work: on a one-member roster
// always; on a larger one once every hosted member has an arrival
// outstanding, since no pass completes before that, or while a hosted gate
// holds an ErrReset, which its arrival is answered with at once. Until
// then arrivals wait for the turn of the one that completes the roster, or
// of a control message or link input, which takes every posted arrival.
func (s *sched) due() bool {
	return s.roster == 1 || s.unanswered.Load() >= s.roster || s.errsHeld.Load() > 0
}

// posted reports whether a control message or link input waits to be
// taken, or an arrival that is due.
func (s *sched) posted() bool {
	if s.input.Load() {
		return true
	}
	if !s.due() {
		return false
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
		s.release()
		if !ran {
			return
		}
	}
}

// release hands the baton back. Once a quiesce is waiting (Stop's), it
// also leaves a token on idle: this baton may be the one it waits for.
func (s *sched) release() {
	s.baton.Store(false)
	if s.b.quiescing.Load() {
		offer(s.b.idle, struct{}{})
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
	s.b.statTurns.Add(1)
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
	s.release()
	s.assist()
}
