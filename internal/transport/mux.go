// The Mux: one TCP connection per peer-process pair carries every barrier
// group crossing that edge. It is the package's only socket machinery — a
// daemon hosting thousands of groups and a lone ring member run the same
// accept, handshake, dial, reader and writer loops; the single-group
// transports (transport.go) are one-group muxes. Connections scale with
// peers, not groups, and a reconnect storm does not multiply by the group
// count; wire-format v2's per-frame group id is the demultiplexing key.
//
// Model: len(Peers) OS processes, each hosting member j of every group
// (a group's member ids are process indices). Each group is a ring over
// all processes, a tree over all processes or a hybrid host tree; the set
// of groups is declared up front and fingerprinted into the hello digest,
// so both ends of every connection provably agree on the multiplexing map.
//
// Connections are symmetric (both ends read and write protocol frames),
// so one connection per unordered pair suffices; the lower process index
// dials, the higher accepts. Outgoing frames go through per-(group, kind,
// edge) latest-state-wins slots, so a slow connection never blocks a
// protocol goroutine and superseded states coalesce.
//
// A frame in is answered on the goroutine that read it: Mux.deliver posts
// it to the group's mailbox and calls the hook the group's scheduler
// registered (Notify), which runs the scheduler's turn right there. While
// a reader is in a read batch — frames it has read and not yet answered,
// or still buffered — a post only marks its peer dirty; when the buffer
// runs dry the reader flushes every dirty peer, each in one non-blocking
// write of all its pending slots (muxPeer.flush). So a burst of frames in
// leaves as one burst out, frames of many groups in one syscall, and a
// wire hop wakes no other goroutine. What a flush cannot write at once
// goes to the connection's writer goroutine, which also carries the posts
// made while no reader is in a batch (arrivals, resends).
//
// Lifecycle isolation: a group's link can be closed (its barrier halted,
// stopped, or restarted for rejoin) without touching the shared
// connections; its slots just stop being marked and its incoming frames
// wait, latest-wins, for the next Open. No group can stall another: every
// delivery, with the turn it runs, is non-blocking, every send is a slot
// overwrite.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/prng"
	"repro/internal/runtime"
	"repro/internal/topo"
)

// Group topologies understood by the Mux (and the groups registry).
const (
	GroupRing   = "ring"
	GroupTree   = "tree"
	GroupHybrid = "hybrid"
)

// GroupSpec declares one barrier group hosted over the mux. For ring and
// tree groups the group spans all processes and member ids are process
// indices. For hybrid groups each process fuses a whole host's members
// locally and the mux carries only the cross-HOST tree: node ids on the
// wire are process (= host) indices.
type GroupSpec struct {
	// ID tags the group's frames on the wire. Unique per mux.
	ID uint32
	// Name labels the group's metric series ({group="..."}) and
	// strengthens the config digest. Letters, digits, '_', '.', '-'.
	Name string
	// Topology is GroupRing (default), GroupTree or GroupHybrid.
	Topology string
	// TreeArity is the heap arity for GroupTree and for GroupHybrid's
	// host tree (default 2), matching the shape a TopologyTree barrier
	// builds for the same member count.
	TreeArity int
	// Hosts is GroupHybrid's member grouping: Hosts[j] lists the barrier
	// members fused on process j, exactly as in the runtime's
	// Config.Hosts. Required for hybrid (one roster per process),
	// forbidden otherwise. Folded into the config digest so every
	// process must declare the identical grouping.
	Hosts [][]int
}

// MuxConfig parameterizes a Mux.
type MuxConfig struct {
	// Self is this process's index into Peers.
	Self int
	// Groups declares every group multiplexed over the shared
	// connections. All muxes of a deployment must declare identical
	// groups (the hello digest enforces it).
	Groups []GroupSpec
	// TCPConfig holds the peer list — Peers[j] is process j's listen
	// address — and the connection knobs, documented and defaulted there.
	// Its Registry also receives one per-group frame counter pair
	// labelled {group="..."}.
	TCPConfig
}

// MuxOption mutates a MuxConfig (used by NewLoopbackMuxes).
type MuxOption func(*MuxConfig)

// normalized fills in the defaults a spec may leave out (ring topology,
// arity 2), so that two processes spelling the same deployment differently
// build the same routes and hash to the same digest.
func (g GroupSpec) normalized() GroupSpec {
	if g.Topology == "" {
		g.Topology = GroupRing
	}
	if g.TreeArity == 0 {
		g.TreeArity = 2
	}
	return g
}

// muxDigest fingerprints a mux configuration: peer list plus the full
// group set (ids, names, topologies, tree shapes), and the explicit tree
// of a TCP built from a parent vector (nil otherwise).
func muxDigest(cfg MuxConfig, shape *topo.Tree) uint64 {
	parts := make([]string, 0, len(cfg.Peers)+4*len(cfg.Groups)+2)
	parts = append(parts, "mux", strconv.Itoa(len(cfg.Peers)))
	parts = append(parts, cfg.Peers...)
	for _, g := range cfg.Groups {
		g = g.normalized()
		parts = append(parts,
			strconv.FormatUint(uint64(g.ID), 10),
			g.Name,
			g.Topology,
			strconv.Itoa(g.TreeArity))
		for _, roster := range g.Hosts {
			parts = append(parts, "h"+strconv.Itoa(len(roster)))
			for _, member := range roster {
				parts = append(parts, strconv.Itoa(member))
			}
		}
	}
	if shape != nil {
		parts = append(parts, "p"+strconv.Itoa(len(shape.Parent)))
		for _, p := range shape.Parent {
			parts = append(parts, strconv.Itoa(p))
		}
	}
	return ConfigDigest(parts...)
}

func validGroupName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '_', c == '.', c == '-':
		default:
			return false
		}
	}
	return len(s) > 0
}

// Mux is one process's multiplexed attachment to every group. Create it
// with NewMux, obtain per-group transports with Group, and Close it
// after the barriers are stopped (barriers close only the links they
// open; the shared connections belong to the mux).
type Mux struct {
	cfg    MuxConfig
	digest uint64

	groups map[uint32]*muxGroup
	order  []*muxGroup // declaration order
	peers  []*muxPeer  // indexed by process id; nil where no shared edge
	routes map[routeKey]*muxGroup

	ln         net.Listener
	done       chan struct{}
	dialCtx    context.Context
	dialCancel context.CancelFunc
	closeOnce  sync.Once
	wg         sync.WaitGroup
	mu         sync.Mutex // guards peer conn registration against Close

	// reading counts the readers in a read batch: while it is nonzero a
	// post leaves its peer to their flush instead of kicking the writer.
	reading atomic.Int32

	stats *tcpStats
}

// muxGroup is one group's demux endpoint and this process's
// runtime.Link in it, of the group's topology: a ring link for a ring
// group, a tree link for a tree or hybrid group.
type muxGroup struct {
	// Inbox holds the group's inbound mailboxes — the upstream neighbour's
	// state frame (the ring predecessor's announcement or the tree parent's
	// broadcast), the ring successor's ⊤ marker, the children's convergecast
	// frames — and the open link's input hook. The mailboxes are the
	// group's, not an Open's: a frame that arrives while no link is open
	// waits in them for the next Open. open is set while one is.
	runtime.Inbox
	spec GroupSpec
	open atomic.Bool
	// owner is set on the one group of a TCP member's mux, where
	// the group's link owns the mux (see Close); nil on a shared mux.
	owner *Mux

	// The outgoing slots: a ring group's state slot to its successor and ⊤
	// slot to its predecessor, a tree group's state slot to each child and
	// up slot to its parent (nil at the root). slots lists them all, to be
	// cleared when the link closes.
	stateSlot, topSlot, upSlot *muxSlot
	downSlots                  map[int]*muxSlot // by child id
	slots                      []*muxSlot

	sent, recv atomic.Int64 // per-group frame counters
	// dropped counts frames that arrived for this group while none of its
	// links was open: before the first Open, or after a Close (stop/churn).
	// Each is still delivered to the link's latest-wins mailbox, where the
	// newest is what the next Open reads — but the count must not be
	// silent: a rejoin that keeps receiving old-incarnation traffic, or a
	// tenant wedged at teardown, shows up here first.
	dropped atomic.Int64
}

// routeKey is what the route table expects from a peer: a frame of type
// typ for group. The frame type alone names the group's mailbox.
type routeKey struct {
	group uint32
	typ   byte
	from  int
}

// NewMux validates the configuration, binds this process's listener (when
// any peer dials it) and starts the dialers for the peers it is
// responsible for. Per-group transports are obtained with Group.
func NewMux(cfg MuxConfig) (*Mux, error) {
	m, err := newMux(cfg, muxWiring{})
	if err != nil {
		return nil, err
	}
	if err := m.start(); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// muxWiring is what the in-package constructors hand newMux besides the
// public configuration. The zero value is NewMux's.
type muxWiring struct {
	ln    net.Listener // pre-bound listener (loopback), else bound by start
	stats *tcpStats    // counters shared with sibling member muxes, else the mux's own
	shape *topo.Tree   // explicit shape of the tree groups (a TCP tree), else the k-ary heap
	// linkOwned makes each group's link own the mux: closing the link closes
	// the mux (TCP members, which declare exactly one group).
	linkOwned bool
}

// newMux builds the mux without touching the network.
func newMux(cfg MuxConfig, w muxWiring) (*Mux, error) {
	n := len(cfg.Peers)
	if n < 2 {
		return nil, errors.New("transport: need at least 2 peers")
	}
	if cfg.Self < 0 || cfg.Self >= n {
		return nil, fmt.Errorf("transport: self %d out of range [0,%d)", cfg.Self, n)
	}
	if len(cfg.Groups) == 0 {
		return nil, errors.New("transport: mux needs at least one group")
	}
	cfg.TCPConfig = cfg.TCPConfig.withDefaults()
	if w.stats == nil {
		w.stats = new(tcpStats)
	}
	m := &Mux{
		cfg:    cfg,
		digest: muxDigest(cfg, w.shape),
		groups: make(map[uint32]*muxGroup, len(cfg.Groups)),
		peers:  make([]*muxPeer, n),
		routes: make(map[routeKey]*muxGroup),
		ln:     w.ln,
		done:   make(chan struct{}),
		stats:  w.stats,
	}
	peerOf := func(j int) *muxPeer {
		if p := m.peers[j]; p != nil {
			return p
		}
		p := &muxPeer{m: m, id: j, addr: cfg.Peers[j], kick: make(chan struct{}, 1)}
		p.rawWriteFn = p.rawWrite
		m.peers[j] = p
		return p
	}
	slot := func(dst int, g *muxGroup, typ byte) *muxSlot {
		p := peerOf(dst)
		s := &muxSlot{p: p, g: g, typ: typ}
		p.slots = append(p.slots, s)
		g.slots = append(g.slots, s)
		return s
	}
	self := cfg.Self
	for _, spec := range cfg.Groups {
		spec = spec.normalized()
		if _, dup := m.groups[spec.ID]; dup {
			return nil, fmt.Errorf("transport: duplicate group id %d", spec.ID)
		}
		if spec.Name != "" && !validGroupName(spec.Name) {
			return nil, fmt.Errorf("transport: invalid group name %q", spec.Name)
		}
		g := &muxGroup{spec: spec}
		if w.linkOwned {
			g.owner = m
		}
		if spec.Topology != GroupHybrid && spec.Hosts != nil {
			return nil, fmt.Errorf("transport: group %d: Hosts is only for hybrid groups", spec.ID)
		}
		switch spec.Topology {
		case GroupRing:
			pred, succ := (self-1+n)%n, (self+1)%n
			g.InitRing()
			g.stateSlot, g.topSlot = slot(succ, g, FrameState), slot(pred, g, FrameTop)
			m.routes[routeKey{spec.ID, FrameState, pred}] = g
			m.routes[routeKey{spec.ID, FrameTop, succ}] = g
		case GroupTree, GroupHybrid:
			shape := w.shape
			if spec.Topology == GroupHybrid {
				// One process per host; the mux carries the host tree.
				hy, err := topo.NewHybridTree(spec.Hosts, spec.TreeArity)
				if err != nil {
					return nil, fmt.Errorf("transport: group %d: %w", spec.ID, err)
				}
				if len(hy.Hosts) != n {
					return nil, fmt.Errorf("transport: group %d: %d hosts for %d processes", spec.ID, len(hy.Hosts), n)
				}
				shape = hy.HostTree
			} else if shape == nil {
				s, err := topo.NewKAryTree(n, spec.TreeArity)
				if err != nil {
					return nil, fmt.Errorf("transport: group %d: %w", spec.ID, err)
				}
				shape = s
			}
			kids := shape.Children[self]
			g.InitTree(len(kids))
			if parent := shape.Parent[self]; parent >= 0 {
				g.upSlot = slot(parent, g, FrameUp)
				m.routes[routeKey{spec.ID, FrameState, parent}] = g
			}
			g.downSlots = make(map[int]*muxSlot, len(kids))
			for _, kid := range kids {
				g.downSlots[kid] = slot(kid, g, FrameState)
				m.routes[routeKey{spec.ID, FrameUp, kid}] = g
			}
		default:
			return nil, fmt.Errorf("transport: group %d: unknown topology %q", spec.ID, spec.Topology)
		}
		m.groups[spec.ID] = g
		m.order = append(m.order, g)
	}
	if cfg.Registry != nil {
		if err := m.stats.register(cfg.Registry); err != nil {
			return nil, err
		}
		for _, g := range m.order {
			if g.spec.Name == "" {
				continue
			}
			g := g
			err := m.stats.registerAll(cfg.Registry,
				obsv.NewCounterFunc(`transport_group_frames_total{group="`+g.spec.Name+`",dir="sent"}`,
					"Frames by group and direction.", g.sent.Load),
				obsv.NewCounterFunc(`transport_group_frames_total{group="`+g.spec.Name+`",dir="recv"}`,
					"Frames by group and direction.", g.recv.Load),
				obsv.NewCounterFunc(`transport_group_frames_dropped_total{group="`+g.spec.Name+`"}`,
					"Frames that arrived for this group while none of its links was open; the newest is kept for the next Open.", g.dropped.Load))
			if err != nil {
				// registerAll already rolled back every series the mux had
				// registered so far.
				return nil, err
			}
		}
	}
	m.dialCtx, m.dialCancel = context.WithCancel(context.Background())
	return m, nil
}

// start binds the listener (if any peer dials this process) and launches
// the accept loop and the dial loops.
func (m *Mux) start() error {
	accepts := false
	for j, p := range m.peers {
		if p != nil && j < m.cfg.Self {
			accepts = true
		}
	}
	if accepts && m.ln == nil {
		ln, err := net.Listen("tcp", m.cfg.Peers[m.cfg.Self])
		if err != nil {
			return fmt.Errorf("transport: listen %s: %w", m.cfg.Peers[m.cfg.Self], err)
		}
		m.ln = ln
	}
	if m.ln != nil {
		m.wg.Add(1)
		go m.acceptLoop()
	}
	for j, p := range m.peers {
		if p != nil && j > m.cfg.Self {
			m.wg.Add(1)
			go p.dialLoop()
		}
	}
	return nil
}

// Close tears down the listener, every connection and every goroutine.
// Group links opened through Group views become inert (their channels
// fall silent); close the barriers first.
func (m *Mux) Close() error {
	m.closeOnce.Do(func() {
		close(m.done)
		m.dialCancel()
		if m.ln != nil {
			m.ln.Close()
		}
		m.mu.Lock()
		for _, p := range m.peers {
			if p != nil && p.conn != nil {
				p.conn.Close()
			}
		}
		m.mu.Unlock()
		if m.cfg.Registry != nil {
			m.stats.unregister() // only the series this mux registered itself
		}
	})
	m.wg.Wait()
	return nil
}

// Stats returns a snapshot of the mux's counters.
func (m *Mux) Stats() TCPStats { return m.stats.snapshot() }

// Digest returns the configuration digest this mux sends (and expects) in
// hello frames.
func (m *Mux) Digest() uint64 { return m.digest }

// PeerCount returns the number of processes in the deployment — the
// member count of every hosted group.
func (m *Mux) PeerCount() int { return len(m.cfg.Peers) }

// GroupStats returns the (sent, recv, dropped) frame counts of one group:
// frames sent on its behalf, frames received for it, and received frames
// that arrived while none of its links was open (kept, latest-wins, for
// the next Open).
func (m *Mux) GroupStats(id uint32) (sent, recv, dropped int64) {
	g := m.groups[id]
	if g == nil {
		return 0, 0, 0
	}
	return g.sent.Load(), g.recv.Load(), g.dropped.Load()
}

// BreakConns force-closes every live connection, simulating a network
// blip across all groups at once. Dialers redial with backoff; in-flight
// frames of every group are lost and masked by retransmission. Test hook.
func (m *Mux) BreakConns() {
	m.mu.Lock()
	for _, p := range m.peers {
		if p != nil && p.conn != nil {
			p.conn.Close()
		}
	}
	m.mu.Unlock()
}

// SetPartition injects (or heals) a network partition between this
// process and peer j: the live connection is closed, the dialer parks
// instead of redialing, and incoming connections from j are rejected at
// handshake until the partition heals. Frames posted meanwhile coalesce
// in their latest-wins slots and flow on the next connection, so to the
// protocol a partition is indistinguishable from a long network blip —
// retransmission masks the gap for every hosted group at once. A no-op
// when j is out of range or shares no edge with this process. Chaos/test
// hook (barrierbench's partition op).
func (m *Mux) SetPartition(j int, partitioned bool) {
	if j < 0 || j >= len(m.peers) || m.peers[j] == nil {
		return
	}
	p := m.peers[j]
	p.partitioned.Store(partitioned)
	if partitioned {
		m.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		m.mu.Unlock()
	}
}

func (m *Mux) closedNow() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// Group returns the runtime.Transport view of one group, of whatever
// topology: its links have the group's shape. Open accepts only this
// process's index — for a hybrid group a host (= process) index, the
// node space of the host tree a TopologyHybrid barrier plugs in — and at
// most one open link at a time; closing the link (Barrier.Stop does)
// detaches the group so it can be reopened — the rejoin path. The view's
// Close is a no-op: connections are shared, the mux owns them.
func (m *Mux) Group(id uint32) runtime.Transport {
	hosted := make([]*Mux, len(m.cfg.Peers))
	hosted[m.cfg.Self] = m
	return borrowedTCP(id, m.digest, hosted)
}

// open attaches this process's link to group id: the group itself.
func (m *Mux) open(id uint32) (runtime.Link, error) {
	g := m.groups[id]
	switch {
	case g == nil:
		return nil, fmt.Errorf("transport: unknown group %d", id)
	case !g.open.CompareAndSwap(false, true):
		return nil, fmt.Errorf("transport: group %d already open", id)
	}
	return g, nil
}

// --- outgoing: per-peer slots and writers ---

// muxSlot is one latest-state-wins outgoing mailbox: a protocol send
// overwrites the slot and marks its peer (muxPeer.posted); whoever drains
// the peer next takes the newest value, so superseded states coalesce — to
// the protocol that is indistinguishable from loss.
type muxSlot struct {
	p   *muxPeer
	g   *muxGroup
	typ byte

	mu      sync.Mutex
	pending bool
	state   runtime.Message
	up      runtime.UpMessage
}

func (s *muxSlot) postState(m runtime.Message) {
	s.mu.Lock()
	s.state = m
	s.pending = true
	s.mu.Unlock()
	s.p.posted()
}

func (s *muxSlot) postUp(m runtime.UpMessage) {
	s.mu.Lock()
	s.up = m
	s.pending = true
	s.mu.Unlock()
	s.p.posted()
}

func (s *muxSlot) postTop() {
	s.mu.Lock()
	s.pending = true
	s.mu.Unlock()
	s.p.posted()
}

func (s *muxSlot) clear() {
	s.mu.Lock()
	s.pending = false
	s.mu.Unlock()
}

// takeInto appends the slot's frame to buf if one is pending, clearing
// the slot, and reports whether it did.
func (s *muxSlot) takeInto(buf []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.pending {
		return buf, false
	}
	s.pending = false
	switch s.typ {
	case FrameState:
		buf = AppendState(buf, s.g.spec.ID, s.state)
	case FrameTop:
		buf = AppendTop(buf, s.g.spec.ID)
	case FrameUp:
		buf = AppendUp(buf, s.g.spec.ID, s.up)
	}
	s.g.sent.Add(1)
	return buf, true
}

// muxPeer is the shared edge to one peer process: the single connection
// (dialed or accepted per the lower-index-dials rule) plus every outgoing
// slot bound for that peer.
type muxPeer struct {
	m     *Mux
	id    int
	addr  string
	slots []*muxSlot
	kick  chan struct{} // cap 1: writer wake-up
	dirty atomic.Bool   // posted during a read batch, not yet flushed

	// partitioned is the chaos-injection gate (SetPartition): while set,
	// no connection to this peer is kept, dialed, or accepted.
	partitioned atomic.Bool

	conn net.Conn // guarded by m.mu

	// The write side, guarded by wmu: the connection the writer serves
	// (wc) and its raw socket for a reader's flush (raw; nil if it has
	// none), and the frames taken from the slots — out[off:] not yet
	// written, outN of them not yet counted sent. A flush that writes short
	// leaves the rest there, and the writer writes it before anything else.
	wmu  sync.Mutex
	wc   net.Conn
	raw  syscall.RawConn
	out  []byte
	off  int
	outN int
	// rawWriteFn is rawWrite bound once, so a flush allocates nothing;
	// wrote is what its write(2) wrote.
	rawWriteFn func(fd uintptr) bool
	wrote      int
}

func (p *muxPeer) kickWriter() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// posted is a slot's post: it marks the peer dirty and, unless a reader is
// in a read batch, takes the mark back and kicks the writer. The mark
// comes before the look at reading, and a reader leaves the count before
// it looks for marks (Mux.endBatch): of the two, one sees the other, so no
// post is left unsent.
func (p *muxPeer) posted() {
	p.dirty.Store(true)
	if p.m.reading.Load() == 0 && p.dirty.Swap(false) {
		p.kickWriter()
	}
}

// take appends every pending slot's frame to out, after the remainder a
// flush left if there is one.
func (p *muxPeer) take() {
	if p.off == len(p.out) {
		p.out, p.off = p.out[:0], 0
	}
	for _, s := range p.slots {
		var ok bool
		if p.out, ok = s.takeInto(p.out); ok {
			p.outN++
		}
	}
}

// written records that out has been written whole.
func (p *muxPeer) written() {
	p.m.stats.framesSent.Add(int64(p.outN))
	p.out, p.off, p.outN = p.out[:0], 0, 0
}

// flush sends the peer's pending slots from a reader without blocking: it
// takes the write lock with TryLock and makes one non-blocking write(2) of
// everything pending. What it cannot write — the lock is busy, a
// remainder is owed, the socket is full or takes part — it leaves to the
// writer, so a reader never waits on a socket: two processes cannot
// deadlock write against write, and sends still never block.
func (p *muxPeer) flush() {
	if !p.wmu.TryLock() {
		p.kickWriter()
		return
	}
	defer p.wmu.Unlock()
	if p.raw == nil || p.off < len(p.out) {
		p.kickWriter()
		return
	}
	p.take()
	if len(p.out) == 0 {
		return
	}
	p.wrote = 0
	if p.raw.Write(p.rawWriteFn) == nil && p.wrote == len(p.out) {
		p.written()
		return
	}
	p.off = p.wrote
	p.kickWriter()
}

// rawWrite is flush's write(2) on the socket's descriptor. It reports
// done whatever happened, so the poller never waits for the socket to be
// writable; a short write, EAGAIN or an error leaves the rest to the
// writer, whose blocking Write waits or meets the error.
func (p *muxPeer) rawWrite(fd uintptr) bool {
	if n, _ := syscall.Write(int(fd), p.out[p.off:]); n > 0 {
		p.wrote = n
	}
	return true
}

// rawConn returns c's raw socket, or nil if it has none.
func rawConn(c net.Conn) syscall.RawConn {
	if sc, ok := c.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			return rc
		}
	}
	return nil
}

// setConn registers a new live connection, replacing (closing) the
// previous one. It reports false when the mux is already closed.
func (p *muxPeer) setConn(c net.Conn) bool {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	if p.m.closedNow() {
		// Close already swept registered connections; registering now would
		// leak the connection past the sweep.
		c.Close()
		return false
	}
	if p.partitioned.Load() {
		// A partition landed while this connection was being established;
		// registering it would tunnel through the injected fault.
		c.Close()
		return false
	}
	if p.conn != nil {
		p.conn.Close() // replaced by the newer connection
	}
	p.conn = c
	return true
}

// writeLoop serves connection c's write side until it dies or the mux
// closes: on each kick it writes what a flush left, then every pending
// slot, in one blocking Write. Frames of many groups that went pending
// together leave in one syscall. A remainder of an earlier connection is
// dropped — its tail would tear c's stream — and is loss.
func (p *muxPeer) writeLoop(c net.Conn, dead chan struct{}) {
	p.wmu.Lock()
	p.wc, p.raw = c, rawConn(c)
	p.out, p.off, p.outN = p.out[:0], 0, 0
	p.wmu.Unlock()
	defer func() {
		p.wmu.Lock()
		if p.wc == c {
			p.wc, p.raw = nil, nil
		}
		p.wmu.Unlock()
	}()
	p.kickWriter() // flush anything posted while no connection existed
	for {
		select {
		case <-p.m.done:
			return
		case <-dead:
			return
		case <-p.kick:
		}
		if err := p.writeOut(c); err != nil {
			if err != errReplaced {
				p.m.connFailed(p, "write", err)
			}
			c.Close()
			return
		}
	}
}

// errReplaced ends the writer of a connection a newer one replaced.
var errReplaced = errors.New("transport: connection replaced")

// writeOut is one writer turn: the remainder, then the pending slots. A
// writer whose connection was replaced passes the kick on to the new one's.
func (p *muxPeer) writeOut(c net.Conn) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.wc != c {
		p.kickWriter()
		return errReplaced
	}
	p.take()
	if p.off == len(p.out) {
		return nil
	}
	if _, err := c.Write(p.out[p.off:]); err != nil {
		return err
	}
	p.written()
	return nil
}

// dialLoop maintains the connection to a higher-indexed peer: dial,
// hello, serve until it dies, redial with capped exponential backoff plus
// jitter: sleep in [backoff/2, backoff], then double up to the cap; the
// backoff resets after every successful dial. The jitter source is a
// goroutine-owned splitmix64 PRNG (single ownership is structural), and
// the per-edge seed keeps restarting members from reconnecting in lockstep.
func (p *muxPeer) dialLoop() {
	defer p.m.wg.Done()
	rng := prng.New(int64(p.m.cfg.Self)*1315423911 + int64(p.id)*2654435761 + 41)
	backoff := p.m.cfg.BaseBackoff
	for {
		if p.m.closedNow() {
			return
		}
		if p.partitioned.Load() {
			// Injected partition: park instead of redialing; heal is polled
			// so the dialer needs no extra wake-up channel.
			select {
			case <-p.m.done:
				return
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		d := net.Dialer{Timeout: p.m.cfg.DialTimeout}
		c, err := d.DialContext(p.m.dialCtx, "tcp", p.addr)
		if err != nil {
			if p.m.closedNow() {
				return
			}
			p.m.stats.failedDials.Add(1)
			sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
			p.m.stats.backingOff.Add(1)
			select {
			case <-p.m.done:
				p.m.stats.backingOff.Add(-1)
				return
			case <-time.After(sleep):
			}
			p.m.stats.backingOff.Add(-1)
			if backoff *= 2; backoff > p.m.cfg.MaxBackoff {
				backoff = p.m.cfg.MaxBackoff
			}
			continue
		}
		keepAlive(c)
		if _, err := c.Write(AppendHello(nil, p.m.cfg.Self, p.m.digest)); err != nil {
			p.m.connFailed(p, "write hello", err)
			c.Close()
			continue
		}
		p.m.stats.dials.Add(1)
		p.m.stats.connectedOut.Add(1)
		backoff = p.m.cfg.BaseBackoff
		if !p.setConn(c) {
			p.m.stats.connectedOut.Add(-1)
			if p.m.closedNow() {
				return
			}
			continue // partition raced the dial; park above until it heals
		}
		dead := make(chan struct{})
		p.m.wg.Add(1)
		go func() {
			defer p.m.wg.Done()
			defer close(dead)
			p.m.serveConn(p, c, NewFrameReader(c, 4096))
		}()
		p.writeLoop(c, dead) // returns when the connection dies or the mux closes
		c.Close()
		p.m.stats.connectedOut.Add(-1)
	}
}

// --- incoming: accept, handshake, demux ---

func (m *Mux) acceptLoop() {
	defer m.wg.Done()
	for {
		c, err := m.ln.Accept()
		if err != nil {
			if m.closedNow() {
				return
			}
			select {
			case <-m.done:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		if !m.stats.admitPending(m.cfg.MaxPending) {
			c.Close()
			continue
		}
		m.wg.Add(1)
		go m.handleIn(c)
	}
}

// handleIn verifies the hello handshake — the dialer must be a
// lower-indexed peer sharing an edge with this process, with a matching
// config digest — then serves frames until the connection dies.
func (m *Mux) handleIn(c net.Conn) {
	defer m.wg.Done()
	fr := NewFrameReader(c, 4096)
	from, err := readHello(fr, c, m.cfg.HandshakeTimeout, m.digest, m.stats)
	m.stats.releasePending()
	var p *muxPeer
	if err == nil {
		if from >= 0 && from < len(m.peers) && from < m.cfg.Self {
			p = m.peers[from]
		}
		if p == nil {
			err = fmt.Errorf("transport: process %d does not dial %d", from, m.cfg.Self)
		} else if p.partitioned.Load() {
			err = fmt.Errorf("transport: peer %d is partitioned (injected)", from)
			p = nil
		}
	}
	if err != nil {
		m.stats.handshakeRejects.Add(1)
		m.cfg.Logf("transport: mux %d rejected connection from %v: from=%d err=%v", m.cfg.Self, c.RemoteAddr(), from, err)
		c.Close()
		return
	}
	keepAlive(c)
	m.stats.accepts.Add(1)
	if !p.setConn(c) {
		return
	}
	dead := make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		p.writeLoop(c, dead)
	}()
	m.serveConn(p, c, fr) // returns when the connection dies
	close(dead)
	c.Close()
}

// serveConn reads and demultiplexes frames from one peer until the
// connection errors. A codec violation — including a frame for a group or
// direction the route table does not expect from this peer — drops the
// connection; every group's retransmission masks the loss. A frame read
// starts a read batch, which ends — and flushes — once no whole frame is
// left in the buffer, before a Read that could block, or when the
// connection ends.
func (m *Mux) serveConn(p *muxPeer, c net.Conn, fr *FrameReader) {
	batch := false
	defer func() {
		if batch {
			m.endBatch()
		}
	}()
	for {
		if batch && !fr.buffered() {
			batch = false
			m.endBatch()
		}
		typ, payload, err := fr.Read()
		if err != nil {
			m.connFailed(p, "read", err)
			c.Close()
			return
		}
		if !batch {
			batch = true
			m.reading.Add(1)
		}
		var (
			id  uint32
			msg runtime.Message
			up  runtime.UpMessage
		)
		switch typ {
		case FrameHello:
			continue // redundant hello: harmless, ignore
		case FrameState:
			id, msg, err = DecodeState(payload)
		case FrameTop:
			id, err = DecodeTop(payload)
		case FrameUp:
			if id, up, err = DecodeUp(payload); err == nil && up.Child != p.id {
				// The in-band child id must match the connection's verified
				// peer — a mismatch is detected corruption, not a protocol
				// message.
				err = fmt.Errorf("%w: in-band child %d on connection from %d", ErrCodec, up.Child, p.id)
			}
		default:
			err = fmt.Errorf("%w: unexpected frame type %d", ErrCodec, typ)
		}
		if err == nil {
			err = m.deliver(p, typ, id, msg, up)
		}
		if err != nil {
			m.connFailed(p, "frame", err)
			c.Close()
			return
		}
	}
}

// deliver is the one inbound path: it routes a frame of type typ for group
// id from peer p — a state frame (a ring predecessor's announcement or a
// tree parent's broadcast) carrying msg, a ⊤ marker, or a child's
// convergecast frame up — counts it, and posts it to the group's Inbox.
// Delivery does not wait for an open link: the newest frame is the
// neighbour's current register, which is what the next Open should read. A
// peer may connect before this process opens the group, and a frame that
// arrives after Close is no less current. Such a frame is counted in the
// group's dropped frames, so late traffic into a closed group is visible;
// the shared connection is not affected either way.
func (m *Mux) deliver(p *muxPeer, typ byte, id uint32, msg runtime.Message, up runtime.UpMessage) error {
	g := m.routes[routeKey{id, typ, p.id}]
	if g == nil {
		return fmt.Errorf("%w: no route for frame type %d group %d from peer %d", ErrCodec, typ, id, p.id)
	}
	m.stats.framesRecv.Add(1)
	g.recv.Add(1)
	if !g.open.Load() {
		g.dropped.Add(1)
	}
	switch typ {
	case FrameState:
		g.PostState(msg)
	case FrameTop:
		g.PostTop()
	case FrameUp:
		g.PostUp(up)
	}
	if f := g.Hook(); f != nil {
		f() // the scheduler's turn, on this reader
	}
	return nil
}

// endBatch ends a reader's read batch: it leaves the count of readers in
// one, then flushes every dirty peer (see muxPeer.posted for the order).
func (m *Mux) endBatch() {
	m.reading.Add(-1)
	for _, p := range m.peers {
		if p != nil && p.dirty.Load() && p.dirty.Swap(false) {
			p.flush()
		}
	}
}

// connFailed accounts one connection failure. Decode errors are counted
// separately from plain connection drops, but both end the connection:
// the reconnect plus the barrier's retransmission are the only recovery.
func (m *Mux) connFailed(p *muxPeer, what string, err error) {
	if m.closedNow() {
		return
	}
	if errors.Is(err, ErrCodec) {
		m.stats.decodeErrors.Add(1)
	}
	m.stats.connDrops.Add(1)
	m.cfg.Logf("transport: mux %d: peer %d: %s: %v", m.cfg.Self, p.id, what, err)
}

// --- the group's link ---

// A send posts to its slot while the link is open. A send on an edge the
// group's topology lacks — SendState or SendTop on a tree group, SendDown
// or SendUp on a ring group, SendDown to a node that is not a child,
// SendUp at the root — has no slot and drops the frame.
func (g *muxGroup) SendState(m runtime.Message) {
	if g.stateSlot != nil && g.open.Load() {
		g.stateSlot.postState(m)
	}
}

func (g *muxGroup) SendTop() {
	if g.topSlot != nil && g.open.Load() {
		g.topSlot.postTop()
	}
}

func (g *muxGroup) SendDown(child int, m runtime.Message) {
	if s := g.downSlots[child]; s != nil && g.open.Load() {
		s.postState(m)
	}
}

func (g *muxGroup) SendUp(m runtime.UpMessage) {
	if g.upSlot != nil && g.open.Load() {
		g.upSlot.postUp(m)
	}
}

// Close detaches the link from the shared connections without touching
// them: the group stops sending, its slots are cleared and its hook
// removed, and the next Open (via the Group view) reattaches it — the
// rejoin path. On a TCP member's mux the link owns the mux, so the
// member's listener, connections and goroutines go with it — to its
// neighbors, the process died.
func (g *muxGroup) Close() error {
	g.open.Store(false)
	g.Notify(nil)
	for _, s := range g.slots {
		s.clear()
	}
	if g.owner != nil {
		return g.owner.Close()
	}
	return nil
}

// --- loopback set: every process in one test binary ---

// MuxSet is an all-local collection of muxes, one per process, sharing a
// loopback peer list — the test and conformance configuration. Its
// Group views accept any process index and route Open to that process's
// mux.
type MuxSet struct {
	Muxes []*Mux
}

// NewLoopbackMuxes binds n ephemeral loopback listeners and returns n
// started muxes declaring the given groups. Backoff defaults are lowered
// (2ms base, 100ms cap) as in NewLoopbackRing; opts may override any
// field except Self and Peers.
func NewLoopbackMuxes(n int, groups []GroupSpec, opts ...MuxOption) (*MuxSet, error) {
	if n < 2 {
		return nil, errors.New("transport: need at least 2 members")
	}
	listeners, peers, err := bindLoopback(n)
	if err != nil {
		return nil, err
	}
	closeAll := func(ms []*Mux) {
		for _, m := range ms {
			if m != nil {
				m.Close()
			}
		}
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}
	set := &MuxSet{Muxes: make([]*Mux, n)}
	for j := 0; j < n; j++ {
		cfg := MuxConfig{
			Self:      j,
			Groups:    groups,
			TCPConfig: TCPConfig{Peers: peers, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
		}
		for _, opt := range opts {
			opt(&cfg)
		}
		cfg.Self, cfg.Peers = j, peers
		m, err := newMux(cfg, muxWiring{ln: listeners[j]})
		if err != nil {
			closeAll(set.Muxes)
			return nil, err
		}
		listeners[j] = nil // owned by the mux now
		set.Muxes[j] = m
		if err := m.start(); err != nil {
			closeAll(set.Muxes)
			return nil, err
		}
	}
	return set, nil
}

// PartitionProc isolates (or heals) process j from every other process
// in the set — the loopback analogue of unplugging one machine's network
// cable. Both sides of every edge are gated, so neither dial direction
// can tunnel through.
func (s *MuxSet) PartitionProc(j int, partitioned bool) {
	if j < 0 || j >= len(s.Muxes) {
		return
	}
	for k, m := range s.Muxes {
		if k == j {
			continue
		}
		m.SetPartition(j, partitioned)
		s.Muxes[j].SetPartition(k, partitioned)
	}
}

// Close closes every mux in the set.
func (s *MuxSet) Close() error {
	for _, m := range s.Muxes {
		if m != nil {
			m.Close()
		}
	}
	return nil
}

// Group returns a runtime.Transport for one group whose Open accepts any
// process index, routing to that process's mux.
func (s *MuxSet) Group(id uint32) runtime.Transport {
	return borrowedTCP(id, s.Muxes[0].digest, s.Muxes)
}

// Ring is Group, kept for the benchmark harness's mux probe.
func (s *MuxSet) Ring(id uint32) runtime.Transport { return s.Group(id) }
