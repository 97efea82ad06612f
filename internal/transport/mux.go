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
// protocol goroutine and superseded states coalesce. One writer per
// connection drains every dirty slot bound for that peer into a single
// Write, batching frames of many groups into one syscall.
//
// Lifecycle isolation: a group's link can be closed (its barrier halted,
// stopped, or restarted for rejoin) without touching the shared
// connections; its slots just stop being marked and its incoming frames
// wait, latest-wins, for the next Open. No group can stall another: every
// delivery is non-blocking, every send is a slot overwrite.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
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
	// Peers[j] is process j's listen address (host:port).
	Peers []string
	// Groups declares every group multiplexed over the shared
	// connections. All muxes of a deployment must declare identical
	// groups (the hello digest enforces it).
	Groups []GroupSpec

	// Backoff/timeout knobs, defaulted as in TCPConfig.
	BaseBackoff      time.Duration
	MaxBackoff       time.Duration
	DialTimeout      time.Duration
	HandshakeTimeout time.Duration
	// MaxPending bounds concurrent un-handshaken incoming connections
	// (default 64), as in TCPConfig.
	MaxPending int
	// Logf, if non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
	// Registry, if non-nil, receives the transport counters plus one
	// per-group frame counter pair labelled {group="..."}.
	Registry *obsv.Registry
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
// of a TCPTree (nil otherwise).
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
// with NewMux, obtain per-group transports with Ring/Tree, and Close it
// after the barriers are stopped (barriers close only the links they
// open; the shared connections belong to the mux).
type Mux struct {
	cfg    MuxConfig
	digest uint64

	groups map[uint32]*muxGroup
	order  []*muxGroup // declaration order
	peers  []*muxPeer  // indexed by process id; nil where no shared edge
	routes map[routeKey]route

	ln         net.Listener
	done       chan struct{}
	dialCtx    context.Context
	dialCancel context.CancelFunc
	closeOnce  sync.Once
	wg         sync.WaitGroup
	mu         sync.Mutex // guards peer conn registration against Close

	stats *tcpStats
}

// muxGroup is one group's demux endpoint: exactly one of ring/tree is
// non-nil, matching the declared topology.
type muxGroup struct {
	spec GroupSpec
	ring *muxRingLink
	tree *muxTreeLink
	// owner is set on the one group of a TCP/TCPTree member's mux, where
	// the group's link owns the mux (see release); nil on a shared mux.
	owner *Mux

	sent, recv atomic.Int64 // per-group frame counters
	// dropped counts frames that arrived for this group while none of its
	// links was open: before the first Open, or after a Close (stop/churn).
	// Each is still delivered to the link's latest-wins mailbox, where the
	// newest is what the next Open reads — but the count must not be
	// silent: a rejoin that keeps receiving old-incarnation traffic, or a
	// tenant wedged at teardown, shows up here first.
	dropped atomic.Int64
}

type routeKey struct {
	group uint32
	typ   byte
	from  int
}

// route delivery kinds.
const (
	rState byte = iota // ring: state from the predecessor
	rTop               // ring: ⊤ from the successor
	rDown              // tree: broadcast state from the parent
	rUp                // tree: convergecast from a child
)

type route struct {
	kind byte
	g    *muxGroup
}

// NewMux validates the configuration, binds this process's listener (when
// any peer dials it) and starts the dialers for the peers it is
// responsible for. Per-group transports are obtained with Ring/Tree.
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
	shape *topo.Tree   // explicit shape of the tree groups (TCPTree), else the k-ary heap
	// linkOwned makes each group's link own the mux: closing the link closes
	// the mux (TCP/TCPTree members, which declare exactly one group).
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
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 10 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 64
	}
	if w.stats == nil {
		w.stats = new(tcpStats)
	}
	m := &Mux{
		cfg:    cfg,
		digest: muxDigest(cfg, w.shape),
		groups: make(map[uint32]*muxGroup, len(cfg.Groups)),
		peers:  make([]*muxPeer, n),
		routes: make(map[routeKey]route),
		ln:     w.ln,
		done:   make(chan struct{}),
		stats:  w.stats,
	}
	peerOf := func(j int) *muxPeer {
		if p := m.peers[j]; p != nil {
			return p
		}
		p := &muxPeer{m: m, id: j, addr: cfg.Peers[j], kick: make(chan struct{}, 1)}
		m.peers[j] = p
		return p
	}
	slot := func(dst int, g *muxGroup, typ byte) *muxSlot {
		p := peerOf(dst)
		s := &muxSlot{p: p, g: g, typ: typ}
		p.slots = append(p.slots, s)
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
			g.ring = &muxRingLink{
				g:     g,
				state: make(chan runtime.Message, 1),
				top:   make(chan struct{}, 1),
			}
			g.ring.stateSlot = slot(succ, g, FrameState)
			g.ring.topSlot = slot(pred, g, FrameTop)
			m.routes[routeKey{spec.ID, FrameState, pred}] = route{rState, g}
			m.routes[routeKey{spec.ID, FrameTop, succ}] = route{rTop, g}
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
			tl := &muxTreeLink{
				g:      g,
				parent: shape.Parent[self],
				kidIdx: make(map[int]int, len(kids)),
				down:   make(chan runtime.Message, 1),
				up:     make(chan runtime.UpMessage, 2*len(kids)+2),
			}
			if tl.parent >= 0 {
				tl.upSlot = slot(tl.parent, g, FrameUp)
				m.routes[routeKey{spec.ID, FrameState, tl.parent}] = route{rDown, g}
			}
			tl.downSlots = make([]*muxSlot, len(kids))
			for i, kid := range kids {
				tl.kidIdx[kid] = i
				tl.downSlots[i] = slot(kid, g, FrameState)
				m.routes[routeKey{spec.ID, FrameUp, kid}] = route{rUp, g}
			}
			g.tree = tl
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
// Group links opened through Ring/Tree views become inert (their channels
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

// Ring returns the runtime.Transport view of one ring group. Open accepts
// only this process's index and at most one open link at a time; closing
// the link (Barrier.Stop does) detaches the group so it can be reopened —
// the rejoin path. The view's Close is a no-op: connections are shared,
// the mux owns them.
func (m *Mux) Ring(id uint32) runtime.Transport { return &TCP{m.view(id)} }

// Tree returns the runtime.TreeTransport view of one tree or hybrid
// group (see Ring for the lifecycle contract). For hybrid groups the
// view's node space is host (= process) indices: OpenTree(Self) yields
// the edge set a TopologyHybrid barrier plugs in as its Transport.
func (m *Mux) Tree(id uint32) runtime.Transport { return &TCPTree{m.view(id)} }

func (m *Mux) view(id uint32) *memberMuxes {
	hosted := make([]*Mux, len(m.cfg.Peers))
	hosted[m.cfg.Self] = m
	return borrowedMuxes(id, m.digest, hosted)
}

func (m *Mux) openRing(id uint32) (runtime.Link, error) {
	g := m.groups[id]
	switch {
	case g == nil:
		return nil, fmt.Errorf("transport: unknown group %d", id)
	case g.ring == nil:
		return nil, fmt.Errorf("transport: group %d is not a ring group", id)
	case !g.ring.open.CompareAndSwap(false, true):
		return nil, fmt.Errorf("transport: group %d already open", id)
	}
	return g.ring, nil
}

func (m *Mux) openTree(id uint32) (runtime.TreeLink, error) {
	g := m.groups[id]
	switch {
	case g == nil:
		return nil, fmt.Errorf("transport: unknown group %d", id)
	case g.tree == nil:
		return nil, fmt.Errorf("transport: group %d is not a tree group", id)
	case !g.tree.open.CompareAndSwap(false, true):
		return nil, fmt.Errorf("transport: group %d already open", id)
	}
	return g.tree, nil
}

// --- outgoing: per-peer slots and writers ---

// muxSlot is one latest-state-wins outgoing mailbox: a protocol send
// overwrites the slot and kicks the peer's writer; the writer takes the
// newest value, so superseded states coalesce — to the protocol that is
// indistinguishable from loss.
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
	s.p.kickWriter()
}

func (s *muxSlot) postUp(m runtime.UpMessage) {
	s.mu.Lock()
	s.up = m
	s.pending = true
	s.mu.Unlock()
	s.p.kickWriter()
}

func (s *muxSlot) postTop() {
	s.mu.Lock()
	s.pending = true
	s.mu.Unlock()
	s.p.kickWriter()
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

	// partitioned is the chaos-injection gate (SetPartition): while set,
	// no connection to this peer is kept, dialed, or accepted.
	partitioned atomic.Bool

	conn net.Conn // guarded by m.mu
}

func (p *muxPeer) kickWriter() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
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

// writeLoop drains dirty slots into single batched writes until the
// connection dies or the mux closes. Frames of many groups that went
// pending together leave in one Write.
func (p *muxPeer) writeLoop(c net.Conn, dead chan struct{}) {
	p.kickWriter() // flush anything posted while no connection existed
	var buf []byte
	batching := 0
	for {
		select {
		case <-p.m.done:
			return
		case <-dead:
			return
		case <-p.kick:
		}
		// While this edge has recently carried multi-frame drains, yield
		// once between the kick and the drain: other protocol goroutines
		// runnable right now (concurrent groups, pipelined lanes) post
		// into their slots first — superseded states coalesce in the
		// slots and the survivors leave in this Write instead of the next
		// one. The regime is sticky for a few drains because batches
		// alternate with single-frame drains even under sustained
		// multi-lane load; a workload that never batches stops yielding
		// and keeps the minimum-latency single-frame path.
		if batching > 0 {
			goruntime.Gosched()
		}
		buf = buf[:0]
		took := 0
		for _, s := range p.slots {
			var ok bool
			if buf, ok = s.takeInto(buf); ok {
				took++
			}
		}
		if took > 1 {
			batching = 8
		} else if batching > 0 {
			batching--
		}
		if took == 0 {
			continue
		}
		if _, err := c.Write(buf); err != nil {
			p.m.connFailed(p, "write", err)
			c.Close()
			return
		}
		p.m.stats.framesSent.Add(int64(took))
	}
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
// connection; every group's retransmission masks the loss.
func (m *Mux) serveConn(p *muxPeer, c net.Conn, fr *FrameReader) {
	for {
		typ, payload, err := fr.Read()
		if err != nil {
			m.connFailed(p, "read", err)
			c.Close()
			return
		}
		var id uint32
		switch typ {
		case FrameHello:
			// Redundant hello: harmless, ignore.
		case FrameState:
			var msg runtime.Message
			if id, msg, err = DecodeState(payload); err == nil {
				err = m.deliverState(p, id, msg)
			}
		case FrameTop:
			if id, err = DecodeTop(payload); err == nil {
				err = m.deliverTop(p, id)
			}
		case FrameUp:
			var msg runtime.UpMessage
			if id, msg, err = DecodeUp(payload); err == nil {
				err = m.deliverUp(p, id, msg)
			}
		default:
			err = fmt.Errorf("%w: unexpected frame type %d", ErrCodec, typ)
		}
		if err != nil {
			m.connFailed(p, "frame", err)
			c.Close()
			return
		}
	}
}

func (m *Mux) routeMiss(typ byte, id uint32, from int) error {
	return fmt.Errorf("%w: no route for frame type %d group %d from peer %d", ErrCodec, typ, id, from)
}

// deliverState routes a FrameState: a ring predecessor's announcement or
// a tree parent's broadcast. Delivery is latest-wins into the link's
// mailbox whether or not the link is open: the newest frame is the
// neighbour's current register, which is what the next Open should read.
// A peer may connect before this process opens the group, and a frame that
// arrives after Close is no less current. Such a frame is counted in the
// group's dropped frames, so late traffic into a closed group is visible;
// the shared connection is not affected either way.
func (m *Mux) deliverState(p *muxPeer, id uint32, msg runtime.Message) error {
	r, ok := m.routes[routeKey{id, FrameState, p.id}]
	if !ok {
		return m.routeMiss(FrameState, id, p.id)
	}
	m.stats.framesRecv.Add(1)
	r.g.recv.Add(1)
	var dst chan runtime.Message
	var openFlag *atomic.Bool
	switch r.kind {
	case rState:
		dst, openFlag = r.g.ring.state, &r.g.ring.open
	case rDown:
		dst, openFlag = r.g.tree.down, &r.g.tree.open
	}
	if !openFlag.Load() {
		r.g.dropped.Add(1)
	}
	select {
	case <-dst:
	default:
	}
	select {
	case dst <- msg:
	default:
	}
	return nil
}

func (m *Mux) deliverTop(p *muxPeer, id uint32) error {
	r, ok := m.routes[routeKey{id, FrameTop, p.id}]
	if !ok {
		return m.routeMiss(FrameTop, id, p.id)
	}
	m.stats.framesRecv.Add(1)
	r.g.recv.Add(1)
	if !r.g.ring.open.Load() {
		r.g.dropped.Add(1) // and still delivered (see deliverState)
	}
	select {
	case r.g.ring.top <- struct{}{}:
	default:
	}
	return nil
}

func (m *Mux) deliverUp(p *muxPeer, id uint32, msg runtime.UpMessage) error {
	r, ok := m.routes[routeKey{id, FrameUp, p.id}]
	if !ok {
		return m.routeMiss(FrameUp, id, p.id)
	}
	if msg.Child != p.id {
		// The in-band child id must match the connection's verified peer —
		// a mismatch is detected corruption, not a protocol message.
		return fmt.Errorf("%w: in-band child %d on connection from %d", ErrCodec, msg.Child, p.id)
	}
	m.stats.framesRecv.Add(1)
	r.g.recv.Add(1)
	tl := r.g.tree
	if !tl.open.Load() {
		r.g.dropped.Add(1) // and still delivered (see deliverState)
	}
	// Shared-mailbox delivery, the channel transport's discipline: send;
	// if full, displace the oldest and retry; losing that race is loss.
	select {
	case tl.up <- msg:
		return nil
	default:
	}
	select {
	case <-tl.up:
	default:
	}
	select {
	case tl.up <- msg:
	default:
	}
	return nil
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

// --- per-group links ---

// release ends a group link's Close. On a shared mux the link only
// detached; on a TCP/TCPTree member's mux the link owns the mux, so the
// member's listener, connections and goroutines go with it — to its
// neighbors, the process died.
func (g *muxGroup) release() error {
	if g.owner != nil {
		return g.owner.Close()
	}
	return nil
}

// muxRingLink is one group's ring attachment for this process. Closing it
// detaches the group from the shared connections without touching them;
// reopening (via the Ring view) reattaches — the teardown/rejoin path.
type muxRingLink struct {
	g     *muxGroup
	state chan runtime.Message
	top   chan struct{}

	stateSlot *muxSlot // to the ring successor
	topSlot   *muxSlot // to the ring predecessor
	open      atomic.Bool
}

func (l *muxRingLink) SendState(m runtime.Message) {
	if l.open.Load() {
		l.stateSlot.postState(m)
	}
}

func (l *muxRingLink) SendTop() {
	if l.open.Load() {
		l.topSlot.postTop()
	}
}

func (l *muxRingLink) State() <-chan runtime.Message { return l.state }
func (l *muxRingLink) Top() <-chan struct{}          { return l.top }

func (l *muxRingLink) Close() error {
	l.open.Store(false)
	l.stateSlot.clear()
	l.topSlot.clear()
	return l.g.release()
}

// muxTreeLink is one group's tree attachment for this process (see
// muxRingLink for the lifecycle contract).
type muxTreeLink struct {
	g      *muxGroup
	parent int         // -1 at the root
	kidIdx map[int]int // child id → index into downSlots

	down chan runtime.Message
	up   chan runtime.UpMessage

	upSlot    *muxSlot // nil at the root
	downSlots []*muxSlot
	open      atomic.Bool
}

func (l *muxTreeLink) SendDown(child int, m runtime.Message) {
	if !l.open.Load() {
		return
	}
	if i, ok := l.kidIdx[child]; ok {
		l.downSlots[i].postState(m)
	}
}

func (l *muxTreeLink) SendUp(m runtime.UpMessage) {
	if l.upSlot != nil && l.open.Load() {
		l.upSlot.postUp(m)
	}
}

func (l *muxTreeLink) Down() <-chan runtime.Message { return l.down }
func (l *muxTreeLink) Up() <-chan runtime.UpMessage { return l.up }

func (l *muxTreeLink) Close() error {
	l.open.Store(false)
	if l.upSlot != nil {
		l.upSlot.clear()
	}
	for _, s := range l.downSlots {
		s.clear()
	}
	return l.g.release()
}

// --- loopback set: every process in one test binary ---

// MuxSet is an all-local collection of muxes, one per process, sharing a
// loopback peer list — the test and conformance configuration. Its
// Ring/Tree views accept any process index and route Open to that
// process's mux.
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
			Self:        j,
			Peers:       peers,
			Groups:      groups,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
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

// Ring returns a runtime.Transport for one ring group whose Open accepts
// any process index, routing to that process's mux.
func (s *MuxSet) Ring(id uint32) runtime.Transport {
	return &TCP{borrowedMuxes(id, s.Muxes[0].digest, s.Muxes)}
}

// Tree returns a runtime transport for one tree or hybrid group
// (implements runtime.TreeTransport), routing like Ring.
func (s *MuxSet) Tree(id uint32) runtime.Transport {
	return &TCPTree{borrowedMuxes(id, s.Muxes[0].digest, s.Muxes)}
}
