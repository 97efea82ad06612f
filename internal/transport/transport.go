// Package transport carries the runtime barrier's protocol frames over TCP,
// so a fault-tolerant barrier can span OS processes and machines.
//
// There is one transport: the Mux (mux.go has the connection, slot, writer
// and demux design). Every pair of processes that share a protocol edge
// keeps one symmetric connection — the lower process index dials, the
// higher accepts — opened by a hello frame carrying the wire version, the
// dialer's index and a digest of the whole configuration.
//
// The single-group transports in this file — TCP for a ring, TCPTree for a
// tree given by its parent vector — are thin constructors over that
// machinery: each opened member gets its own one-group Mux, and the link
// it returns owns that mux, so closing the link frees the member's
// listener and connections exactly as a process death would.
//
// Fault mapping: the transport adds no recovery logic of its own. Every
// socket failure is translated into a fault class the barrier protocol
// already masks (see Table 1 of the paper):
//
//   - connection reset, partial write, dial failure → message loss: the
//     damaged connection is dropped and redialed; the barrier's periodic
//     retransmission re-delivers current state;
//   - frame decode error (bad magic, truncated frame, CRC mismatch,
//     oversized length), or a frame the route table does not expect from
//     that peer → detected corruption, which the paper reduces to loss:
//     the frame is discarded and the connection dropped rather than
//     attempting to resynchronize the byte stream;
//   - a slow or dead peer → delay: sends are slot overwrites and never
//     block a protocol goroutine.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/topo"
)

// TCPConfig parameterizes a single-group TCP transport, and holds the peer
// list and connection knobs of a Mux (MuxConfig embeds it).
type TCPConfig struct {
	// Peers[j] is member (for a Mux, process) j's listen address
	// (host:port); the group has len(Peers) members.
	Peers []string
	// BaseBackoff and MaxBackoff bound the reconnect backoff (defaults
	// 10ms and 1s). Each failed dial doubles the delay up to MaxBackoff,
	// with up to 50% random jitter subtracted so that members restarting
	// together do not reconnect in lockstep.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the wait for a dialer's hello frame
	// (default 5s).
	HandshakeTimeout time.Duration
	// MaxPending bounds concurrent un-handshaken incoming connections
	// (default 64). Each pre-handshake connection holds a goroutine and a
	// frame buffer for up to HandshakeTimeout; beyond the bound new
	// connections are closed immediately and counted as accept overflows,
	// so a dial flood or reconnect storm cannot pile up unbounded state.
	MaxPending int
	// Logf, if non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
	// Registry, if non-nil, receives the transport's metric series
	// (dials, reconnect backoff state, CRC drops, frames). The counters
	// are read at scrape time from the atomics the transport maintains
	// anyway, so exporting costs the data path nothing.
	Registry *obsv.Registry
}

// withDefaults fills in the documented defaults of the knobs left zero.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Option mutates a TCPConfig (used by the loopback constructors).
type Option func(*TCPConfig)

// TCPStats is a snapshot of a transport's counters.
type TCPStats struct {
	Dials             int64 // successful outgoing connections
	FailedDials       int64 // dial attempts that ended in backoff
	Accepts           int64 // accepted incoming connections
	HandshakeRejects  int64 // incoming connections rejected at hello
	DigestRejects     int64 // hello rejects caused by a config digest mismatch
	AcceptOverflows   int64 // connections closed at accept: too many un-handshaken
	ConnDrops         int64 // established connections dropped after an error
	DecodeErrors      int64 // frames rejected by the codec
	FramesSent        int64
	FramesRecv        int64
	ConnectedOut      int64 // outgoing connections currently established (gauge)
	BackingOff        int64 // dialers currently sleeping in reconnect backoff (gauge)
	PendingHandshakes int64 // accepted connections awaiting their hello (gauge)
}

// tcpStats holds a transport's counters: a Mux's own, or one instance
// shared by every member mux of a TCP/TCPTree.
type tcpStats struct {
	dials, failedDials, accepts, handshakeRejects atomic.Int64
	digestRejects, acceptOverflows                atomic.Int64
	connDrops, decodeErrors                       atomic.Int64
	framesSent, framesRecv                        atomic.Int64
	connectedOut, backingOff, pendingHandshakes   atomic.Int64 // gauges

	// Registry bookkeeping: the series registered on behalf of this
	// transport, so Close can unregister them and a successor transport
	// can register the same names on the same registry. Written at
	// construction and Close only.
	reg      *obsv.Registry
	regNames []string
}

func (s *tcpStats) snapshot() TCPStats {
	return TCPStats{
		Dials:             s.dials.Load(),
		FailedDials:       s.failedDials.Load(),
		Accepts:           s.accepts.Load(),
		HandshakeRejects:  s.handshakeRejects.Load(),
		DigestRejects:     s.digestRejects.Load(),
		AcceptOverflows:   s.acceptOverflows.Load(),
		ConnDrops:         s.connDrops.Load(),
		DecodeErrors:      s.decodeErrors.Load(),
		FramesSent:        s.framesSent.Load(),
		FramesRecv:        s.framesRecv.Load(),
		ConnectedOut:      s.connectedOut.Load(),
		BackingOff:        s.backingOff.Load(),
		PendingHandshakes: s.pendingHandshakes.Load(),
	}
}

// register installs the transport's metric series on r. Every series is a
// scrape-time read of a counter the data path maintains regardless.
func (s *tcpStats) register(r *obsv.Registry) error {
	return s.registerAll(r, s.standardMetrics()...)
}

// registerAll registers ms on r, recording every accepted name so
// unregister can remove them at Close. On a name collision it rolls back
// everything this transport has registered so far (this call and earlier
// ones), leaving the registry as if the transport never existed.
func (s *tcpStats) registerAll(r *obsv.Registry, ms ...obsv.Metric) error {
	for _, m := range ms {
		if err := r.Register(m); err != nil {
			s.unregister()
			return err
		}
		s.reg = r
		s.regNames = append(s.regNames, m.Name())
	}
	return nil
}

// unregister removes every series this transport registered. Idempotent;
// called from the transport's Close so a bounded-lifetime transport (one
// tenant deployment among many sharing a registry) leaves no series
// behind — the leak class the barriervet metricpair analyzer rejects.
func (s *tcpStats) unregister() {
	if s.reg == nil {
		return
	}
	for _, n := range s.regNames {
		s.reg.Unregister(n)
	}
	s.reg = nil
	s.regNames = nil
}

func (s *tcpStats) standardMetrics() []obsv.Metric {
	return []obsv.Metric{
		obsv.NewCounterFunc("transport_dials_total",
			"Successful outgoing connections (reconnects included).", s.dials.Load),
		obsv.NewCounterFunc("transport_failed_dials_total",
			"Dial attempts that ended in reconnect backoff.", s.failedDials.Load),
		obsv.NewCounterFunc("transport_accepts_total",
			"Accepted incoming connections.", s.accepts.Load),
		obsv.NewCounterFunc("transport_handshake_rejects_total",
			"Incoming connections rejected at the hello handshake.", s.handshakeRejects.Load),
		obsv.NewCounterFunc("transport_digest_rejects_total",
			"Hello rejects caused by a config digest mismatch (cluster cross-connect).", s.digestRejects.Load),
		obsv.NewCounterFunc("transport_accept_overflows_total",
			"Connections closed at accept because too many were awaiting their hello.", s.acceptOverflows.Load),
		obsv.NewCounterFunc("transport_conn_drops_total",
			"Established connections dropped after an error.", s.connDrops.Load),
		obsv.NewCounterFunc("transport_decode_errors_total",
			"Frames rejected by the codec (CRC mismatch, truncation, oversize).", s.decodeErrors.Load),
		obsv.NewCounterFunc(`transport_frames_total{dir="sent"}`,
			"Frames by direction.", s.framesSent.Load),
		obsv.NewCounterFunc(`transport_frames_total{dir="recv"}`,
			"Frames by direction.", s.framesRecv.Load),
		obsv.NewGaugeFunc("transport_connected_links",
			"Outgoing connections currently established.", s.connectedOut.Load),
		obsv.NewGaugeFunc("transport_backing_off_links",
			"Dialers currently sleeping in reconnect backoff.", s.backingOff.Load),
		obsv.NewGaugeFunc("transport_pending_handshakes",
			"Accepted connections currently awaiting their hello frame.", s.pendingHandshakes.Load),
	}
}

// bindLoopback binds n ephemeral loopback listeners and returns them with
// their addresses.
func bindLoopback(n int) ([]net.Listener, []string, error) {
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for j := 0; j < n; j++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:j] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("transport: bind loopback member %d: %w", j, err)
		}
		listeners[j] = ln
		peers[j] = ln.Addr().String()
	}
	return listeners, peers, nil
}

// --- handshake machinery of the accept side ---

// admitPending reserves a pre-handshake slot; it reports false (counting
// an accept overflow) when max un-handshaken connections already exist, in
// which case the caller must close the connection without spawning
// anything — the bound is what keeps a dial flood or a reconnect storm
// from piling up goroutines and frame buffers.
func (s *tcpStats) admitPending(max int) bool {
	if s.pendingHandshakes.Add(1) > int64(max) {
		s.pendingHandshakes.Add(-1)
		s.acceptOverflows.Add(1)
		return false
	}
	return true
}

func (s *tcpStats) releasePending() { s.pendingHandshakes.Add(-1) }

// readHello reads and verifies the hello frame on an accepted connection:
// frame type, wire version, and the config digest (a mismatch means
// another cluster — different peers, topology or group set — dialed us,
// and is counted separately from plain identity rejects). The returned id
// is the dialer's claim; whether that id belongs on this edge is the
// caller's check. The read deadline is cleared only on success.
func readHello(fr *FrameReader, c net.Conn, timeout time.Duration, digest uint64, s *tcpStats) (from int, err error) {
	c.SetReadDeadline(time.Now().Add(timeout))
	typ, payload, err := fr.Read()
	if err != nil {
		return 0, err
	}
	if typ != FrameHello {
		return 0, fmt.Errorf("%w: first frame type %d, want hello", ErrCodec, typ)
	}
	from, peerDigest, err := DecodeHello(payload)
	if err != nil {
		return 0, err
	}
	if peerDigest != digest {
		s.digestRejects.Add(1)
		return from, fmt.Errorf("%w: config digest mismatch (peer %016x, ours %016x)", ErrCodec, peerDigest, digest)
	}
	c.SetReadDeadline(time.Time{})
	return from, nil
}

// keepAlive enables TCP keep-alive on verified connections.
func keepAlive(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(15 * time.Second)
	}
}

// --- single-group transports: one Mux per member ---

// memberMuxes is the state behind TCP and TCPTree: member j's mux and the
// group the transport speaks for. Built by NewTCP/NewTCPTree (and the
// loopback constructors) it creates a member's one-group mux at Open, and
// the link Open returns owns that mux. Built by the Ring/Tree views of a
// Mux or MuxSet it borrows running muxes that declare many groups: Open
// only attaches to the group, Close is a no-op, and the counters live on
// the muxes (Mux.Stats), not here.
type memberMuxes struct {
	group    uint32
	digest   uint64
	borrowed bool

	cfg   MuxConfig  // per-member template; Open fills in Self
	shape *topo.Tree // TCPTree's tree; nil for a ring
	stats *tcpStats  // shared by every member mux, so Stats is their sum

	mu        sync.Mutex
	muxes     []*Mux         // member j's mux once opened
	listeners []net.Listener // pre-bound by the loopback constructors, else nil
	closed    bool
}

func newMemberMuxes(cfg TCPConfig, topology string, shape *topo.Tree) (*memberMuxes, error) {
	if len(cfg.Peers) < 2 {
		return nil, errors.New("transport: need at least 2 peers")
	}
	s := &memberMuxes{
		cfg:       MuxConfig{Groups: []GroupSpec{{ID: 0, Topology: topology}}, TCPConfig: cfg},
		shape:     shape,
		stats:     new(tcpStats),
		muxes:     make([]*Mux, len(cfg.Peers)),
		listeners: make([]net.Listener, len(cfg.Peers)),
	}
	s.digest = muxDigest(s.cfg, shape)
	// The series are registered here, once, rather than by the member
	// muxes: several local members would collide on the names.
	s.cfg.Registry = nil
	if cfg.Registry != nil {
		if err := s.stats.register(cfg.Registry); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// borrowedMuxes is the view of group id over muxes owned by someone else;
// hosted[j] is nil where member j lives in another process.
func borrowedMuxes(id uint32, digest uint64, hosted []*Mux) *memberMuxes {
	return &memberMuxes{group: id, digest: digest, borrowed: true, muxes: hosted, stats: new(tcpStats)}
}

// loopbackMembers binds n ephemeral loopback listeners for an all-local
// deployment — the test, benchmark and conformance configuration. The
// backoff defaults are lowered (2ms base, 100ms cap) so in-process
// reconnect tests converge quickly; opts may override any field but Peers.
func loopbackMembers(n int, topology string, shape *topo.Tree, opts []Option) (*memberMuxes, error) {
	if n < 2 {
		return nil, errors.New("transport: need at least 2 members")
	}
	listeners, peers, err := bindLoopback(n)
	if err != nil {
		return nil, err
	}
	cfg := TCPConfig{BaseBackoff: 2 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Peers = peers
	s, err := newMemberMuxes(cfg, topology, shape)
	if err != nil {
		for _, l := range listeners {
			l.Close()
		}
		return nil, err
	}
	s.listeners = listeners
	return s, nil
}

// member returns member id's mux, building and starting it first unless
// the muxes are borrowed.
func (s *memberMuxes) member(id int) (*Mux, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("transport: closed")
	}
	if id < 0 || id >= len(s.muxes) {
		return nil, fmt.Errorf("transport: member %d out of range [0,%d)", id, len(s.muxes))
	}
	if s.borrowed {
		if s.muxes[id] == nil {
			return nil, fmt.Errorf("transport: member %d is not hosted by this process", id)
		}
		return s.muxes[id], nil
	}
	if s.muxes[id] != nil {
		return nil, fmt.Errorf("transport: member %d already open", id)
	}
	cfg := s.cfg
	cfg.Self = id
	m, err := newMux(cfg, muxWiring{ln: s.listeners[id], stats: s.stats, shape: s.shape, linkOwned: true})
	if err != nil {
		return nil, err
	}
	s.listeners[id] = nil // owned by the mux now
	if err := m.start(); err != nil {
		m.Close()
		return nil, err
	}
	s.muxes[id] = m
	return m, nil
}

// Close tears down every member's mux and listener.
func (s *memberMuxes) Close() error {
	if s.borrowed {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true // member adds no mux and takes no listener from here on
	s.mu.Unlock()
	for _, m := range s.muxes {
		if m != nil {
			m.Close()
		}
	}
	for _, ln := range s.listeners {
		if ln != nil {
			ln.Close() // pre-bound listeners of never-opened members
		}
	}
	s.stats.unregister()
	return nil
}

// Stats returns a snapshot of the transport's counters, summed over the
// members opened here.
func (s *memberMuxes) Stats() TCPStats { return s.stats.snapshot() }

// Digest returns the configuration digest every member sends (and
// expects) in hello frames.
func (s *memberMuxes) Digest() uint64 { return s.digest }

// BreakLinks force-closes every connection of member id, simulating a
// network blip. The dialing ends redial with backoff; in-flight frames are
// lost and masked by retransmission. Test hook.
func (s *memberMuxes) BreakLinks(id int) {
	s.mu.Lock()
	var m *Mux
	if id >= 0 && id < len(s.muxes) {
		m = s.muxes[id]
	}
	s.mu.Unlock()
	if m != nil {
		m.BreakConns()
	}
}

// TCP implements runtime.Transport for a ring over cfg.Peers.
type TCP struct{ *memberMuxes }

// NewTCP creates a TCP transport for the given ring. Nothing is bound or
// dialed until Open.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	s, err := newMemberMuxes(cfg, GroupRing, nil)
	if err != nil {
		return nil, err
	}
	return &TCP{s}, nil
}

// NewLoopbackRing returns a TCP transport for an all-local ring of n
// members on pre-bound ephemeral loopback listeners.
func NewLoopbackRing(n int, opts ...Option) (*TCP, error) {
	s, err := loopbackMembers(n, GroupRing, nil, opts)
	if err != nil {
		return nil, err
	}
	return &TCP{s}, nil
}

// Open starts member id's mux — binding its listener when a lower-indexed
// ring neighbor dials it, dialing the higher-indexed ones — and returns
// the ring link. Closing the link closes that mux.
func (t *TCP) Open(id int) (runtime.Link, error) {
	m, err := t.member(id)
	if err != nil {
		return nil, err
	}
	return m.openRing(t.group)
}

// TCPTree implements runtime.TreeTransport for a tree over cfg.Peers. It
// also satisfies the ring runtime.Transport interface so it can be placed
// in Config.Transport, but its Open always fails: a tree transport serves
// only TopologyTree and TopologyHybrid.
type TCPTree struct{ *memberMuxes }

// NewTCPTree creates a TCP tree transport for the tree described by the
// parent vector (parent[i] is member i's parent; the root, member 0, has
// -1). cfg.Peers[i] is member i's listen address. Nothing is bound or
// dialed until OpenTree.
func NewTCPTree(cfg TCPConfig, parent []int) (*TCPTree, error) {
	if len(cfg.Peers) != len(parent) {
		return nil, fmt.Errorf("transport: %d peers for a %d-member tree", len(cfg.Peers), len(parent))
	}
	shape, err := topo.NewTree(parent)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	s, err := newMemberMuxes(cfg, GroupTree, shape)
	if err != nil {
		return nil, err
	}
	return &TCPTree{s}, nil
}

// NewLoopbackTree returns a TCP tree transport for an all-local
// binary-heap tree of n members — the shape a TopologyTree barrier builds
// by default (topo.NewKAryTree(n, 2)) — on pre-bound loopback listeners.
func NewLoopbackTree(n int, opts ...Option) (*TCPTree, error) {
	shape, err := topo.NewKAryTree(n, 2)
	if err != nil {
		return nil, err
	}
	return newLoopbackTree(shape, opts)
}

// NewLoopbackTreeParent is NewLoopbackTree for an arbitrary tree shape:
// parent[i] is node i's parent, the root (node 0) has -1. The hybrid
// topology uses it to run a cross-HOST tree on loopback — the transport's
// node space there is host indices (topo.Hybrid.HostTree.Parent), not
// member ids.
func NewLoopbackTreeParent(parent []int, opts ...Option) (*TCPTree, error) {
	shape, err := topo.NewTree(parent)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return newLoopbackTree(shape, opts)
}

func newLoopbackTree(shape *topo.Tree, opts []Option) (*TCPTree, error) {
	s, err := loopbackMembers(shape.Size(), GroupTree, shape, opts)
	if err != nil {
		return nil, err
	}
	return &TCPTree{s}, nil
}

// Open rejects ring use.
func (t *TCPTree) Open(id int) (runtime.Link, error) {
	return nil, errors.New("transport: tree transport requires Config.Topology == TopologyTree")
}

// OpenTree starts member id's mux — binding its listener when a
// lower-indexed tree neighbor dials it, dialing the higher-indexed ones —
// and returns the tree link. Closing the link closes that mux.
func (t *TCPTree) OpenTree(id int) (runtime.TreeLink, error) {
	m, err := t.member(id)
	if err != nil {
		return nil, err
	}
	return m.openTree(t.group)
}
