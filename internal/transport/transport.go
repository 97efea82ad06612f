// Package transport carries the runtime barrier's protocol frames over TCP,
// so a fault-tolerant barrier can span OS processes and machines.
//
// There is one transport: the Mux (mux.go has the connection, slot, writer
// and demux design). Every pair of processes that share a protocol edge
// keeps one symmetric connection — the lower process index dials, the
// higher accepts — opened by a hello frame carrying the wire version, the
// dialer's index and a digest of the whole configuration.
//
// The single-group transport in this file — TCP, for a ring or for a tree
// given by its parent vector — is a thin constructor over that machinery:
// each opened member gets its own one-group Mux, and the link it returns
// owns that mux, so closing the link frees the member's listener and
// connections exactly as a process death would.
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
	// Logf, if non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
	// Registry, if non-nil, receives the transport's metric series
	// (dials, reconnect backoff state, CRC drops, frames). The counters
	// are read at scrape time from the atomics the transport maintains
	// anyway, so exporting costs the data path nothing.
	Registry *obsv.Registry

	// baseBackoff and maxBackoff bound the reconnect backoff (defaults
	// 10ms and 1s; the loopback constructors lower them to 2ms and
	// 100ms). Each failed dial doubles the delay up to maxBackoff, with
	// up to 50% random jitter subtracted so that members restarting
	// together do not reconnect in lockstep.
	baseBackoff time.Duration
	maxBackoff  time.Duration
	// handshakeTimeout bounds the wait for a dialer's hello frame
	// (default 5s).
	handshakeTimeout time.Duration
	// maxPending bounds concurrent un-handshaken incoming connections
	// (default 64). Each pre-handshake connection holds a goroutine and a
	// frame buffer for up to handshakeTimeout; beyond the bound new
	// connections are closed immediately and counted as accept overflows,
	// so a dial flood or reconnect storm cannot pile up unbounded state.
	maxPending int
}

// dialTimeout bounds one dial attempt.
const dialTimeout = 2 * time.Second

// withDefaults fills in the documented defaults of the knobs left zero.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.baseBackoff <= 0 {
		c.baseBackoff = 10 * time.Millisecond
	}
	if c.maxBackoff <= 0 {
		c.maxBackoff = time.Second
	}
	if c.handshakeTimeout <= 0 {
		c.handshakeTimeout = 5 * time.Second
	}
	if c.maxPending <= 0 {
		c.maxPending = 64
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
// shared by every member mux of a TCP.
type tcpStats struct {
	dials, failedDials, accepts, handshakeRejects atomic.Int64
	digestRejects, acceptOverflows                atomic.Int64
	connDrops, decodeErrors                       atomic.Int64
	framesSent, framesRecv                        atomic.Int64
	connectedOut, backingOff, pendingHandshakes   atomic.Int64 // gauges

	// reg is the registry holding this transport's entry, nil if none:
	// Close unregisters it, so a successor transport can register on the
	// same registry. Written at construction and Close only.
	reg *obsv.Registry
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

// register installs the transport's series on r as one entry, set: the
// transport's 13 series (tcpStats itself), or a mux's with its groups'.
// Every series is a scrape-time read of a counter the data path
// maintains regardless. Two transports on one registry collide here.
func (s *tcpStats) register(r *obsv.Registry, set obsv.Set) error {
	if err := r.RegisterSet("transport", "", set); err != nil {
		return err
	}
	s.reg = r
	return nil
}

// unregister removes the entry register installed. Idempotent; called
// from the transport's Close so a bounded-lifetime transport (one tenant
// deployment among many sharing a registry) leaves no series behind —
// the leak class the barriervet metricpair analyzer rejects.
func (s *tcpStats) unregister() {
	if s.reg == nil {
		return
	}
	s.reg.UnregisterSet("transport", "")
	s.reg = nil
}

// Collect emits the transport's series: tcpStats is the Set of a TCP.
func (s *tcpStats) Collect(emit func(obsv.Series)) {
	counter := func(name, help string, v *atomic.Int64) {
		emit(obsv.Series{Name: name, Help: help, Kind: obsv.KindCounter, Value: v.Load()})
	}
	gauge := func(name, help string, v *atomic.Int64) {
		emit(obsv.Series{Name: name, Help: help, Kind: obsv.KindGauge, Value: v.Load()})
	}
	counter("transport_dials_total",
		"Successful outgoing connections (reconnects included).", &s.dials)
	counter("transport_failed_dials_total",
		"Dial attempts that ended in reconnect backoff.", &s.failedDials)
	counter("transport_accepts_total",
		"Accepted incoming connections.", &s.accepts)
	counter("transport_handshake_rejects_total",
		"Incoming connections rejected at the hello handshake.", &s.handshakeRejects)
	counter("transport_digest_rejects_total",
		"Hello rejects caused by a config digest mismatch (cluster cross-connect).", &s.digestRejects)
	counter("transport_accept_overflows_total",
		"Connections closed at accept because too many were awaiting their hello.", &s.acceptOverflows)
	counter("transport_conn_drops_total",
		"Established connections dropped after an error.", &s.connDrops)
	counter("transport_decode_errors_total",
		"Frames rejected by the codec (CRC mismatch, truncation, oversize).", &s.decodeErrors)
	counter(`transport_frames_total{dir="sent"}`,
		"Frames by direction.", &s.framesSent)
	counter(`transport_frames_total{dir="recv"}`,
		"Frames by direction.", &s.framesRecv)
	gauge("transport_connected_links",
		"Outgoing connections currently established.", &s.connectedOut)
	gauge("transport_backing_off_links",
		"Dialers currently sleeping in reconnect backoff.", &s.backingOff)
	gauge("transport_pending_handshakes",
		"Accepted connections currently awaiting their hello frame.", &s.pendingHandshakes)
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

// TCP implements runtime.Transport for one group over cfg.Peers: a ring
// (NewTCP, NewLoopbackRing) or the tree given by a parent vector
// (NewTCPTree, NewLoopbackTree, NewLoopbackTreeParent); the links Open
// returns have that shape. Open creates a member's one-group mux, and the
// link Open returns owns that mux. (The view of one group of running
// muxes that declare many is a Mux's or MuxSet's Group.)
type TCP struct {
	digest uint64

	cfg   MuxConfig  // per-member template; Open fills in Self
	shape *topo.Tree // the tree given by a parent vector; nil for a ring
	stats *tcpStats  // shared by every member mux, so Stats is their sum

	mu        sync.Mutex
	muxes     []*Mux         // member j's mux once opened
	listeners []net.Listener // pre-bound by the loopback constructors, else nil
	closed    bool
}

func newTCP(cfg TCPConfig, topology string, shape *topo.Tree) (*TCP, error) {
	if len(cfg.Peers) < 2 {
		return nil, errors.New("transport: need at least 2 peers")
	}
	t := &TCP{
		cfg:       MuxConfig{Groups: []GroupSpec{{ID: 0, Topology: topology}}, TCPConfig: cfg},
		shape:     shape,
		stats:     new(tcpStats),
		muxes:     make([]*Mux, len(cfg.Peers)),
		listeners: make([]net.Listener, len(cfg.Peers)),
	}
	t.digest = muxDigest(t.cfg, shape)
	// The series are registered here, once, rather than by the member
	// muxes: several local members would collide on the names.
	t.cfg.Registry = nil
	if cfg.Registry != nil {
		if err := t.stats.register(cfg.Registry, t.stats); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// loopbackTCP binds n ephemeral loopback listeners for an all-local
// deployment — the test, benchmark and conformance configuration. The
// backoff defaults are lowered (2ms base, 100ms cap) so in-process
// reconnect tests converge quickly; opts may override any field but Peers.
func loopbackTCP(n int, topology string, shape *topo.Tree, opts []Option) (*TCP, error) {
	if n < 2 {
		return nil, errors.New("transport: need at least 2 members")
	}
	listeners, peers, err := bindLoopback(n)
	if err != nil {
		return nil, err
	}
	cfg := TCPConfig{baseBackoff: 2 * time.Millisecond, maxBackoff: 100 * time.Millisecond}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Peers = peers
	t, err := newTCP(cfg, topology, shape)
	if err != nil {
		for _, l := range listeners {
			l.Close()
		}
		return nil, err
	}
	t.listeners = listeners
	return t, nil
}

// NewTCP creates a TCP transport for the given ring. Nothing is bound or
// dialed until Open.
func NewTCP(cfg TCPConfig) (*TCP, error) { return newTCP(cfg, GroupRing, nil) }

// NewLoopbackRing returns a TCP transport for an all-local ring of n
// members on pre-bound ephemeral loopback listeners.
func NewLoopbackRing(n int, opts ...Option) (*TCP, error) {
	return loopbackTCP(n, GroupRing, nil, opts)
}

// NewTCPTree creates a TCP transport for the tree described by the parent
// vector (parent[i] is member i's parent; the root, member 0, has -1).
// cfg.Peers[i] is member i's listen address. Nothing is bound or dialed
// until Open.
func NewTCPTree(cfg TCPConfig, parent []int) (*TCP, error) {
	if len(cfg.Peers) != len(parent) {
		return nil, fmt.Errorf("transport: %d peers for a %d-member tree", len(cfg.Peers), len(parent))
	}
	shape, err := topo.NewTree(parent)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return newTCP(cfg, GroupTree, shape)
}

// NewLoopbackTree returns a TCP transport for an all-local binary-heap
// tree of n members — the shape a TopologyTree barrier builds by default
// (topo.NewKAryTree(n, 2)) — on pre-bound loopback listeners.
func NewLoopbackTree(n int, opts ...Option) (*TCP, error) {
	shape, err := topo.NewKAryTree(n, 2)
	if err != nil {
		return nil, err
	}
	return loopbackTCP(shape.Size(), GroupTree, shape, opts)
}

// NewLoopbackTreeParent is NewLoopbackTree for an arbitrary tree shape:
// parent[i] is node i's parent, the root (node 0) has -1. The hybrid
// topology uses it to run a cross-HOST tree on loopback — the transport's
// node space there is host indices (topo.Hybrid.HostTree.Parent), not
// member ids.
func NewLoopbackTreeParent(parent []int, opts ...Option) (*TCP, error) {
	shape, err := topo.NewTree(parent)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return loopbackTCP(shape.Size(), GroupTree, shape, opts)
}

// Open starts member id's mux — binding its listener when a lower-indexed
// neighbor dials it, dialing the higher-indexed ones — and returns its
// link. Closing the link closes that mux. A TCP carries one lane: the
// ids of a Depth > 1 barrier's later lanes are out of range.
func (t *TCP) Open(id int) (runtime.Link, error) {
	m, err := t.member(id)
	if err != nil {
		return nil, err
	}
	return m.open(0) // the one group, GroupSpec{ID: 0}
}

// Open, under the name the benchmark harness's tree probes call; it goes
// when the harness calls Open.
func (t *TCP) OpenTree(id int) (runtime.Link, error) { return t.Open(id) }

// member builds and starts member id's mux.
func (t *TCP) member(id int) (*Mux, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errors.New("transport: closed")
	}
	if id < 0 || id >= len(t.muxes) {
		return nil, fmt.Errorf("transport: member %d out of range [0,%d)", id, len(t.muxes))
	}
	if t.muxes[id] != nil {
		return nil, fmt.Errorf("transport: member %d already open", id)
	}
	cfg := t.cfg
	cfg.Self = id
	m, err := newMux(cfg, muxWiring{ln: t.listeners[id], stats: t.stats, shape: t.shape, linkOwned: true})
	if err != nil {
		return nil, err
	}
	t.listeners[id] = nil // owned by the mux now
	if err := m.start(); err != nil {
		m.Close()
		return nil, err
	}
	t.muxes[id] = m
	return m, nil
}

// Close tears down every member's mux and listener.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true // member adds no mux and takes no listener from here on
	t.mu.Unlock()
	for _, m := range t.muxes {
		if m != nil {
			m.Close()
		}
	}
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close() // pre-bound listeners of never-opened members
		}
	}
	t.stats.unregister()
	return nil
}

// Stats returns a snapshot of the transport's counters, summed over the
// members opened here.
func (t *TCP) Stats() TCPStats { return t.stats.snapshot() }

// Digest returns the configuration digest every member sends (and
// expects) in hello frames.
func (t *TCP) Digest() uint64 { return t.digest }

// BreakLinks force-closes every connection of member id, simulating a
// network blip. The dialing ends redial with backoff; in-flight frames are
// lost and masked by retransmission. Test hook.
func (t *TCP) BreakLinks(id int) {
	t.mu.Lock()
	var m *Mux
	if id >= 0 && id < len(t.muxes) {
		m = t.muxes[id]
	}
	t.mu.Unlock()
	if m != nil {
		m.BreakConns()
	}
}
