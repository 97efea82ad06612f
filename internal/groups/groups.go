// Package groups hosts many independent barrier groups in one process
// over a single shared transport mux: one TCP connection per peer-process
// pair carries every group's frames, demultiplexed by the group id each
// v2 frame is tagged with. Each group is its own runtime.Barrier — its
// own token ring or double tree, its own fault policy, its own labelled
// metric series — so a fault, teardown, or restart in one group never
// perturbs another beyond sharing the socket.
//
// The deployment model matches cmd/barrierd: every group spans all
// processes and member ids are process indices, so group g's member i
// lives in process i. A Registry is one process's slice of that
// deployment: it owns the process's mux and a per-group Barrier hosting
// member Self.
package groups

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// Config declares one barrier group. The zero value of each knob defers
// to the runtime default.
type Config struct {
	// Name identifies the group: it keys StopGroup/StartGroup, labels the
	// group's metric series ({group="..."}) and strengthens the handshake
	// digest. Letters, digits, '_', '.', '-'; unique per registry
	// (including the ".l<k>" lane names a Depth > 1 group expands into).
	Name string
	// Topology is transport.GroupRing (default), transport.GroupTree or
	// transport.GroupHybrid.
	Topology string
	// TreeArity is the heap arity for tree groups and for a hybrid
	// group's host tree (default 2).
	TreeArity int
	// Hosts is the hybrid member grouping: Hosts[j] lists the barrier
	// members process j fuses locally (runtime Config.Hosts). Required
	// for hybrid groups — with exactly one roster per process — and
	// forbidden otherwise.
	Hosts [][]int
	// Depth is the wave-pipelining window (default 1). A Depth > 1 group
	// claims Depth consecutive wire group ids — lanes, named
	// "<Name>.l1".."<Name>.l<Depth-1>" after the first — so frames of all
	// in-flight barrier instances batch onto the same shared connections,
	// and the group's Await overlaps up to Depth instances.
	Depth int
	// NPhases is the group's phase-counter modulus (default 8).
	NPhases int
	// Resend is the group's retransmission period (default 200µs); see
	// runtime.Config.Resend. Loss between processes is masked within
	// 2 x max(Resend, ~1 ms of idle-timer granularity): a value below
	// ~1 ms buys nothing in an idle process and costs sweeps in a busy
	// one. (Loss inside a hybrid host's roster never waits for it.)
	Resend time.Duration
	// LossRate / CorruptRate inject detectable communication faults into
	// this group only (tests, demos, soak runs).
	LossRate    float64
	CorruptRate float64
	// Seed drives the group's internal randomness.
	Seed int64
}

// Options configures the process-wide side of a Registry.
type Options struct {
	// Self is this process's index into Peers — and its member id in
	// every group.
	Self int
	// Peers[j] is process j's listen address.
	Peers []string
	// Rejoin starts every group's local member in the detectably-reset
	// state instead of the phase-0 start state. Use it when this process
	// is restarted into a deployment that is already running.
	Rejoin bool
	// Metrics, if non-nil, receives the shared transport counters plus
	// every group's labelled barrier series.
	Metrics *obsv.Registry
	// Logf, if non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// Group is one barrier group's process-local handle.
type Group struct {
	id   uint32
	cfg  Config
	opts *Options
	mux  *transport.Mux

	mu sync.Mutex
	b  *runtime.Barrier // nil while stopped
}

// Registry is one process's attachment to a multi-group deployment.
type Registry struct {
	opts   Options
	mux    *transport.Mux
	ownMux bool
	groups []*Group
	byName map[string]*Group

	mu     sync.Mutex
	closed bool
}

// Specs translates the group declarations into the mux's wire-level group
// table, assigning ids by declaration order; a Depth > 1 group expands
// into Depth consecutive lane specs. Exposed so tests can build a
// loopback mux set for the same declarations.
func Specs(cfgs []Config) ([]transport.GroupSpec, error) {
	specs := make([]transport.GroupSpec, 0, len(cfgs))
	seen := make(map[string]bool, len(cfgs))
	for _, c := range cfgs {
		topo := c.Topology
		if topo == "" {
			topo = transport.GroupRing
		}
		switch topo {
		case transport.GroupRing, transport.GroupTree:
			if c.Hosts != nil {
				return nil, fmt.Errorf("groups: group %q: Hosts is only for hybrid groups", c.Name)
			}
		case transport.GroupHybrid:
			if c.Hosts == nil {
				return nil, fmt.Errorf("groups: group %q: hybrid needs a Hosts grouping", c.Name)
			}
		default:
			return nil, fmt.Errorf("groups: group %q: unknown topology %q", c.Name, c.Topology)
		}
		if c.Depth < 0 {
			return nil, fmt.Errorf("groups: group %q: negative Depth", c.Name)
		}
		depth := c.Depth
		if depth == 0 {
			depth = 1
		}
		for li := 0; li < depth; li++ {
			name := c.Name
			if li > 0 {
				name = fmt.Sprintf("%s.l%d", c.Name, li)
			}
			if seen[name] {
				return nil, fmt.Errorf("groups: duplicate group name %q", name)
			}
			seen[name] = true
			specs = append(specs, transport.GroupSpec{
				ID:        uint32(len(specs)),
				Name:      name,
				Topology:  topo,
				TreeArity: c.TreeArity,
				Hosts:     c.Hosts,
			})
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("groups: no groups declared")
	}
	return specs, nil
}

// New builds the registry: it validates the declarations, brings up the
// shared mux, and starts every group's local barrier member.
func New(opts Options, cfgs []Config) (*Registry, error) {
	specs, err := Specs(cfgs)
	if err != nil {
		return nil, err
	}
	mux, err := transport.NewMux(transport.MuxConfig{
		Self:      opts.Self,
		Groups:    specs,
		TCPConfig: transport.TCPConfig{Peers: opts.Peers, Logf: opts.Logf, Registry: opts.Metrics},
	})
	if err != nil {
		return nil, err
	}
	r, err := NewWithMux(opts, cfgs, mux)
	if err != nil {
		mux.Close()
		return nil, err
	}
	r.ownMux = true
	return r, nil
}

// NewWithMux is New over an existing mux (a loopback test set). The mux
// must have been created from Specs(cfgs); it stays the caller's to close.
// Only len(opts.Peers) matters here (the member count); nil defers to the
// mux's peer count.
func NewWithMux(opts Options, cfgs []Config, mux *transport.Mux) (*Registry, error) {
	if _, err := Specs(cfgs); err != nil {
		return nil, err
	}
	if opts.Peers == nil {
		opts.Peers = make([]string, mux.PeerCount())
	}
	r := &Registry{
		opts:   opts,
		mux:    mux,
		byName: make(map[string]*Group, len(cfgs)),
	}
	var nextID uint32 // lane-0 wire id; Depth > 1 groups claim Depth ids
	for _, c := range cfgs {
		g := &Group{id: nextID, cfg: c, opts: &r.opts, mux: mux}
		nextID += uint32(max(c.Depth, 1))
		r.groups = append(r.groups, g)
		r.byName[c.Name] = g
	}
	for _, g := range r.groups {
		if err := g.start(opts.Rejoin); err != nil {
			r.Close()
			return nil, fmt.Errorf("groups: start %q: %w", g.cfg.Name, err)
		}
	}
	return r, nil
}

// Groups returns the group handles in declaration order.
func (r *Registry) Groups() []*Group { return r.groups }

// Group returns the named group's handle, or nil.
func (r *Registry) Group(name string) *Group { return r.byName[name] }

// Mux exposes the shared transport (stats, fault injection in tests).
func (r *Registry) Mux() *transport.Mux { return r.mux }

// StopGroup tears down one group's local member without touching the
// shared connections or any other group. Frames still arriving for the
// group are dropped silently. Returns false if the name is unknown.
func (r *Registry) StopGroup(name string) bool {
	g := r.byName[name]
	if g == nil {
		return false
	}
	g.Stop()
	return true
}

// StartGroup restarts a stopped group's local member over the same shared
// connections. rejoin selects the Section 7 restart state, masking the
// restart as a detectable fault in a deployment that kept running.
func (r *Registry) StartGroup(name string, rejoin bool) error {
	g := r.byName[name]
	if g == nil {
		return fmt.Errorf("groups: unknown group %q", name)
	}
	return g.Start(rejoin)
}

// Close stops every group and, when the registry created the mux, closes
// the shared connections. Idempotent.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	for _, g := range r.groups {
		g.Stop()
	}
	if r.ownMux {
		return r.mux.Close()
	}
	return nil
}

// Name returns the group's declared name.
func (g *Group) Name() string { return g.cfg.Name }

// ID returns the group's wire id (its first lane's, when Depth > 1).
func (g *Group) ID() uint32 { return g.id }

// Barrier returns the running barrier, or nil while the group is stopped.
func (g *Group) Barrier() *runtime.Barrier {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.b
}

// Members returns the barrier member ids this process hosts for the
// group: []{Self} for ring and tree groups, the process's whole host
// roster for hybrid groups.
func (g *Group) Members() []int {
	if g.cfg.Topology == transport.GroupHybrid {
		return g.cfg.Hosts[g.opts.Self]
	}
	return []int{g.opts.Self}
}

// Await synchronizes this process's sole member of the group; see
// runtime.Barrier.Await. Returns runtime.ErrStopped while the group is
// stopped. For a hybrid group hosting more than one member, use
// AwaitMember. Await is on every caller's hot path and, like the barrier
// beneath it, does not allocate.
func (g *Group) Await(ctx context.Context) (int, error) {
	id := g.opts.Self
	if g.cfg.Topology == transport.GroupHybrid {
		roster := g.cfg.Hosts[g.opts.Self]
		if len(roster) != 1 {
			return 0, fmt.Errorf("groups: group %q hosts members %v; use AwaitMember", g.cfg.Name, roster)
		}
		id = roster[0]
	}
	return g.AwaitMember(ctx, id)
}

// AwaitMember synchronizes one locally-hosted member of the group.
func (g *Group) AwaitMember(ctx context.Context, id int) (int, error) {
	b := g.Barrier()
	if b == nil {
		return 0, runtime.ErrStopped
	}
	return b.Await(ctx, id)
}

// Stop tears down the local member: the barrier stops, its mux links
// close (frames for the group now drop silently at the demux), and its
// metric series unregister so a successor can claim the names. Idempotent.
func (g *Group) Stop() {
	g.mu.Lock()
	b := g.b
	g.b = nil
	g.mu.Unlock()
	if b != nil {
		b.Stop()
		b.UnregisterMetrics()
	}
}

// Start brings the local member (back) up over the shared connections.
// No-op if already running.
func (g *Group) Start(rejoin bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.b != nil {
		return nil
	}
	return g.startLocked(rejoin)
}

func (g *Group) start(rejoin bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.startLocked(rejoin)
}

func (g *Group) startLocked(rejoin bool) error {
	topology := runtime.TopologyRing
	participants := len(g.opts.Peers)
	members := []int{g.opts.Self}
	switch g.cfg.Topology {
	case transport.GroupTree:
		topology = runtime.TopologyTree
	case transport.GroupHybrid:
		// This process fuses a whole host's members; the mux carries the
		// host tree, so the lane views' node space is process indices.
		topology = runtime.TopologyHybrid
		participants = 0
		for _, roster := range g.cfg.Hosts {
			participants += len(roster)
		}
		members = g.cfg.Hosts[g.opts.Self]
	}
	cfg := runtime.Config{
		Participants: participants,
		Topology:     topology,
		TreeArity:    g.cfg.TreeArity,
		Hosts:        g.cfg.Hosts,
		Depth:        g.cfg.Depth,
		Members:      members,
		Rejoin:       rejoin,
		NPhases:      g.cfg.NPhases,
		Resend:       g.cfg.Resend,
		LossRate:     g.cfg.LossRate,
		CorruptRate:  g.cfg.CorruptRate,
		Seed:         g.cfg.Seed,
		Metrics:      g.opts.Metrics,
		MetricLabel:  `group="` + g.cfg.Name + `"`,
	}
	if g.cfg.Depth > 1 {
		// One mux group per in-flight wave: lane li's frames are tagged
		// with wire id g.id+li, and all lanes batch into the same
		// per-peer writes.
		lanes := make([]runtime.Transport, g.cfg.Depth)
		for li := range lanes {
			lanes[li] = g.mux.Group(g.id + uint32(li))
		}
		cfg.LaneTransports = lanes
	} else {
		cfg.Transport = g.mux.Group(g.id)
	}
	b, err := runtime.New(cfg)
	if err != nil {
		return err
	}
	g.b = b
	return nil
}
