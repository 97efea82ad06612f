// Package ftbarrier is a fault-tolerant barrier-synchronization library, a
// full reproduction of Kulkarni & Arora, "Low-cost Fault-tolerance in
// Barrier Synchronizations" (ICPP 1998).
//
// The package offers three layers:
//
//  1. A practical runtime barrier for Go programs (New/Barrier.Await): the
//     paper's message-passing program MB and its tree refinement, run by
//     one scheduler per lane in-process or one per link over a transport.
//     Detectable faults — message loss, duplication, detected
//     corruption, process reset — are masked (every barrier executes
//     correctly); undetectable faults — state corruption — are stabilized;
//     uncorrectable faults are handled fail-safe (Halt).
//
//  2. The paper's protocol stack as executable guarded-command programs,
//     for simulation and verification: NewCB (coarse grain, Section 3),
//     NewRB (token ring, Section 4.1), NewTreeBarrier (tree topologies,
//     Section 4.2), NewMB (message passing, Section 5), each with
//     detectable/undetectable fault injection and barrier-specification
//     trace checking.
//
//  3. The Section 6 evaluation: the closed-form analytical model
//     (AnalyticalModel) and the timed maximal-parallel simulator
//     (SimulateDetectable, SimulateIntolerant, SimulateRecovery) that
//     regenerate Figures 3–7; see also cmd/experiments.
package ftbarrier

import (
	"math/rand"

	"repro/internal/analytical"
	"repro/internal/cb"
	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/faults"
	"repro/internal/mb"
	"repro/internal/obsv"
	"repro/internal/rb"
	"repro/internal/rbtree"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// --- Layer 1: the runtime barrier ---

// Barrier is the fault-tolerant runtime barrier; see internal/runtime for
// the protocol details. Create one with New and synchronize with Await.
type Barrier = runtime.Barrier

// Config parameterizes a runtime Barrier.
type Config = runtime.Config

// Errors returned by Barrier.Await.
var (
	ErrReset   = runtime.ErrReset
	ErrHalted  = runtime.ErrHalted
	ErrStopped = runtime.ErrStopped
)

// New creates and starts a runtime Barrier for cfg.Participants goroutines.
func New(cfg Config) (*Barrier, error) { return runtime.New(cfg) }

// Topology selects the runtime barrier's refinement (Config.Topology): the
// MB token ring (O(N) latency, the default), the double-tree
// broadcast/convergecast of Fig 2(d) (O(log N) latency over a k-ary heap,
// arity Config.TreeArity), or the two-level hybrid (Config.Hosts groups
// members by host; each host's members fuse onto one local scheduler and
// only host roots exchange network messages, so the network diameter is
// O(log #hosts) regardless of members per host).
type Topology = runtime.Topology

// The available topologies.
const (
	TopologyRing   = runtime.TopologyRing
	TopologyTree   = runtime.TopologyTree
	TopologyHybrid = runtime.TopologyHybrid
)

// HybridTopology is the derived shape of a hybrid deployment: the
// member tree, the normalized host rosters, and the cross-host tree
// whose node space (host indices) is what a hybrid deployment's network
// transport runs over.
type HybridTopology = topo.Hybrid

// NewHybridTopology derives the hybrid shape for a host grouping
// (Config.Hosts) and host-tree arity (0 defaults to 2). Use
// HostTree.Parent with NewTCPTreeTransport to build the cross-host
// transport each host process passes in Config.Transport.
func NewHybridTopology(hosts [][]int, arity int) (*HybridTopology, error) {
	if arity == 0 {
		arity = 2
	}
	return topo.NewHybridTree(hosts, arity)
}

// --- Layer 1, observability ---

// MetricsRegistry collects the barrier's (and transports') live
// measurements — pass counts, re-executed instances per pass, phase
// latency, recovery time, traffic and fault counters — and renders them
// in the Prometheus text exposition format via WriteText. Pass one
// registry in Config.Metrics and/or TCPConfig.Registry; nil disables
// collection. See DESIGN.md §9 for the metric → paper-quantity mapping.
type MetricsRegistry = obsv.Registry

// NewMetricsRegistry returns an empty registry for Config.Metrics /
// TCPConfig.Registry.
func NewMetricsRegistry() *MetricsRegistry { return obsv.NewRegistry() }

// --- Layer 1, distributed: pluggable transports ---

// Transport supplies the barrier's links (Config.Transport), in the shape
// of its topology: one per ring member, or one per host of a tree. Link is
// one such attachment to the neighbors, and Message is the MB wire triple
// (sn, cp, ph) with its end-to-end checksum. With no Transport there are
// no links: every member runs on one scheduler, which copies frames
// between them itself. NewTCPTransport carries the same protocol across OS
// processes and machines.
type (
	// Transport supplies one Link per ring member or tree host.
	Transport = runtime.Transport
	// Link carries a ring's state announcements forward and ⊤ markers
	// backward, or a tree's state down and convergecast reports up.
	Link = runtime.Link
	// Message is the protocol's wire triple plus checksum.
	Message = runtime.Message
)

// NewChanTransport returns the in-process channel transport for an
// all-local ring of n members: the one-scheduler-per-link placement without
// sockets, for tests and benchmarks to set beside the network transports.
// A nil Config.Transport is not this: it runs the whole ring on one
// scheduler with no channels between members.
func NewChanTransport(n int) Transport { return runtime.NewChanTransport(n) }

// NewChanTreeTransport returns the in-process channel transport for the
// tree described by the parent vector (parent[root] == -1): the transport
// of NewChanTransport in tree shape, one scheduler per member, whose links
// serve only a tree as NewChanTransport's serve only a ring. A nil
// Config.Transport is not this either: it runs the whole tree on one
// scheduler. The tree must match the shape the barrier derives from
// Config.TreeArity.
func NewChanTreeTransport(parent []int) Transport { return runtime.NewChanTreeTransport(parent) }

// TCPConfig parameterizes a TCP transport; TCPTransport implements
// Transport over it, for a ring (NewTCPTransport, NewLoopbackRing) or for
// a tree given by its parent vector (NewTCPTreeTransport,
// NewLoopbackTree, NewLoopbackTreeParent). Underneath is the one
// multiplexed TCP transport (internal/transport): every pair of
// neighboring members shares one connection, dialed by the lower-indexed
// member, with automatic reconnect (capped exponential backoff with
// jitter). Every socket failure is mapped onto a fault class the protocol
// already masks — see internal/transport for the policy.
type (
	// TCPConfig configures a TCP ring or tree transport.
	TCPConfig = transport.TCPConfig
	// TCPTransport is the TCP implementation of Transport, for a ring or
	// a tree.
	TCPTransport = transport.TCP
	// TCPTreeTransport is TCPTransport, the type the tree constructors
	// return. It stays as a name the benchmark harness uses.
	TCPTreeTransport = transport.TCP
)

// NewTCPTransport creates a TCP transport for the ring described by
// cfg.Peers. Each participating process calls Open for the member ids it
// hosts (one per OS process in the usual deployment; cmd/barrierd is the
// ready-made host process).
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) { return transport.NewTCP(cfg) }

// NewLoopbackRing binds n ephemeral loopback listeners and returns a TCP
// transport for an all-local ring — the test and benchmark configuration.
func NewLoopbackRing(n int) (*TCPTransport, error) { return transport.NewLoopbackRing(n) }

// NewTCPTreeTransport creates a TCP transport for the tree described by
// the parent vector over the members listed in cfg.Peers: one connection
// per tree edge, dialed by its lower-indexed end (the parent, in a
// heap-ordered tree), carrying convergecast reports up and state
// broadcasts down. Pair it with Config.Topology == TopologyTree; the
// parent vector must match the shape the barrier derives from
// Config.TreeArity (topo.NewKAryTree).
func NewTCPTreeTransport(cfg TCPConfig, parent []int) (*TCPTreeTransport, error) {
	return transport.NewTCPTree(cfg, parent)
}

// NewLoopbackTree binds n ephemeral loopback listeners and returns a TCP
// transport for an all-local binary-heap tree — the test and benchmark
// configuration for TopologyTree.
func NewLoopbackTree(n int) (*TCPTreeTransport, error) { return transport.NewLoopbackTree(n) }

// NewLoopbackTreeParent is NewLoopbackTree for an arbitrary tree shape
// given by the parent vector. With Config.Topology == TopologyHybrid the
// tree nodes are HOST indices (topo: the hybrid host tree), one OS
// process per host; each process passes the same transport and its own
// host's member roster in Config.Members.
func NewLoopbackTreeParent(parent []int) (*TCPTreeTransport, error) {
	return transport.NewLoopbackTreeParent(parent)
}

// --- Layer 2: the protocol stack ---

// Event and EventSink expose the barrier-specification trace events that
// every protocol engine emits; SpecChecker validates a trace against the
// Section 2 specification.
type (
	// Event is one observable protocol step (begin/complete/reset).
	Event = core.Event
	// EventSink consumes protocol events.
	EventSink = core.EventSink
	// SpecChecker validates event traces against the barrier spec.
	SpecChecker = core.SpecChecker
)

// NewSpecChecker returns a checker for n processes and nPhases phases.
func NewSpecChecker(n, nPhases int) *SpecChecker { return core.NewSpecChecker(n, nPhases) }

// NewCB builds the coarse-grain program CB of Section 3.
func NewCB(nProcs, nPhases int, rng *rand.Rand, sink EventSink) (*cb.Program, error) {
	return cb.New(nProcs, nPhases, rng, sink)
}

// NewRB builds the ring program RB of Section 4.1 with sequence numbers
// modulo k (K > N).
func NewRB(nProcs, nPhases, k int, rng *rand.Rand, sink EventSink) (*rb.Program, error) {
	return rb.New(nProcs, nPhases, k, rng, sink)
}

// NewTreeBarrier builds the Section 4.2 tree program over the k-ary tree
// with nProcs processes (Fig 2c) — the program the paper evaluates.
func NewTreeBarrier(nProcs, arity, nPhases int, rng *rand.Rand, sink EventSink) (*rbtree.Program, error) {
	tr, err := topo.NewKAryTree(nProcs, arity)
	if err != nil {
		return nil, err
	}
	return rbtree.New(tr.Parent, nPhases, nProcs+1, rng, sink)
}

// NewDoubleTreeBarrier builds the Figure 2(d) double-tree program over the
// k-ary tree with nProcs processes: dissemination down the tree, detection
// by convergecast back up it — the construction that embeds in arbitrary
// connected graphs.
func NewDoubleTreeBarrier(nProcs, arity, nPhases int, rng *rand.Rand, sink EventSink) (*dtree.Program, error) {
	tr, err := topo.NewKAryTree(nProcs, arity)
	if err != nil {
		return nil, err
	}
	return dtree.New(tr.Parent, nPhases, nProcs+1, rng, sink)
}

// NewMB builds the message-passing program MB of Section 5 with sequence
// numbers modulo l (L > 2N+1).
func NewMB(nProcs, nPhases, l int, rng *rand.Rand, sink EventSink) (*mb.Program, error) {
	return mb.New(nProcs, nPhases, l, rng, sink)
}

// FaultKind and the fault catalog expose the paper's Table 1 taxonomy.
type (
	// FaultKind is a concrete, classified fault type.
	FaultKind = faults.Kind
	// FaultClass is detectable or undetectable.
	FaultClass = faults.Class
	// Tolerance is the appropriate tolerance per Table 1.
	Tolerance = faults.Tolerance
)

// FaultCatalog lists the paper's fault types with their classification.
func FaultCatalog() []FaultKind { return faults.Catalog }

// AppropriateTolerance is Table 1: the tolerance a barrier synchronization
// should provide for a (correctability, class) pair.
func AppropriateTolerance(corr faults.Correctability, class faults.Class) Tolerance {
	return faults.AppropriateTolerance(corr, class)
}

// --- Layer 3: the Section 6 evaluation ---

// AnalyticalModel is the Section 6.1 closed-form model; zero value is not
// useful — set H (tree height), C (latency) and F (fault frequency).
type AnalyticalModel = analytical.Model

// SimConfig parameterizes a timed simulation (Section 6.2).
type SimConfig = sim.Config

// SimResult is a detectable-fault simulation outcome (Figures 5 and 6).
type SimResult = sim.Result

// RecoveryResult is an undetectable-fault recovery outcome (Figure 7).
type RecoveryResult = sim.RecoveryResult

// SimulateDetectable reproduces the Figure 5/6 measurements: the tree
// protocol under detectable faults, with spec checking throughout.
func SimulateDetectable(cfg SimConfig) (SimResult, error) { return sim.RunDetectable(cfg) }

// SimulateIntolerant measures the fault-intolerant combining-tree baseline
// under the same timed semantics.
func SimulateIntolerant(cfg SimConfig) (SimResult, error) { return sim.RunIntolerant(cfg) }

// SimulateRecovery reproduces the Figure 7 measurement: time to recover
// from a whole-system undetectable perturbation.
func SimulateRecovery(cfg SimConfig) (RecoveryResult, error) { return sim.RunRecovery(cfg) }
