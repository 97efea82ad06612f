package conformance

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cb"
	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/guarded"
	"repro/internal/mb"
	"repro/internal/rb"
	"repro/internal/rbtree"
	"repro/internal/topo"
)

// TargetRuntime names the goroutine runtime-barrier target, which runs
// live goroutines rather than the guarded engine (see runtimetarget.go).
const TargetRuntime = "runtime"

// TargetTCP names the runtime barrier over the loopback TCP transport:
// the same live-goroutine protocol engine as TargetRuntime, but every ring
// link is a real socket (internal/transport), so a schedule additionally
// exercises framing, reconnection and the socket-failure→loss mapping. A
// schedule is portable between the two targets and must produce the same
// verdict on both.
const TargetTCP = "tcp"

// TargetTree names the runtime barrier in its tree topology: the same live
// protocol engine, but running the double-tree refinement (broadcast wave
// down, acknowledgment convergecast up) instead of the ring. Like the
// runtime target it passes no Transport, so every member runs on one
// scheduler per lane. A schedule is portable between the ring and tree
// topologies and must produce the same verdict on both.
const TargetTree = "tree"

// TargetMux names the runtime barrier over the multiplexed loopback TCP
// transport: the scheduled barrier is one tenant group among several
// sharing one connection per process pair, so every case additionally
// exercises group tagging, per-group demultiplexing, and tenant isolation
// — the background groups run their own barriers on the same sockets
// while the schedule injects faults into the scheduled group only.
const TargetMux = "mux"

// TargetHybrid names the runtime barrier in its hybrid topology: members
// are grouped two per host, each host's members fuse onto one local
// scheduler, and only host roots exchange messages in the cross-host
// tree. A schedule is portable between the ring and the hybrid shape and
// must produce the same verdict on both — the fusion must not be
// observable.
const TargetHybrid = "hybrid"

// IsRuntimeTarget reports whether the named target runs the live goroutine
// barrier (wall-clock pacing, message-rate faults, spurious injection)
// rather than a guarded-engine refinement.
func IsRuntimeTarget(name string) bool {
	switch name {
	case TargetRuntime, TargetTCP, TargetTree, TargetMux, TargetHybrid:
		return true
	}
	return false
}

// Target is the conformance harness's view of a guarded-engine barrier
// program: every refinement exposes this identical surface, which is
// itself a small conformance statement — a program that cannot be wired
// in here cannot be checked against the others.
type Target interface {
	N() int
	NumPhases() int
	// Step executes one scheduler step; pick selects the action under
	// SchedPick. It reports whether any action was enabled.
	Step(kind SchedKind, rng *rand.Rand, pick int) bool
	InjectDetectable(j int)
	InjectUndetectable(j int)
	// Corrupted reports whether process j is in a detectably corrupted
	// state, for the not-all-corrupted injection discipline (footnote 2 of
	// the paper: a detectable fault that corrupts the last clean process
	// is reclassified as a whole-system undetectable fault).
	Corrupted(j int) bool
	// InStartState reports whether the program reached a legitimate start
	// state, the stabilization criterion after undetectable faults.
	InStartState() bool
	Phase(j int) int
	SetSink(core.EventSink)
	// SetGate installs the crash gate (the paper's auxiliary variable up).
	SetGate(up func(j int) bool)
	fmt.Stringer
}

// engineProgram is the method set shared by the five guarded-engine
// refinements (cb, rb, rbtree, dtree, mb).
type engineProgram interface {
	Guarded() *guarded.Program
	N() int
	NumPhases() int
	Phase(j int) int
	InjectDetectable(j int)
	InjectUndetectable(j int)
	Corrupted(j int) bool
	InStartState() bool
	SetSink(core.EventSink)
	fmt.Stringer
}

// engineTarget adapts an engineProgram to the Target interface.
type engineTarget struct {
	engineProgram
	g *guarded.Program
}

func newEngineTarget(p engineProgram) Target {
	return &engineTarget{engineProgram: p, g: p.Guarded()}
}

func (t *engineTarget) Step(kind SchedKind, rng *rand.Rand, pick int) bool {
	switch kind {
	case SchedRoundRobin:
		_, ok := t.g.StepRoundRobin()
		return ok
	case SchedMaxParallel:
		return t.g.StepMaxParallel(rng) > 0
	case SchedPick:
		_, ok := t.g.StepEnabled(pick)
		return ok
	default:
		_, ok := t.g.StepRandom(rng)
		return ok
	}
}

func (t *engineTarget) SetGate(up func(j int) bool) {
	if up == nil {
		t.g.SetProcessGate(nil)
		return
	}
	t.g.SetProcessGate(up)
}

// Builder constructs a target instance. All randomness the program needs
// (its internal nondeterministic choices and its fault-value draws) must
// come from rng, so that a schedule replays deterministically.
type Builder func(nProcs, nPhases int, rng *rand.Rand) (Target, error)

var builders = map[string]Builder{}

// Register adds a named target. The built-in refinements register
// themselves in init; tests register deliberately broken targets to prove
// the harness catches and shrinks real violations.
func Register(name string, b Builder) { builders[name] = b }

// Targets returns the registered guarded-engine target names, sorted,
// with the runtime targets appended last.
func Targets() []string {
	names := make([]string, 0, len(builders)+5)
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return append(names, TargetRuntime, TargetTCP, TargetTree, TargetMux, TargetHybrid)
}

// NewTarget builds the named target with its randomness rooted at rng.
func NewTarget(name string, nProcs, nPhases int, rng *rand.Rand) (Target, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("conformance: unknown target %q (have %v)", name, Targets())
	}
	return b(nProcs, nPhases, rng)
}

func init() {
	Register("cb", func(n, nPhases int, rng *rand.Rand) (Target, error) {
		p, err := cb.New(n, nPhases, rng, nil)
		if err != nil {
			return nil, err
		}
		return newEngineTarget(p), nil
	})
	Register("rb", func(n, nPhases int, rng *rand.Rand) (Target, error) {
		p, err := rb.New(n, nPhases, n+1, rng, nil)
		if err != nil {
			return nil, err
		}
		return newEngineTarget(p), nil
	})
	Register("tb", func(n, nPhases int, rng *rand.Rand) (Target, error) {
		tr, err := topo.NewKAryTree(n, 2) // the tree targets run on the binary heap
		if err != nil {
			return nil, err
		}
		p, err := rbtree.New(tr.Parent, nPhases, n+1, rng, nil)
		if err != nil {
			return nil, err
		}
		return newEngineTarget(p), nil
	})
	Register("dt", func(n, nPhases int, rng *rand.Rand) (Target, error) {
		tr, err := topo.NewKAryTree(n, 2)
		if err != nil {
			return nil, err
		}
		p, err := dtree.New(tr.Parent, nPhases, n+1, rng, nil)
		if err != nil {
			return nil, err
		}
		return newEngineTarget(p), nil
	})
	Register("mb", func(n, nPhases int, rng *rand.Rand) (Target, error) {
		p, err := mb.New(n, nPhases, 2*n+2, rng, nil)
		if err != nil {
			return nil, err
		}
		return newEngineTarget(p), nil
	})
}
