// Package runtime is a working fault-tolerant barrier for Go programs: a
// message-passing implementation of program MB (Section 5 of the paper)
// and its tree refinement. The protocol processes are guarded-command
// state machines stepped by schedulers (sched.go), whose turns run on
// whichever goroutine posted their input: co-located members share one
// scheduler, which copies their announcements as registers; over a
// Transport each ring member or host gets a scheduler with one link.
// It is the library a systems programmer would embed — the paper's
// "third alternative" to MPI's abort-or-error-code fault handling.
//
// Each participant goroutine calls Await after finishing its phase work.
// Await returns when the barrier has been passed and the next phase may
// begin. The tolerance guarantees follow the paper:
//
//   - Detectable faults (message loss, duplication, detected corruption,
//     process reset/restart) are masked: every barrier is executed
//     correctly. A reset that voids a participant's in-flight phase work
//     surfaces as ErrReset (redo the phase); a reset that only destroys
//     protocol state is recovered transparently by re-executing the
//     barrier instance with the participant's completed work standing.
//   - Undetectable faults (state scrambling) are stabilized: after faults
//     stop, the barrier eventually behaves correctly again.
//   - Uncorrectable faults (permanent halt) are handled fail-safe when
//     configured (Table 1): the barrier never reports a completion
//     incorrectly — outstanding and future Awaits return ErrHalted.
//
// The protocol state per process is exactly MB's: own (sn, cp, ph), a
// local copy of the predecessor's variables (MB's snL, cpL, phL), and a
// local copy of the successor's sequence number (snR) for the
// whole-ring-corruption restart wave — each copy a cell (cell.go).
// Messages carry the sender's (sn, cp, ph); links are
// latest-state-wins, and the periodic retransmission of the current state
// makes loss, duplication and detected corruption equivalent to delay.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/prng"
	"repro/internal/tokenring"
)

// Errors returned by Await.
var (
	// ErrReset reports that the participant's process was reset by a
	// detectable fault while its current phase work was still needed: the
	// work is void and must be redone before the next Await.
	ErrReset = errors.New("ftbarrier: process was reset; redo the current phase")
	// ErrHalted reports that the barrier has entered fail-safe mode after
	// an uncorrectable fault: no completion will ever be reported again.
	ErrHalted = errors.New("ftbarrier: barrier halted fail-safe after an uncorrectable fault")
	// ErrStopped reports that the barrier was shut down.
	ErrStopped = errors.New("ftbarrier: barrier stopped")
)

// Topology selects the communication structure of the runtime protocol.
type Topology int

const (
	// TopologyRing is the MB ring of Section 5 (the default): one token
	// circulates, a pass costs O(N) sequential hops.
	TopologyRing Topology = iota
	// TopologyTree is the double-tree refinement of Figure 2(d): waves
	// disseminate down a tree and a convergecast detects completion back
	// up it, so a pass costs O(h) = O(log N) sequential hops.
	TopologyTree
	// TopologyHybrid is the two-level hierarchy: members co-located on
	// one host (Config.Hosts) share a single local scheduler that
	// presents as one node in a cross-host tree, so network hops cost
	// O(log #hosts) and local siblings exchange no network traffic at
	// all. With a nil Transport every host is local and the whole
	// member tree runs on one scheduler; with a tree-shaped Transport
	// over the host indices, each OS process runs one or more whole
	// hosts, each host's members on one scheduler, and only host-root
	// edges cross the network.
	TopologyHybrid
)

// Config parameterizes a Barrier.
type Config struct {
	// Participants is the number of synchronizing goroutines (≥ 2).
	Participants int
	// Topology selects the protocol's communication structure: the MB
	// ring (default), the Figure 2(d) double tree, or the hybrid. All
	// provide the same guarantees (masking for detectable faults,
	// stabilization for undetectable ones, fail-safe Halt); the tree
	// trades O(N) for O(log N) sequential hops per pass. Over a
	// Transport a tree is the hybrid with one member per host, and each
	// OS process runs one or more whole hosts.
	Topology Topology
	// TreeArity is the branching factor of the TopologyTree tree
	// (default 2; heap-shaped, node i's parent is (i-1)/TreeArity).
	// For TopologyHybrid it is the branching factor of the cross-host
	// tree. Ignored for TopologyRing.
	TreeArity int
	// Hosts groups the participants by host for TopologyHybrid: Hosts[h]
	// lists the member ids co-located on host h. Every participant must
	// appear in exactly one host. Required for (and only used by)
	// TopologyHybrid.
	Hosts [][]int
	// Depth is the wave-pipelining window: up to Depth barrier instances
	// may be outstanding per participant (default 1 — no pipelining).
	// The sequence-number superposition already legalizes K > N
	// coexisting instances, so the lanes of the window are Depth
	// independent protocol instances and Await becomes a windowed ticket
	// pipeline: Enter tops the window up to Depth outstanding arrivals,
	// Leave reaps the oldest. With Depth > 1 the phase returned by
	// Await/Leave is the wave index modulo NPhases (a synthesized
	// counter — the per-lane protocol phases interleave). Depth > 1
	// with an explicit Transport requires LaneTransports instead.
	Depth int
	// LaneTransports supplies one Transport per pipeline lane when
	// Depth > 1 spans processes (e.g. one mux group view per lane, so
	// frames of all in-flight instances coalesce into single writes on
	// the shared connections). len(LaneTransports) must equal Depth and
	// Transport must be nil. Like Transport, the links each lane opens
	// are closed on Stop but the transports themselves belong to the
	// caller.
	LaneTransports []Transport
	// Transport supplies the links (nil: every member is local and its
	// scheduler copies frames between them, no links at all). A network
	// transport (internal/transport) lets the barrier span OS processes,
	// each running one or more ring members or whole hosts; the Barrier
	// closes the links it opens on Stop, but an explicitly supplied
	// Transport is closed by its creator. Its shape must be the
	// topology's: a ring transport for a ring, and for a tree or hybrid a
	// tree transport over the host indices (NewChanTreeTransport,
	// transport.NewTCPTree); New rejects a link of the other shape.
	Transport Transport
	// Members lists the members hosted by this process (nil: all of
	// them): any ring members, or of a tree or hybrid any union of whole
	// hosts (a tree's hosts are its members). Await and the
	// fault-injection methods accept only local member ids. Members
	// requires an explicit Transport.
	Members []int
	// Rejoin starts the local members in the detectably-reset state (sn ⊥,
	// cp error) instead of the phase-0 start state — the Section 7 restart
	// semantics. Use it when a member process is restarted into a ring
	// that is already running, so the rejoin is masked like any other
	// detectable fault rather than perturbing the ring with a stale
	// phase-0 state.
	Rejoin bool
	// NPhases is the phase-counter modulus (default 8; any value ≥ 2).
	NPhases int
	// Resend is the period of the barrier's retransmission sweep (default
	// 200µs), which masks message loss on every edge that crosses a
	// Transport within 2 x max(Resend, the host's idle-timer granularity).
	// That granularity is about 1 ms on Linux: in a process whose
	// goroutines are all blocked — a stalled wave — a shorter timer fires
	// no sooner, so a value below ~1 ms buys nothing while the process is
	// idle and costs sweeps while it is busy. Loss between two members on
	// one scheduler (nil Transport, a hybrid host's roster) does not wait
	// for the sweep at all; it is masked when the scheduler next runs out
	// of work (DESIGN.md §12).
	Resend time.Duration
	// LossRate drops each protocol message with this probability — a
	// built-in detectable communication fault for tests and demos.
	LossRate float64
	// CorruptRate garbles each protocol message with this probability. A
	// garbled message fails its integrity check at the receiver and is
	// dropped — detectable corruption is equivalent to loss (the paper's
	// classification), and retransmission masks it.
	CorruptRate float64
	// Seed drives the protocol's internal randomness (loss, resets).
	Seed int64
	// EventSink, if non-nil, receives the barrier-specification events of
	// the run (serialized). Intended for tests.
	EventSink core.EventSink
	// Metrics, if non-nil, receives the barrier's metric series
	// (passes, re-executed instances per pass, per-phase latency,
	// recovery time after a fault — the live Section 6 quantities).
	// The internal recording runs either way and is allocation-free;
	// the registry only adds scrape-time visibility. Two barriers must
	// not share one registry (their series names would collide),
	// unless MetricLabel disambiguates them.
	Metrics *obsv.Registry
	// MetricLabel, if non-empty, is a literal label pair (`group="g00"`)
	// merged into every metric series name this barrier exports. It lets
	// many barriers — one per tenant group — share a single registry with
	// per-group series. Empty keeps the historical unlabelled names.
	MetricLabel string
}

type ctrlKind uint8

const (
	ctrlReset ctrlKind = iota
	ctrlScramble
	// ctrlTick is the resend sweeper poking a member whose edges were
	// quiet for a full resend period: retransmit the current state.
	ctrlTick
	// ctrlCrash/ctrlRestart are the crash fault class: a crashed member
	// stops participating (no sends, receives or steps) until Restart
	// revives it in the Section 7 detectably-reset state.
	ctrlCrash
	ctrlRestart
	// ctrlSpurious is the "unexpected message reception" fault: the victim's
	// scheduler draws a well-formed frame from seed and feeds it through
	// the genuine receive path of the edge it claims to arrive on.
	ctrlSpurious
	// ctrlByz* deliver a Byzantine adversary's forgery to the victim's
	// scheduler, which crafts the frame from the victim's own current
	// view (the strongest forgery an adversary on that edge can build)
	// and feeds it through the genuine receive path — so the validation
	// windows see exactly what a wire-level forger could send.
	ctrlByzState // forged ring state announcement
	ctrlByzTop   // forged ring ⊤ marker
	ctrlByzDown  // forged tree parent announcement
	ctrlByzUp    // forged tree convergecast frame
)

type ctrlMsg struct {
	id   int // target member (used by shared control channels)
	from int // claimed sender (Byzantine adversary injections)
	kind ctrlKind
	seed int64
}

// lane is one full protocol instance of the barrier. A Depth=1 barrier
// has exactly one; wave pipelining runs Depth independent lanes and wave
// k executes on lane k%Depth, so up to Depth instances are in flight —
// legal because the sequence-number superposition already tolerates
// K > N coexisting instances (the lanes are disjoint instances of it).
type lane struct {
	// idx is the lane's index: wave k executes on lane k%Depth.
	idx int
	// procs is indexed by member id; entries for members hosted by other
	// processes (distributed deployments) — or running the tree protocol —
	// are nil.
	procs []*proc
	// tprocs is the tree-topology counterpart of procs.
	tprocs []*treeProc
	// gates is the topology-independent participant interface, indexed by
	// member id (nil for members hosted elsewhere).
	gates []*gate
	// links are the links this lane's members speak over, closed on Stop.
	links []Link
	// scheds are the schedulers hosting this lane's local members.
	scheds []*sched
}

// window is one participant's pipeline window: waves [rcur, pcur) are
// outstanding (entered, not yet reaped), with pcur-rcur ≤ Depth. rcur
// and pcur are owned by the participant goroutine; rmirror mirrors rcur
// for the fault-injection paths, which run on other goroutines and need
// the participant's current (primary) lane.
//
// seen and watched identify contexts by their Done channel, which is
// comparable whatever the context's type and is what the park waits for:
// seen is the channel of the last context a Leave parked with, watched
// the one whose cancellation the registration in unwatch pokes every lane
// for (Barrier.watch). Both are owned by the participant goroutine;
// unwatch is atomic because Stop takes it too.
type window struct {
	rcur, pcur    uint64
	rmirror       atomic.Uint64
	seen, watched <-chan struct{}
	unwatch       atomic.Pointer[func() bool]
}

// release stops the window's ctx registration, if it holds one. The
// participant and Stop may both call it; the Swap lets only one of them
// stop it.
func (w *window) release() {
	if stop := w.unwatch.Swap(nil); stop != nil {
		(*stop)()
	}
}

// Barrier is a fault-tolerant barrier over a ring or tree of protocol
// processes.
type Barrier struct {
	n       int
	nPhases int
	l       int
	depth   int

	// lanes holds the Depth protocol instances (one for Depth=1).
	lanes []*lane
	// windows is the per-participant pipeline window, indexed by member
	// id (meaningful only for locally hosted members).
	windows []window

	haltOnce  sync.Once
	halted    chan struct{}
	stopOnce  sync.Once
	stopped   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // the resend sweeper

	sinkMu sync.Mutex
	sink   core.EventSink

	// Statistics (atomic). statPasses and statResets double as the
	// snapshot version for Stats(): they are bumped exactly at the
	// participant-visible commit points (pass delivered, reset
	// delivered), so a Stats() read that observes them unchanged
	// across the whole snapshot saw no commit mid-read.
	statPasses       atomic.Int64 // barrier passes delivered to participants
	statResets       atomic.Int64 // ErrReset results delivered
	statSends        atomic.Int64 // protocol messages sent
	statDrops        atomic.Int64 // messages lost or detected-corrupt-dropped
	statSpurious     atomic.Int64 // injected spurious messages
	statInjDropped   atomic.Int64 // fault injections discarded (ctrl buffer full)
	statInjResets    atomic.Int64 // Reset injections accepted for delivery
	statInjScrambles atomic.Int64 // Scramble injections accepted for delivery
	statInjCrashes   atomic.Int64 // Crash injections accepted for delivery
	statInjRestarts  atomic.Int64 // Restart injections accepted for delivery
	statInjByz       atomic.Int64 // Byzantine forgeries accepted for delivery
	statWasted       atomic.Int64 // re-executed (wasted) protocol instances
	statPulls        atomic.Int64 // neighbour registers re-read at quiescence (sched.pullRound)

	// Frame rejections by the sequence-and-sender validation windows
	// (see cell.go), exported as barrier_rejected_frames_total{reason}.
	statRejSeq    atomic.Int64 // sequence number outside the legal window
	statRejPhase  atomic.Int64 // phase outside the legal window
	statRejTop    atomic.Int64 // ⊤ marker at a settled receiver
	statRejSender atomic.Int64 // frame from a sender that does not exist on the edge

	// Live-measurement histograms (the Section 6 quantities). Always
	// allocated — Observe is lock- and allocation-free — and exported
	// when Config.Metrics is set.
	mInstances *obsv.Histogram // protocol instances consumed per pass (Fig 3/5)
	mPhase     *obsv.Histogram // pass-to-pass latency, sampled 1-in-8 (Fig 4/6 overhead)
	mRecovery  *obsv.Histogram // fault-injection to next-pass latency (Fig 7)

	// Registry bookkeeping so a bounded-lifetime barrier (a tenant group
	// that may be torn down and recreated) can remove its series again.
	metricsReg  *obsv.Registry
	metricNames []string
}

// gate is the participant-facing half of a protocol process, shared by the
// ring and tree topologies: the work gate (has the participant arrived at
// the barrier?), the outstanding-Await bookkeeping, and the wake channel.
// Only the holder of the hosting scheduler's baton touches the mutable
// fields — whichever goroutine runs the scheduler's turn (see sched.go).
// The participant posts its arrival in arrival, parks on wake, and keeps
// its own tickets/entered.
//
// wake is the one channel a parked Leave waits on; only a ctx it sees for
// the first time is waited for beside it. It has two kinds of sender. A
// turn of the hosting scheduler, on whichever goroutine runs it, delivers
// results (gate.deliver): a phase or an error for the ticket of the
// outstanding arrival. Everything else sends a poke: Halt and Stop
// (Barrier.wakeAll), and the AfterFunc registration of a watched ctx when
// it ends (Barrier.watch). A poke is a non-blocking offer of an
// awaitResult carrying pokeTicket, which matches no arrival and says only
// "the barrier went down or the ctx ended, look again". A poke lands only
// in an empty buffer, so it never displaces a result; deliver may drop a
// poke to make room for a result, which is safe because every wake-up —
// result, stale result or poke — sends Leave back through Barrier.down and
// its ctx before it parks again.
type gate struct {
	b    *Barrier
	id   int
	lane int

	arrived    bool   // an unconsumed participant arrival (the work gate)
	appWaiting bool   // an Await is outstanding
	onesSince  uint8  // fault-free passes not yet in the instances histogram (observePass; at most 8)
	curTicket  uint64 // ticket of the outstanding Await
	lastDonePh int    // phase of the last completion that consumed an arrival
	pendingErr error  // delivered on the next Await (e.g. ErrReset)

	// Live-measurement bookkeeping, owned by the scheduler like the
	// fields above. beginsSince counts protocol instance
	// begins since the last delivered pass — fault-free it is exactly 1
	// at delivery time, and every extra count is a re-executed instance
	// (Fig 3/5). passSeq drives 1-in-8 sampling of the pass-to-pass
	// latency so the hot path pays for time.Now only on sampled passes.
	// faultAtNs is the wall-clock of the last injected reset/scramble,
	// cleared when the next pass observes the recovery time (Fig 7).
	beginsSince   int64
	passSeq       uint64
	sampleStartNs int64
	faultAtNs     int64

	// sentSinceTick records that the process announced since the last
	// resend sweep: noteSent sets it, the barrier's sweeper clears it
	// (CAS true→false) each period and pokes only processes whose flag
	// was already false — a quiet edge that may be masking a lost message.
	sentSinceTick atomic.Bool

	// s is the hosting scheduler, whose control channel other goroutines
	// post faults and resend pokes to through s.control.
	s *sched
	// arrival is the ticket of the participant's posted arrival: stored by
	// enterGate before it sets the member's bit in s.arrivals, read by the
	// turn that takes it (takeArrival).
	arrival atomic.Uint64
	// signal to a waiting Await: the phase that just began, an error, or a
	// Halt/Stop poke (see the type comment for who may send).
	wake chan awaitResult
	// Await ticket source and the entered flag (is an arrival
	// registered whose pass has not been collected yet?) — accessed
	// only by the participant goroutine.
	tickets uint64
	entered bool
}

func newGate(s *sched, id, lane int) *gate {
	return &gate{
		b:          s.b,
		id:         id,
		lane:       lane,
		lastDonePh: -1,
		s:          s,
		wake:       make(chan awaitResult, 1),
	}
}

// noteSent marks the process hot for the resend sweeper; on the hot path
// that is a load, not a store.
func (g *gate) noteSent() {
	if !g.sentSinceTick.Load() {
		g.sentSinceTick.Store(true)
	}
}

// node is what a ring process and a tree process have in common: the
// participant gate, the member's own triple, both ends of the state edge —
// the copy of the upstream neighbour its waves come from, with that edge's
// two-sighting slot, and the register it last announced downstream — and
// the fault state.
type node struct {
	*gate

	triple // the member's own (sn, cp, ph)

	// from copies the ring predecessor (MB's snL, cpL, phL) or the tree
	// parent (at the root, a constant start state no fault takes, so
	// settled needs no root case); seen holds the last frame from it
	// that the windows turned away.
	from cell
	seen slot

	// lastSent is the state frame last announced downstream — to the ring
	// successor or to every child — as put on the edge before the loss and
	// corruption draws: the output register a co-hosted receiver pulls.
	// haveSent is false until the first announcement and after a resend
	// poke, which makes the next announce send it again.
	lastSent Message
	haveSent bool

	// memory is everything a process fault takes, own triple first: what
	// Reset resets and Scramble scrambles, in this order.
	memory []volatile

	// crashed marks the crash fault class: the process is down — it
	// neither receives, steps nor announces — until ctrlRestart revives it.
	crashed bool

	// rng is owned by the hosting scheduler (seeded before New primes it;
	// the baton publishes it to later turns).
	rng prng.PRNG
}

// settled reports whether the member is in the steady state the receive
// windows assume. While unsettled (recovering), validation stands aside so
// the fault branches can observe arbitrary values.
func (n *node) settled() bool {
	return n.sn.Ordinary() && coherentCP(n.cp) && coherentCP(n.from.cp)
}

// proc is one MB process: the protocol state of a ring member, owned by
// the scheduler that hosts it.
type proc struct {
	node

	succ cell // the successor's ⊤ restart marker (MB's snR)
}

type awaitResult struct {
	phase  int
	err    error
	ticket uint64
}

// pokeTicket marks an awaitResult that carries no result: Halt's, Stop's
// or an ended ctx's wake-up call to a parked Leave. Tickets count up from
// 1, so it matches no arrival and Leave handles it like any other stale
// wake.
const pokeTicket = ^uint64(0)

// New creates and starts a Barrier.
func New(cfg Config) (*Barrier, error) {
	if cfg.Participants < 2 {
		return nil, errors.New("ftbarrier: need at least 2 participants")
	}
	if cfg.NPhases == 0 {
		cfg.NPhases = 8
	}
	if cfg.NPhases < 2 {
		return nil, errors.New("ftbarrier: need at least 2 phases")
	}
	if cfg.Resend == 0 {
		cfg.Resend = 200 * time.Microsecond
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, errors.New("ftbarrier: loss rate must be in [0, 1)")
	}
	if cfg.CorruptRate < 0 || cfg.CorruptRate >= 1 {
		return nil, errors.New("ftbarrier: corrupt rate must be in [0, 1)")
	}
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}
	if cfg.Depth < 1 {
		return nil, errors.New("ftbarrier: Depth must be >= 1")
	}
	if cfg.LaneTransports != nil {
		if cfg.Transport != nil {
			return nil, errors.New("ftbarrier: Transport and LaneTransports are mutually exclusive")
		}
		if len(cfg.LaneTransports) != cfg.Depth {
			return nil, fmt.Errorf("ftbarrier: need one lane transport per pipeline lane: len(LaneTransports)=%d, Depth=%d",
				len(cfg.LaneTransports), cfg.Depth)
		}
	} else if cfg.Transport != nil && cfg.Depth > 1 {
		return nil, errors.New("ftbarrier: Depth > 1 over an explicit Transport requires LaneTransports (one per lane)")
	}
	if cfg.Members != nil && cfg.Transport == nil && cfg.LaneTransports == nil {
		return nil, errors.New("ftbarrier: Members requires an explicit Transport")
	}
	if cfg.Topology == TopologyHybrid && cfg.Hosts == nil {
		return nil, errors.New("ftbarrier: Topology == TopologyHybrid requires Hosts (the host grouping)")
	}
	if cfg.Topology != TopologyHybrid && cfg.Hosts != nil {
		return nil, errors.New("ftbarrier: Hosts is only meaningful with Topology == TopologyHybrid")
	}
	members := cfg.Members
	if members == nil {
		members = make([]int, cfg.Participants)
		for j := range members {
			members[j] = j
		}
	}
	seen := make(map[int]bool, len(members))
	for _, j := range members {
		if j < 0 || j >= cfg.Participants {
			return nil, fmt.Errorf("ftbarrier: member %d out of range [0,%d)", j, cfg.Participants)
		}
		if seen[j] {
			return nil, fmt.Errorf("ftbarrier: duplicate member %d", j)
		}
		seen[j] = true
	}

	b := &Barrier{
		n:       cfg.Participants,
		nPhases: cfg.NPhases,
		// The sequence-number modulus: MB needs L > 2N+1 for processes
		// 0..N, i.e. L >= 2*Participants. The two spare values keep the L
		// every recorded schedule and corpus entry was run with.
		l:       2*cfg.Participants + 2,
		depth:   cfg.Depth,
		halted:  make(chan struct{}),
		stopped: make(chan struct{}),
		sink:    cfg.EventSink,
	}
	b.newHistograms(cfg.MetricLabel)
	if cfg.Metrics != nil {
		// Register before the schedulers start, so a name
		// collision (two barriers on one registry) fails cleanly.
		if err := b.registerMetrics(cfg.Metrics, cfg.Topology, cfg.MetricLabel); err != nil {
			return nil, err
		}
	}
	b.windows = make([]window, b.n)
	b.lanes = make([]*lane, b.depth)
	for li := range b.lanes {
		b.lanes[li] = &lane{
			idx:    li,
			procs:  make([]*proc, b.n),
			tprocs: make([]*treeProc, b.n),
			gates:  make([]*gate, b.n),
		}
	}
	var err error
	for li, ln := range b.lanes {
		laneCfg := cfg
		if li > 0 {
			// Decorrelate the lanes' loss/corruption/reset draws; lane 0
			// keeps the configured seed exactly, so a Depth=1 barrier is
			// bit-for-bit the pre-pipelining one (the conformance harness
			// replays recorded schedules against that).
			laneCfg.Seed = cfg.Seed + int64(li)*104729
		}
		if cfg.LaneTransports != nil {
			laneCfg.Transport = cfg.LaneTransports[li]
		}
		switch cfg.Topology {
		case TopologyTree:
			err = b.startTree(laneCfg, members, ln)
		case TopologyHybrid:
			err = b.startHybrid(laneCfg, members, ln)
		default:
			err = b.startRing(laneCfg, members, ln)
		}
		if err != nil {
			break
		}
	}
	if err != nil {
		// Nothing is running yet; release what the lanes opened.
		b.closeLinks()
		b.UnregisterMetrics()
		return nil, err
	}
	for _, ln := range b.lanes {
		for _, s := range ln.scheds {
			s.prime()
		}
	}
	b.wg.Add(1)
	go b.sweepResends(cfg.Resend)
	return b, nil
}

// sweepResends is the barrier's one retransmission pacer, for every
// member of every scheduler in every lane (DESIGN.md §12). A member that
// announced since the previous sweep has its flag cleared and is left
// alone — the recent send stands in for the retransmission — so hot
// schedulers take no timer wakeup at all. A quiet member is poked with
// ctrlTick: it forgets its last announcement and retransmits, masking a
// potentially lost message — in a turn the sweeper runs itself, unless
// another goroutine holds the scheduler's baton (sched.control).
// Quietness is judged per member, so a message lost right after a sweep is
// retransmitted by the sweep after the next:
// the masking delay on an edge that crosses a Transport is at most two
// periods (of at least the host's idle-timer granularity, see
// Config.Resend). Between members of one scheduler the sweep is only the
// eventual floor: sched.pullRound masks loss there without a timer.
func (b *Barrier) sweepResends(resend time.Duration) {
	defer b.wg.Done()
	ticker := time.NewTicker(resend)
	defer ticker.Stop()
	for {
		select {
		case <-b.stopped:
			return
		case <-b.halted:
			return
		case <-ticker.C:
		}
		for _, ln := range b.lanes {
			for _, g := range ln.gates {
				if g == nil || g.sentSinceTick.CompareAndSwap(true, false) {
					continue // hosted elsewhere, or hot
				}
				// A full control buffer drops the poke: the scheduler's
				// holder is busy draining work and will announce on its
				// own, and the next sweep retries.
				g.s.control(ctrlMsg{id: g.id, kind: ctrlTick})
			}
		}
	}
}

// startRing wires the MB ring: with no transport one scheduler hosts the
// whole ring, otherwise each hosted member gets a scheduler attached to
// the link the transport opens for it.
func (b *Barrier) startRing(cfg Config, members []int, ln *lane) error {
	if cfg.Transport == nil {
		// Every member is local (Members requires an explicit Transport).
		s := newSched(b, cfg, ln, b.n)
		for id := 0; id < b.n; id++ {
			s.addRing(cfg, ln, id)
		}
	} else {
		for _, j := range members {
			s, err := b.attach(cfg, ln, j, false, 1)
			if err != nil {
				return err
			}
			s.in = &s.addRing(cfg, ln, j).node
		}
	}
	if !cfg.Rejoin {
		// Every local process starts out executing phase 0: record the
		// implicit begins so the event trace forms complete instances.
		for _, j := range members {
			b.emit(core.Event{Kind: core.EvBegin, Proc: j, Phase: 0})
		}
	}
	return nil
}

// addRing creates ring member id on this scheduler.
func (s *sched) addRing(cfg Config, ln *lane, id int) *proc {
	pred := ahead
	if id == 0 {
		pred = behind // the leader's predecessor is the last process
	}
	p := &proc{
		node: node{
			gate:   newGate(s, id, ln.idx),
			triple: triple{cp: core.Execute}, // everyone starts executing phase 0
			from:   cell{triple: triple{cp: core.Execute}, role: pred, ring: true},
			rng:    prng.New(cfg.Seed + int64(id)*7919),
		},
		succ: cell{role: marker},
	}
	p.memory = []volatile{&p.triple, &p.from, &p.seen, &p.succ}
	if cfg.Rejoin {
		// The Section 7 restart state: identical to the aftermath of a
		// detectable reset, so the ring masks the (re)join.
		p.lose()
	}
	s.members[id] = p
	ln.procs[id], ln.gates[id] = p, p.gate
	return p
}

// Stats is a snapshot of the barrier's internal counters.
type Stats struct {
	Passes   int64 // barrier passes delivered to participants
	Resets   int64 // ErrReset results delivered to participants
	Sends    int64 // protocol messages sent
	Drops    int64 // messages lost, or corrupted and dropped at the receiver
	Spurious int64 // spurious messages injected
	// DroppedInjections counts Reset/Scramble calls discarded because the
	// target process's control buffer was full (injection bursts faster
	// than the process drains them). A dropped injection is equivalent to
	// the fault not occurring; the caller observes the count here instead
	// of blocking.
	DroppedInjections int64
	// ResetsInjected and ScramblesInjected count the Reset/Scramble calls
	// that were accepted for delivery (so ResetsInjected +
	// ScramblesInjected + DroppedInjections equals the calls made — the
	// conformance harness cross-checks exactly this against its replayed
	// schedule).
	ResetsInjected    int64
	ScramblesInjected int64
	// CrashesInjected, RestartsInjected and ByzInjected extend the same
	// accounting to the crash and Byzantine fault classes: together with
	// ResetsInjected, ScramblesInjected and DroppedInjections they equal
	// the injection calls made.
	CrashesInjected  int64
	RestartsInjected int64
	ByzInjected      int64
	// RejectedSeq/RejectedPhase/RejectedTop/RejectedSender count frames
	// refused by the sequence-and-sender validation windows (cell.go):
	// sequence number outside the paper's legal window for the edge, phase
	// outside the window (or a current-wave acknowledgment carrying a
	// foreign phase), a ⊤ marker at a settled receiver, and a frame whose
	// claimed sender does not exist on the edge. In a run whose only
	// faults are Byzantine injections, their sum equals ByzInjected — the
	// conformance harness cross-checks exactly that.
	RejectedSeq    int64
	RejectedPhase  int64
	RejectedTop    int64
	RejectedSender int64
	// WastedInstances counts protocol instances consumed beyond one per
	// delivered pass — the re-executions that faults force. It is the
	// numerator of the wasted-work-per-fault metric (Dwork/Halpern/Waarts)
	// and the exact-sum counterpart of the barrier_instances_per_pass
	// histogram: WastedInstances/Passes + 1 is the live Fig 3/5 mean.
	WastedInstances int64
	// Pulls counts neighbour registers re-read at quiescence: a scheduler
	// hosting both ends of an edge masks a lost or corrupted frame on it
	// by having the receiver read the sender's last announcement instead
	// of waiting for the resend sweep (sched.pullRound). A pull is a read,
	// not a message: it adds nothing to Sends or Drops. Zero in a
	// fault-free run, and always zero when every member has a scheduler
	// of its own (any Transport but a hybrid host's).
	Pulls int64
}

// Stats returns a consistent snapshot of the barrier's counters.
//
// The counters are independent atomics, so reading them one Load at a
// time can tear: a snapshot taken mid-pass could show the pass without
// the sends that produced it. Instead of a lock on the hot path, Stats
// uses the two commit-point counters (statPasses, statResets — bumped
// exactly when a pass or reset is delivered to a participant) as a
// seqlock version: read them, read everything else, read them again,
// and retry if a commit slipped in between. Cross-counter invariants
// (e.g. Sends ≥ Passes in a ring: a pass needs a full token circulation)
// hold on every returned snapshot; monotone read order (Passes before
// Sends, with Go's sequentially consistent atomics) preserves them even
// on the rare bailout after maxStatsRetries mid-commit snapshots.
func (b *Barrier) Stats() Stats {
	const maxStatsRetries = 16
	var s Stats
	for i := 0; i < maxStatsRetries; i++ {
		s = Stats{
			Passes:            b.statPasses.Load(),
			Resets:            b.statResets.Load(),
			Drops:             b.statDrops.Load(),
			Sends:             b.statSends.Load(),
			Spurious:          b.statSpurious.Load(),
			DroppedInjections: b.statInjDropped.Load(),
			ResetsInjected:    b.statInjResets.Load(),
			ScramblesInjected: b.statInjScrambles.Load(),
			CrashesInjected:   b.statInjCrashes.Load(),
			RestartsInjected:  b.statInjRestarts.Load(),
			ByzInjected:       b.statInjByz.Load(),
			RejectedSeq:       b.statRejSeq.Load(),
			RejectedPhase:     b.statRejPhase.Load(),
			RejectedTop:       b.statRejTop.Load(),
			RejectedSender:    b.statRejSender.Load(),
			WastedInstances:   b.statWasted.Load(),
			Pulls:             b.statPulls.Load(),
		}
		if b.statPasses.Load() == s.Passes && b.statResets.Load() == s.Resets {
			break
		}
	}
	return s
}

// InjectSpurious delivers an arbitrary, well-formed protocol message to
// participant id's process, as if a stray sender existed — the paper's
// "unexpected message reception" fault. Because the forgery carries a
// valid checksum it is undetectable at the receiver, so the tolerance is
// stabilizing, not masking: a forged state can propagate transiently (even
// completing a barrier at the wrong phase) until the predecessor's next
// genuine (re)transmission overrides it and the ring re-converges.
//
// Like every other fault it enters through the process's control channel
// (ctrlSpurious), never through a link, so a genuine frame in flight is
// never displaced by one. A full control buffer discards the message,
// accounted as a drop; either way it counts as spurious.
func (b *Barrier) InjectSpurious(id int, seed int64) {
	if id < 0 || id >= b.n {
		return
	}
	// With a pipeline window the forgery lands in the participant's
	// current (primary) lane — the instance whose outcome it can actually
	// perturb — so Depth=1 behavior is exactly the historical one.
	g := b.lanes[b.primaryLane(id)].gates[id]
	if g == nil {
		return
	}
	b.statSpurious.Add(1)
	if !g.s.control(ctrlMsg{id: id, kind: ctrlSpurious, seed: seed}) {
		b.statDrops.Add(1)
	}
}

// primaryLane is the lane of participant id's oldest outstanding wave —
// the instance a fault injection is attributed to.
func (b *Barrier) primaryLane(id int) int {
	if b.depth == 1 {
		return 0
	}
	return int(b.windows[id].rmirror.Load() % uint64(b.depth))
}

// laneGate returns participant id's gate in the lane executing wave.
func (b *Barrier) laneGate(wave uint64, id int) *gate {
	return b.lanes[wave%uint64(b.depth)].gates[id]
}

// N returns the number of participants.
func (b *Barrier) N() int { return b.n }

// NumPhases returns the phase-counter modulus.
func (b *Barrier) NumPhases() int { return b.nPhases }

// Depth returns the pipeline window size (1 = no pipelining).
func (b *Barrier) Depth() int { return b.depth }

// emit hands e to the configured EventSink. The sink is set once in New
// and never changes, so its absence is decided without the lock; the lock
// serializes the sink's callers (Depth > 1 has a scheduler per lane).
func (b *Barrier) emit(e core.Event) {
	if b.sink == nil {
		return
	}
	b.sinkMu.Lock()
	b.sink(e)
	b.sinkMu.Unlock()
}

// Await reports that participant id has finished its current phase work and
// blocks until the barrier is passed. Each participant id must be driven by
// at most one goroutine at a time (the usual collective-operation
// contract). Await returns the phase index (modulo NumPhases) that the
// barrier just released, or:
//
//   - ErrReset if the participant's process was reset by a detectable
//     fault: the phase work was lost; redo it and call Await again;
//   - ErrHalted if the barrier is fail-safe halted;
//   - ErrStopped if the barrier was stopped;
//   - ctx.Err() if the context ends first.
func (b *Barrier) Await(ctx context.Context, id int) (int, error) {
	if err := b.participant(id); err != nil {
		return 0, err
	}
	if err := b.Enter(ctx, id); err != nil {
		return 0, err
	}
	return b.Leave(ctx, id)
}

// Enter is the first half of a fuzzy barrier (the paper's Section 8
// extension of Gupta's fuzzy barriers): it reports that participant id has
// finished the phase work that the barrier orders — the execute→success
// transition — and returns without waiting. The participant may then
// perform work that needs no ordering, and must call Leave before starting
// the next ordered phase.
//
// While an entered barrier is outstanding (Enter returned nil and no
// Leave has collected the result yet — including a Leave that returned
// ctx.Err), Enter is a no-op: the arrival already registered stands. A
// canceled Enter registers nothing, so Enter/Leave pairs compose with
// context cancellation without losing or double-counting a pass. Neither
// does an Enter on a halted or stopped barrier or with a ctx that has
// already ended: those are looked at first, without blocking.
//
// Enter never blocks. It posts the arrival to the member's own scheduler
// and, if that scheduler's baton is free, runs the scheduler's turn
// itself: it may step other members, send their frames and deliver their
// results — the last Enter of a pass completes it and delivers every
// participant's result, its own included, before it returns.
//
// With Depth > 1, Enter tops the pipeline window up to Depth
// outstanding waves: wave k+1's instance launches before wave k
// completes, so a plain Await loop pipelines transparently. A wave
// whose Leave returned an error stays at the head of the window and is
// re-entered first (on the same lane — its instance still owes the
// participant a completion).
func (b *Barrier) Enter(ctx context.Context, id int) error {
	if err := b.participant(id); err != nil {
		return err
	}
	w := &b.windows[id]
	for {
		if w.rcur < w.pcur {
			// An errored head wave (Leave returned ErrReset and kept rcur):
			// its redone work re-arrives on the same lane before the window
			// grows, or the lane's instance would deadlock on the work gate.
			if g := b.laneGate(w.rcur, id); !g.entered {
				if err := b.enterGate(ctx, g); err != nil {
					return err
				}
				continue
			}
		}
		if w.pcur-w.rcur >= uint64(b.depth) {
			return nil // window full: Depth waves outstanding
		}
		g := b.laneGate(w.pcur, id)
		if err := b.enterGate(ctx, g); err != nil {
			return err
		}
		w.pcur++
	}
}

// participant checks an id handed to Await, Enter or Leave: in range and
// hosted by this process. The errors are built here, out of the callers'
// frames, because a scheduler turn runs beneath Enter on the participant's
// own stack.
func (b *Barrier) participant(id int) error {
	if id < 0 || id >= b.n {
		return fmt.Errorf("ftbarrier: participant %d out of range [0,%d)", id, b.n)
	}
	if b.lanes[0].gates[id] == nil {
		return fmt.Errorf("ftbarrier: member %d is not hosted by this process", id)
	}
	return nil
}

// down reports why the barrier can complete nothing any more: ErrHalted
// after Halt, ErrStopped after Stop, nil while it is up. Both looks are
// non-blocking receives on a channel that is open and empty until then,
// which take no lock — the check every caller makes before it commits or
// parks, where a blocking select would lock both channels for every caller.
func (b *Barrier) down() error {
	select {
	case <-b.halted:
		return ErrHalted
	default:
	}
	select {
	case <-b.stopped:
		return ErrStopped
	default:
	}
	return nil
}

// enterGate registers one arrival with gate g's protocol instance. The
// ticket is committed only when the arrival is actually handed to the
// protocol: a canceled Enter must leave no trace, or the next Leave
// would wait on a ticket whose arrival never happened. A barrier that is
// down or a ctx that has already ended is seen before the arrival is
// posted, so such an Enter never registers one. Posting cannot fail or
// block: the ticket goes into the gate's arrival word, the member's bit
// into its scheduler's arrivals, and the caller then assists — it runs the
// scheduler's turn if it gets the baton, and otherwise leaves the arrival
// to the baton's holder.
func (b *Barrier) enterGate(ctx context.Context, g *gate) error {
	if err := b.down(); err != nil {
		return err
	}
	if err := canceled(ctx); err != nil {
		return err
	}
	ticket := g.tickets + 1
	g.arrival.Store(ticket)
	g.s.post(g.id)
	g.tickets = ticket
	g.entered = true
	g.s.assist()
	return nil
}

// canceled is ctx.Err() looked up without blocking or locking: receiving
// from a Done channel that is still open takes no lock, where Err takes
// the context's mutex — which every participant sharing one ctx would
// contend on at each arrival.
func canceled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Leave is the second half of a fuzzy barrier: it blocks until the barrier
// entered with Enter has been passed — the ready→execute transition — and
// returns the phase now beginning. Leave without a prior Enter blocks
// until the participant's next barrier pass or error; the Await
// documentation describes the error contract.
//
// If ctx ends in the same instant the pass completes, the pass wins: Leave
// returns the phase, not ctx.Err(). If ctx ends first, the entered
// barrier remains outstanding — the pass, when it arrives, is counted
// once and held for the participant, and the next Leave (or Await, whose
// Enter is then a no-op) collects it. A pass is never lost or delivered
// twice around a cancellation.
//
// Leave parks on the member's own wake channel alone, and nobody's
// shutdown or cancellation is waited for in the park: each is delivered
// to it as a poke. Halt and Stop poke the wake channel after the fact; a
// ctx this participant has parked with before is watched by one
// context.AfterFunc registration (Barrier.watch), which pokes it when the
// ctx ends. Leave looks at all three before it parks and after every
// wake-up that was not its result, and a result already in the buffer
// wins over all three. Only a ctx seen for the first time is waited for
// directly, in a select over wake and ctx.Done(), so a caller that passes
// a fresh ctx on every call registers nothing.
//
// With Depth > 1, Leave reaps the oldest outstanding wave. On success
// the window slides (the next Enter launches a new wave at its far
// edge) and the returned phase is the wave index modulo NumPhases; on
// ErrReset the wave stays at the head of the window, to be redone on
// the same lane, so waves are never reordered or skipped.
func (b *Barrier) Leave(ctx context.Context, id int) (int, error) {
	if err := b.participant(id); err != nil {
		return 0, err
	}
	w := &b.windows[id]
	g := b.laneGate(w.rcur, id)
	ticket := g.tickets
	done := ctx.Done()
	for {
		var r awaitResult
		select {
		case r = <-g.wake:
			// Already buffered: the pass wins over Halt, Stop and ctx alike.
		default:
			// Nothing yet. Look for Halt/Stop before parking, and again after
			// every wake-up that was not this ticket's result: they are not
			// in the park below, their poke ends it.
			if err := b.down(); err != nil {
				return 0, err
			}
			if done == w.watched || b.watch(ctx, w, id, done) {
				// The ctx cannot end (nil done), or its end is delivered as a
				// poke: look at it here, since the registration pokes once.
				if canceled(ctx) != nil {
					return b.lastChance(ctx, w, g, ticket)
				}
				r = <-g.wake
			} else {
				select {
				case r = <-g.wake:
				case <-done:
					return b.lastChance(ctx, w, g, ticket)
				}
			}
		}
		if r.ticket == ticket {
			return b.reap(w, g, r)
		}
		// A stale wake from a superseded Await/Leave, or a poke: look again.
	}
}

// lastChance ends a Leave whose ctx has ended with one more look at the
// wake buffer: if the result raced the cancellation into it, the result is
// delivered — otherwise the caller would see ctx.Err() for a pass that was
// already counted, and a later Leave would see it again.
func (b *Barrier) lastChance(ctx context.Context, w *window, g *gate, ticket uint64) (int, error) {
	select {
	case r := <-g.wake:
		if r.ticket == ticket {
			return b.reap(w, g, r)
		}
		// Stale wake or poke; drop it and report the cancellation.
	default:
	}
	return 0, ctx.Err()
}

// watch decides how Leave parks with a ctx whose Done channel, done, is
// not the watched one: true if the park is a plain receive on wake — done
// is nil, so the ctx cannot end, or it is watched from now on — and false
// if this is the ctx's first sighting, so the park is the select over
// wake and done. A ctx seen before gets one context.AfterFunc
// registration that pokes the participant's gate on every lane — it parks
// on whichever lane heads its window — with the same offer Halt and Stop
// use, so a poke never displaces a result. The registration of a ctx the
// participant has moved on from is released here, and Stop releases the
// live one. Registering only on a second sighting keeps it off a
// barrier's first pass and off callers that pass a fresh ctx on every
// call. It is kept out of line so that Leave's frame does not grow.
//
//go:noinline
func (b *Barrier) watch(ctx context.Context, w *window, id int, done <-chan struct{}) bool {
	if w.watched != nil {
		w.watched = nil
		w.release()
	}
	if done == nil {
		return true
	}
	if done != w.seen {
		w.seen = done
		return false
	}
	stop := context.AfterFunc(ctx, func() {
		for _, ln := range b.lanes {
			offer(ln.gates[id].wake, awaitResult{ticket: pokeTicket})
		}
	})
	w.watched = done
	w.unwatch.Store(&stop)
	// Stop closes stopped before it takes the registrations: either it
	// took this one, or this look sees the barrier down.
	if b.down() != nil {
		w.release()
	}
	return true
}

// reap consumes the head wave's result and slides the window. An error
// keeps rcur in place: the wave's instance still owes a completion and
// the redone arrival must return to the same lane.
func (b *Barrier) reap(w *window, g *gate, r awaitResult) (int, error) {
	g.entered = false
	if r.err != nil {
		return 0, r.err
	}
	wave := w.rcur
	w.rcur++
	w.rmirror.Store(w.rcur)
	if b.depth == 1 {
		// No pipelining: surface the protocol's own phase counter (the
		// Rejoin path joins mid-sequence, so it is not synthesizable).
		return r.phase, nil
	}
	// Pipelined: the lanes' internal phase counters interleave
	// (lane k%Depth delivers its (k/Depth)-th pass), so the
	// participant-visible phase is the synthesized wave counter.
	return int(wave % uint64(b.nPhases)), nil
}

// Reset injects a detectable fault at participant id's process: its state
// is lost (sn := ⊥, cp := error, copies reset), as if the process
// fail-stopped and restarted. The protocol masks the fault. If the reset
// voids phase work the current barrier instance still needed, the
// participant's next (or pending) Await returns ErrReset and it must redo
// the phase; if the work had already been consumed, the barrier re-executes
// the instance transparently and the participant just passes normally.
func (b *Barrier) Reset(id int) {
	b.inject(id, ctrlMsg{kind: ctrlReset})
}

// Scramble injects an undetectable fault at participant id's process: all
// protocol variables are overwritten with arbitrary domain values. The
// protocol stabilizes once faults stop.
func (b *Barrier) Scramble(id int, seed int64) {
	b.inject(id, ctrlMsg{kind: ctrlScramble, seed: seed})
}

// Crash injects a crash fault at participant id's process: it goes down
// and stays down — no sends, receives or protocol steps — until Restart
// revives it. The rest of the group stalls at the next barrier the
// crashed member owes (the paper's fail-stop behavior); Restart flows the
// revival through the already-masked detectable-reset machinery.
func (b *Barrier) Crash(id int) {
	b.inject(id, ctrlMsg{kind: ctrlCrash})
}

// Restart revives a crashed member in the Section 7 restart state
// (identical to the aftermath of a detectable reset, so the group masks
// the rejoin). Restarting a member that never crashed is equivalent to
// Reset.
func (b *Barrier) Restart(id int) {
	b.inject(id, ctrlMsg{kind: ctrlRestart})
}

// Byz makes member id act as a Byzantine adversary for one frame: a
// well-formed, valid-checksum lie (wrong-phase replay, stale-sequence
// echo, or premature ⊤ marker, chosen by seed) delivered to one of the
// neighbors the adversary can actually speak to on its topology edges.
// The forgery is crafted from the victim's own view — the strongest
// position a real adversary on the edge can reach, since it observes at
// most what the victim announces — and runs through the genuine receive
// path, where the validation windows (cell.go) reject it. The
// injection lands in the adversary's primary lane; an adversary or
// victim hosted by another process cannot be reached from here and the
// injection is discarded into Stats.DroppedInjections.
func (b *Barrier) Byz(id int, seed int64) {
	if id < 0 || id >= b.n {
		return
	}
	rng := prng.New(seed)
	ln := b.lanes[b.primaryLane(id)]
	victim, kind := b.byzRoute(ln, id, &rng)
	if victim < 0 || victim >= b.n || ln.gates[victim] == nil {
		b.statInjDropped.Add(1)
		return
	}
	m := ctrlMsg{id: victim, from: id, kind: kind, seed: rng.Int63n(1 << 62)}
	if ln.gates[victim].s.control(m) {
		b.statInjByz.Add(1)
	} else {
		b.statInjDropped.Add(1)
	}
}

// byzRoute picks the victim of adversary id's forgery and the frame kind,
// mirroring the edges the adversary can speak on: the ring successor for
// state frames and the predecessor for ⊤ markers, or — on a tree — a
// random child for down frames and the parent for convergecast frames.
func (b *Barrier) byzRoute(ln *lane, id int, rng *prng.PRNG) (victim int, kind ctrlKind) {
	if tp := ln.tprocs[id]; tp != nil {
		if len(tp.kids) > 0 && (tp.parentID < 0 || rng.Intn(2) == 0) {
			return tp.kids[rng.Intn(len(tp.kids))], ctrlByzDown
		}
		return tp.parentID, ctrlByzUp
	}
	if ln.procs[id] == nil {
		return -1, ctrlByzState
	}
	if rng.Intn(3) == 2 {
		return (id - 1 + b.n) % b.n, ctrlByzTop
	}
	return (id + 1) % b.n, ctrlByzState
}

// inject delivers a fault-injection control message without ever blocking
// the caller: a fault injector racing ahead of the process's drain rate
// must not deadlock with it. If the control buffer is full the injection
// is discarded (the fault simply does not occur) and counted in
// Stats.DroppedInjections.
//
// With a pipeline window a process reset/scramble hits every lane — the
// faulted process hosts all Depth instances, so a masked fault in wave k
// forces the in-flight waves k..k+Depth-1 to re-execute too (what
// barrier_wasted_instances_total counts at depth); only the head wave can
// surface ErrReset (see failPending). The injection is tallied once, from
// the primary lane's acceptance, so accepted+dropped still equals the
// calls made.
func (b *Barrier) inject(id int, m ctrlMsg) {
	if id < 0 || id >= b.n || b.lanes[0].gates[id] == nil {
		return
	}
	m.id = id
	pri := b.primaryLane(id)
	for li, ln := range b.lanes {
		accepted := ln.gates[id].s.control(m)
		if li != pri {
			continue
		}
		if accepted {
			// Count at acceptance, synchronously with the caller: the
			// conformance harness checks accepted + dropped against the
			// number of calls its schedule made, so the tally must be
			// stable the moment the injection call returns.
			switch m.kind {
			case ctrlReset:
				b.statInjResets.Add(1)
			case ctrlScramble:
				b.statInjScrambles.Add(1)
			case ctrlCrash:
				b.statInjCrashes.Add(1)
			case ctrlRestart:
				b.statInjRestarts.Add(1)
			}
		} else {
			b.statInjDropped.Add(1)
		}
	}
}

// Halt puts the barrier into fail-safe mode (Table 1, uncorrectable +
// detectable): no barrier completion will ever be reported again;
// outstanding and future Awaits return ErrHalted. The resend sweeper exits
// and every later scheduler turn does nothing (sched.turn) — waves stop
// circulating and retransmitting — so a halted barrier consumes no CPU
// while it waits to be Stopped.
//
// No parked Leave watches the halted channel: Halt closes it and then
// pokes each of them (wakeAll), and the one woken looks (down) and
// returns. A pass already delivered to a participant's wake buffer is not
// displaced: its Leave still returns the phase, and the Await after it
// ErrHalted.
func (b *Barrier) Halt() {
	b.haltOnce.Do(func() {
		close(b.halted)
		b.wakeAll()
	})
}

// wakeAll is the delivery half of Halt and Stop, called once the halted or
// stopped channel is closed: a poke into every local gate's wake buffer,
// non-blocking. A full buffer means its reader has a wake-up coming
// anyway, and every wake-up leads through down() before the reader parks
// again — so a waiter either sees the closed channel on its own or is
// woken to see it, and none watches it while parked.
func (b *Barrier) wakeAll() {
	for _, ln := range b.lanes {
		for _, g := range ln.gates {
			if g != nil {
				offer(g.wake, awaitResult{ticket: pokeTicket})
			}
		}
	}
}

// Halted reports whether the barrier is fail-safe halted.
func (b *Barrier) Halted() bool {
	select {
	case <-b.halted:
		return true
	default:
		return false
	}
}

// Stop shuts the barrier down: the resend sweeper exits, the scheduler
// turns in flight end (quiesce) and every later turn does nothing, then
// the transport links the schedulers used (dialer and connection
// goroutines included) are closed. Once Stop returns no counter moves.
// Stop waits for each scheduler's baton, so an EventSink, which runs
// inside a turn, must not call it.
// Outstanding Awaits and Awaits racing Stop return ErrStopped (ErrHalted
// on a barrier that was halted first). Like Halt, Stop closes its channel
// and pokes the waiters (wakeAll); only the resend sweeper watches the
// channel itself.
//
// Stop is idempotent and safe to call concurrently — with itself, with
// Halt, and with outstanding Awaits. Every call blocks until the shutdown
// is complete; a second Stop returns once the first finishes, without
// re-closing anything. An explicitly supplied Config.Transport is left
// for its creator.
//
// Stop also releases every participant's ctx registration (Barrier.watch),
// so a stopped barrier is not kept reachable by a long-lived ctx. It takes
// each registration after closing stopped, and a participant that stores
// one looks at down() after it, so one of the two releases it.
func (b *Barrier) Stop() {
	b.stopOnce.Do(func() {
		close(b.stopped)
		b.wakeAll()
		for id := range b.windows {
			b.windows[id].release()
		}
	})
	b.wg.Wait()
	b.closeOnce.Do(func() {
		b.quiesce()
		b.closeLinks()
	})
}

// quiesce waits out the turns in flight on a down barrier: it takes and
// releases every scheduler's baton once. A turn that starts later sees the
// barrier down and does nothing (sched.turn).
func (b *Barrier) quiesce() {
	for _, ln := range b.lanes {
		for _, s := range ln.scheds {
			for !s.baton.CompareAndSwap(false, true) {
				time.Sleep(50 * time.Microsecond)
			}
			s.baton.Store(false)
		}
	}
}

func (b *Barrier) closeLinks() {
	for _, ln := range b.lanes {
		for _, l := range ln.links {
			l.Close()
		}
	}
}

// --- the participant gate (topology-independent) ---

// takeArrival hands the arrival posted in g.arrival to the work gate.
func (g *gate) takeArrival() { g.onArrive(g.arrival.Load()) }

// onArrive records a participant arrival (Enter) with the given ticket,
// surfacing a pending error from an earlier reset instead if one is stored.
func (g *gate) onArrive(ticket uint64) {
	g.appWaiting = true
	g.curTicket = ticket
	g.arrived = true
	if err := g.pendingErr; err != nil {
		g.pendingErr = nil
		if !g.atHead() {
			// The participant reaped this lane's pass while the reset that
			// stored the error was being applied, so this arrival is for a
			// later wave: it stands (see failPending).
			return
		}
		// The process was reset while the participant was working: the
		// work belongs to an aborted instance and must be redone.
		g.deliver(awaitResult{err: err, ticket: g.curTicket})
		g.arrived = false
		g.appWaiting = false
	}
}

// atHead reports whether this lane carries the participant's oldest
// outstanding wave — the one wave whose Leave it can be blocked in.
func (g *gate) atHead() bool { return g.b.primaryLane(g.id) == g.lane }

// completionBlocked implements the work gate for the completion transition:
// it reports whether the transition must wait for the participant's
// arrival. If the participant is already waiting to be woken while the gate
// shows no work, the two would wait on each other forever — in a fault-free
// computation a second completion never occurs without an intervening
// begin, so this state only arises when a fault teleported the protocol
// back into an executing state, skipping the begin that would have re-armed
// the gate. Reconcile with the redo mechanism: the participant re-executes
// its phase, and its re-arrival unblocks the completion.
func (g *gate) completionBlocked() bool {
	if g.arrived {
		return false
	}
	if g.appWaiting {
		g.failPending(ErrReset)
	}
	return !g.arrived // failPending re-arms the gate off the head lane
}

// applyOutcome performs the begin/complete/abandon bookkeeping after a
// state update changed the control position from (oldPH) to (newPH).
func (g *gate) applyOutcome(out core.Outcome, oldPH, newPH int) {
	switch out {
	case core.OutBegin:
		g.beginsSince++
		g.b.emit(core.Event{Kind: core.EvBegin, Proc: g.id, Phase: newPH})
		if g.appWaiting {
			switch {
			case g.arrived:
				// The participant's work has not been consumed yet: this
				// begin (re)starts an instance that will consume it. Not a
				// pass.
			case newPH == g.lastDonePh:
				// Re-execution of the phase whose work was already consumed
				// (a fault forced a repeat instance): the work stands —
				// re-arm the gate silently instead of waking.
				g.arrived = true
			default:
				// A genuinely new phase begins: the barrier is passed; wake
				// the waiting participant.
				g.appWaiting = false
				g.observePass()
				g.b.statPasses.Add(1)
				g.deliver(awaitResult{phase: newPH, ticket: g.curTicket})
			}
		}
	case core.OutComplete:
		g.arrived = false
		g.lastDonePh = oldPH
		g.b.emit(core.Event{Kind: core.EvComplete, Proc: g.id, Phase: oldPH})
	case core.OutAbandon:
		// Pulled into a re-execution while mid-phase: the instance aborts,
		// but this participant's work (in progress or gated) remains valid
		// for the repeat instance — no error is surfaced.
		g.b.emit(core.Event{Kind: core.EvReset, Proc: g.id, Phase: oldPH})
	}
}

// failPending wakes a waiting participant with err, or stores it for the
// next Await — on the participant's head lane. Off it the arrival stands:
// the participant could redo it only after reaping every older wave, and
// two members one wave apart would each wait on the other's redo — a
// deadlock across lanes (DESIGN.md §12).
func (g *gate) failPending(err error) {
	if !g.atHead() {
		g.arrived = g.appWaiting
		return
	}
	g.b.statResets.Add(1)
	if g.appWaiting {
		g.appWaiting = false
		g.arrived = false
		g.deliver(awaitResult{err: err, ticket: g.curTicket})
	} else {
		g.pendingErr = err
	}
}

// deliver puts r in the wake buffer, displacing what an earlier wake-up
// left there: a stale result (the participant abandoned its Await on a
// context cancellation) or a poke. It never blocks the scheduler. Halt,
// Stop and ctx registrations send on wake too, so the slot freed by the
// drain may be taken again before the retry — by a poke, and each sender
// pokes once, which bounds the loop.
func (g *gate) deliver(r awaitResult) {
	for !offer(g.wake, r) {
		select {
		case <-g.wake:
		default:
		}
	}
}

// --- what a ring process and a tree process share (node) ---

// ctrl is the control handler of both member types. What is theirs alone
// is behind m: which announcements a resend poke forgets, and the frame a
// spurious reception or a Byzantine forgery puts on which edge.
func (n *node) ctrl(c ctrlMsg, m interface {
	forget()
	onSpurious(seed int64)
	onByz(c ctrlMsg)
}) {
	switch c.kind {
	case ctrlTick:
		// Quiet edges at the resend sweep: retransmit the current state —
		// it masks lost, dropped and detectably corrupted messages.
		// Forgetting the last announcement makes the post-ctrl announce
		// resend it.
		m.forget()
	case ctrlReset:
		if !n.crashed { // a crashed process has no state left to lose
			n.reset()
		}
	case ctrlScramble:
		if !n.crashed {
			rng := prng.New(c.seed)
			for _, v := range n.memory {
				v.scramble(&rng, n.b.l, n.b.nPhases)
			}
			n.noteFault()
		}
	case ctrlCrash:
		// The crash fault class: the process goes down and stays down —
		// no receives, no steps, no announcements — until Restart.
		n.crashed = true
	case ctrlRestart:
		// Section 7 restart semantics: the revived process re-enters in
		// the detectably-reset state, so the group masks the rejoin like
		// any other detectable fault. Restarting a live process is just
		// a reset.
		n.crashed = false
		n.reset()
	case ctrlSpurious:
		m.onSpurious(c.seed)
	default:
		m.onByz(c)
	}
}

// lose puts the member in the detectably-reset state (MB's and DT's
// detectable fault action plus the loss of every local copy): sn ⊥, cp
// error, phases arbitrary. Used for Rejoin and by reset.
func (n *node) lose() {
	for _, v := range n.memory {
		v.reset(&n.rng, n.b.nPhases)
	}
}

// reset is the detectable fault action (shared by ctrlReset and the
// restart half of the crash fault class). The participant is told to redo
// its phase (ErrReset) only if the reset voids work the current instance
// still needed: cp = execute means the completion had not been consumed
// yet (the instance aborts before succeeding, so no participant passes
// and everyone stays aligned), and cp = error means a previous reset's
// redo is still outstanding. A reset that lands after the completion was
// consumed (success/repeat) or between instances (ready) loses only
// protocol state — the protocol re-executes the instance with the
// participant's work standing, and reporting ErrReset then would
// desynchronize the participant's round counter from the collective (it
// would redo a phase whose barrier already passed and fall one pass
// behind).
func (n *node) reset() {
	workVoided := n.cp == core.Execute || n.cp == core.Error
	if n.cp != core.Error {
		n.b.emit(core.Event{Kind: core.EvReset, Proc: n.id, Phase: n.ph})
	}
	n.lose()
	if workVoided {
		n.failPending(ErrReset)
	}
	n.noteFault()
}

// onState receives a state frame from the upstream neighbour: it refreshes
// the copy of the ring predecessor (action C.j) or of the tree parent,
// through the cell's windows (cell.go).
func (n *node) onState(m Message) {
	admit(n, &n.seen, m.Sum == m.Checksum(), half{&n.from, m.triple()}, half{})
}

// byzState delivers a Byzantine forgery of the upstream neighbour's state
// frame, crafted against the copy's windows.
func (n *node) byzState(seed int64) {
	if t, ok := forge(n, &n.from, &n.seen, seed, triple{}); ok {
		n.onState(t.message())
	}
}

// pullFrom is the upstream half of a pull round (sched.pullRound): where
// the upstream neighbour up is co-hosted and its register lastSent differs
// from the copy held here, take it through onState, exactly as if the frame
// had arrived. Of a ring copy only sn is comparable (cell.stale). It
// reports the registers taken.
func (n *node) pullFrom(up *node) int {
	if up == nil || !up.haveSent || !n.from.stale(up.lastSent.triple()) {
		return 0
	}
	n.onState(up.lastSent)
	return 1
}

// restate records the member's triple in its downstream register if it
// changed since the last announcement (or a resend poke forgot that), and
// reports whether it did: the state frame is then to be sent.
func (n *node) restate() bool {
	if n.haveSent && n.triple == n.lastSent.triple() {
		return false
	}
	n.lastSent, n.haveSent = n.triple.message(), true
	n.noteSent()
	return true
}

// --- the ring process ---

// onTop handles the successor's ⊤ marker — the whole-ring restart wave
// propagating backward. It carries no payload a second sighting could
// confirm: a receiver outside the wave rejects every one.
func (p *proc) onTop() {
	if p.crashed {
		return
	}
	top := triple{sn: tokenring.Top}
	if r := p.succ.check(&p.node, top); r != rejNone {
		p.b.countReject(r)
		return
	}
	p.succ.store(top)
}

func (p *proc) onCtrl(c ctrlMsg) { p.ctrl(c, p) }

func (p *proc) forget() { p.haveSent = false }

// onSpurious receives a state frame drawn from seed on the predecessor's
// edge: an ordinary sequence number, any control position and phase.
func (p *proc) onSpurious(seed int64) {
	rng := prng.New(seed)
	t := triple{tokenring.SN(rng.Intn(p.b.l)), core.CP(rng.Intn(core.NumCP)), rng.Intn(p.b.nPhases)}
	p.onState(t.message())
}

// onByz delivers a Byzantine forgery to this ring proc: a state frame
// through the predecessor copy's windows, or a premature ⊤ marker. The
// marker carries no payload; a victim with an ordinary sequence number
// rejects it through the same topwindow check the genuine marker path
// runs, and one already inside the restart wave, where the marker is
// legitimate, is skipped rather than silently accepting it.
func (p *proc) onByz(c ctrlMsg) {
	if c.kind == ctrlByzState {
		p.byzState(c.seed)
	} else if p.crashed || !p.sn.Ordinary() {
		p.b.byzSkipped()
	} else {
		p.onTop()
	}
}

// step applies every enabled local action to quiescence: T1'/T2' (token
// receipt, gated on the participant's arrival for the completion
// transition), T3, T4', T5.
func (p *proc) step() {
	if p.crashed {
		return
	}
	for {
		changed := false

		// T1' at 0 / T2' elsewhere.
		if p.from.sn.Ordinary() {
			enabled := false
			if p.id == 0 {
				enabled = p.sn == p.from.sn || !p.sn.Ordinary()
			} else {
				enabled = p.sn != p.from.sn
			}
			if enabled {
				var newCP core.CP
				var newPH int
				var out core.Outcome
				if p.id == 0 {
					newCP, newPH, out = core.LeaderUpdate(p.cp, p.ph, p.from.cp, p.from.ph, p.b.nPhases)
				} else {
					newCP, newPH, out = core.FollowerUpdate(p.cp, p.ph, p.from.cp, p.from.ph)
				}
				// The work gate: the completion transition waits for the
				// participant to arrive at the barrier.
				if out == core.OutComplete && p.completionBlocked() {
					// blocked — nothing else can change until arrival or
					// another message.
				} else {
					oldPH := p.ph
					if p.id == 0 {
						p.sn = tokenring.SN((int(p.from.sn) + 1) % p.b.l)
					} else {
						p.sn = p.from.sn
					}
					p.cp = newCP
					p.ph = newPH
					p.applyOutcome(out, oldPH, newPH)
					changed = true
				}
			}
		}

		// T3 at the last process: ⊥ → ⊤.
		if p.id == p.b.n-1 && p.sn == tokenring.Bot {
			p.sn = tokenring.Top
			changed = true
		}
		// T4' elsewhere: propagate ⊤ backward via the local copy of the
		// successor's marker.
		if p.id != p.b.n-1 && p.sn == tokenring.Bot && p.succ.sn == tokenring.Top {
			p.sn = tokenring.Top
			changed = true
		}
		// T5 at 0: restart a fully corrupted ring.
		if p.id == 0 && p.sn == tokenring.Top {
			p.sn = 0
			changed = true
		}

		if !changed {
			return
		}
	}
}

// pull is this member's share of a pull round (sched.pullRound): the
// predecessor's register refreshes the state copy (pullFrom), a successor
// at ⊤ the restart marker. It reports the registers taken.
func (p *proc) pull() (pulls int) {
	n := p.b.n
	pulls = p.pullFrom(p.s.peer((p.id + n - 1) % n))
	if succ := p.s.ringPeer((p.id + 1) % n); succ != nil && succ.haveSent && p.succ.stale(succ.lastSent.triple()) {
		p.onTop()
		pulls++
	}
	return pulls
}

// announce sends the current state to the successor (and the ⊤ marker to
// the predecessor) if it changed since the last send, through the
// scheduler, which makes the loss and corruption draws.
func (p *proc) announce() {
	if p.crashed || !p.restate() {
		return
	}
	if p.s.sendState(&p.node, (p.id+1)%p.b.n, p.lastSent) && p.sn == tokenring.Top {
		p.s.sendTop(p)
	}
}
