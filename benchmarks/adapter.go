package main

// adapter.go is the harness's whole compatibility surface: every call
// into the system under test — the public ftbarrier API and the exported
// constructors of internal/{groups,transport,obsv,topo,core,runtime} —
// lives in this file. The rest of the harness sees only clusters,
// callers and plain counters, so a refactor of those packages needs a
// paired change here and nowhere else (README "Compatibility surface").

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	ftbarrier "repro"
	"repro/internal/core"
	"repro/internal/groups"
	"repro/internal/obsv"
	rt "repro/internal/runtime"
	"repro/internal/topo"
	"repro/internal/transport"
)

// errReset is the one Await error a closed-loop caller answers by redoing
// the round.
var errReset = ftbarrier.ErrReset

// awaitFn is one participant's entry into the barrier.
type awaitFn func(context.Context) (int, error)

// caller is one closed-loop participant of one group.
type caller struct {
	group int // index into cluster.groups
	id    int // participant id within the group
	await awaitFn
}

// groupShape is what the oracles need to know about one barrier group.
type groupShape struct {
	name    string
	n       int // participants
	nPhases int
	depth   int
}

// runtimeCounters is the sum of Barrier.Stats over a cluster's barriers.
type runtimeCounters struct {
	passes, resets, sends, drops      int64
	droppedInjections                 int64
	resetsInjected, scramblesInjected int64
	rejected, wasted                  int64
}

// wireCounters is the sum of the transport counters over a cluster.
type wireCounters struct {
	framesSent, framesRecv, groupDropped int64
	connDrops, decodeErrors, failedDials int64
	connectedOut                         int64
}

// cluster is one built deployment of a workload.
type cluster struct {
	groups  []groupShape
	callers []caller // callers[i].id == 0 is its group's sampler
	// barriers lists the runtime barriers whose identity is fixed for the
	// cluster's lifetime; registries own the rest (a group restart swaps
	// the barrier behind a groups.Group).
	barriers []*ftbarrier.Barrier
	regs     []*groups.Registry
	mets     []*obsv.Registry
	wire     func() wireCounters // nil: no transport under this workload
	closers  []func()
}

func (c *cluster) eachBarrier(f func(*ftbarrier.Barrier)) {
	for _, b := range c.barriers {
		f(b)
	}
	for _, r := range c.regs {
		for _, g := range r.Groups() {
			if b := g.Barrier(); b != nil {
				f(b)
			}
		}
	}
}

func (c *cluster) runtimeStats() runtimeCounters {
	var s runtimeCounters
	c.eachBarrier(func(b *ftbarrier.Barrier) {
		st := b.Stats()
		s.passes += st.Passes
		s.resets += st.Resets
		s.sends += st.Sends
		s.drops += st.Drops
		s.droppedInjections += st.DroppedInjections
		s.resetsInjected += st.ResetsInjected
		s.scramblesInjected += st.ScramblesInjected
		s.rejected += st.RejectedSeq + st.RejectedPhase + st.RejectedTop + st.RejectedSender
		s.wasted += st.WastedInstances
	})
	return s
}

func (c *cluster) wireStats() wireCounters {
	if c.wire == nil {
		return wireCounters{}
	}
	return c.wire()
}

// halt puts every barrier into fail-safe mode: the protocol goroutines
// stop sending and retransmitting while the links stay open, which is
// the only state in which sent and received frame counts can be compared.
func (c *cluster) halt() { c.eachBarrier(func(b *ftbarrier.Barrier) { b.Halt() }) }

// reset and scramble inject the faults workload's two fault classes into
// the cluster's single barrier.
func (c *cluster) reset(victim int)                { c.barriers[0].Reset(victim) }
func (c *cluster) scramble(victim int, seed int64) { c.barriers[0].Scramble(victim, seed) }

// restartGroup cycles one group's member on one process over the shared
// connections, as barrierd does for a tenant restart.
func (c *cluster) restartGroup(proc int, name string) error {
	if !c.regs[proc].StopGroup(name) {
		return fmt.Errorf("no group %q on process %d", name, proc)
	}
	return c.regs[proc].StartGroup(name, true)
}

// scrape renders process 0's live metric registry.
func (c *cluster) scrape(w io.Writer) error { return c.mets[0].WriteText(w) }

func (c *cluster) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}

// --- workload constructors ---

func barrierCallers(c *cluster, b *ftbarrier.Barrier, group int, ids []int) {
	for _, id := range ids {
		id := id
		c.callers = append(c.callers, caller{group: group, id: id,
			await: func(ctx context.Context) (int, error) { return b.Await(ctx, id) }})
	}
}

func iota32() []int {
	ids := make([]int, 32)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// buildInproc builds the three single-barrier in-process workloads.
func buildInproc(name string, cfg ftbarrier.Config, seed int64, sink eventSink) (*cluster, error) {
	cfg.Participants, cfg.Seed, cfg.EventSink = 32, seed, sink
	b, err := ftbarrier.New(cfg)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		groups:   []groupShape{{name: name, n: 32, nPhases: b.NumPhases(), depth: 1}},
		barriers: []*ftbarrier.Barrier{b},
		closers:  []func(){b.Stop},
	}
	barrierCallers(c, b, 0, iota32())
	return c, nil
}

func buildRing32(seed int64, sink eventSink) (*cluster, error) {
	return buildInproc("ring32-inproc", ftbarrier.Config{}, seed, sink)
}

func buildTree32(seed int64, sink eventSink) (*cluster, error) {
	return buildInproc("tree32-inproc", ftbarrier.Config{Topology: ftbarrier.TopologyTree, TreeArity: 2}, seed, sink)
}

func buildFaultsTree32(seed int64, sink eventSink) (*cluster, error) {
	return buildInproc("faults-tree32-inproc",
		ftbarrier.Config{Topology: ftbarrier.TopologyTree, TreeArity: 2, LossRate: 0.01}, seed, sink)
}

// hybridHosts is 4 hosts x 2 members.
func hybridHosts() [][]int { return [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}} }

// buildHybrid8 is bench_test.go's benchHybridCluster: one Barrier per
// host, host roots joined by a loopback TCP tree.
func buildHybrid8(seed int64, sink eventSink) (*cluster, error) {
	hosts := hybridHosts()
	hy, err := ftbarrier.NewHybridTopology(hosts, 0)
	if err != nil {
		return nil, err
	}
	tr, err := ftbarrier.NewLoopbackTreeParent(hy.HostTree.Parent)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		groups:  []groupShape{{name: "hybrid8-tcp", n: 8, depth: 1}},
		closers: []func(){func() { tr.Close() }},
	}
	c.wire = func() wireCounters { return fromTCPStats(tr.Stats()) }
	for h := range hosts {
		b, err := ftbarrier.New(ftbarrier.Config{
			Participants: 8, Seed: seed, Topology: ftbarrier.TopologyHybrid,
			Hosts: hosts, Transport: tr, Members: hosts[h], EventSink: sink,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.groups[0].nPhases = b.NumPhases()
		c.barriers = append(c.barriers, b)
		c.closers = append(c.closers, b.Stop)
		barrierCallers(c, b, 0, hosts[h])
	}
	return c, nil
}

const muxProcs = 4

// groupsMixConfigs is the barrierbench smoke mix: every fifth group a
// tree, the rest rings.
func groupsMixConfigs(seed int64) []groups.Config {
	cfgs := make([]groups.Config, 16)
	for i := range cfgs {
		topology := transport.GroupRing
		if i%5 == 4 {
			topology = transport.GroupTree
		}
		cfgs[i] = groups.Config{
			Name: fmt.Sprintf("g%02d", i), Topology: topology,
			Resend: 5 * time.Millisecond, Seed: seed + int64(i),
		}
	}
	return cfgs
}

func depth4Configs(seed int64) []groups.Config {
	return []groups.Config{{Name: "pipe", Depth: 4, Seed: seed}}
}

// buildMux builds a groups deployment: muxProcs simulated processes,
// one mux and one groups.Registry each, loopback TCP between them. The
// groups API takes no event sink, so the traced run's strong oracle on
// these workloads is the outside-in release-before-arrival check alone.
func buildMux(cfgs []groups.Config) (*cluster, error) {
	specs, err := groups.Specs(cfgs)
	if err != nil {
		return nil, err
	}
	c := &cluster{mets: make([]*obsv.Registry, muxProcs)}
	for j := range c.mets {
		c.mets[j] = obsv.NewRegistry()
	}
	set, err := transport.NewLoopbackMuxes(muxProcs, specs, func(mc *transport.MuxConfig) {
		mc.Registry = c.mets[mc.Self]
	})
	if err != nil {
		return nil, err
	}
	c.closers = append(c.closers, func() { set.Close() })
	c.wire = func() wireCounters { return muxSetStats(set, len(specs)) }
	for _, cfg := range cfgs {
		c.groups = append(c.groups, groupShape{name: cfg.Name, n: muxProcs, nPhases: 8, depth: max(cfg.Depth, 1)})
	}
	for j := 0; j < muxProcs; j++ {
		r, err := groups.NewWithMux(groups.Options{Self: j, Metrics: c.mets[j]}, cfgs, set.Muxes[j])
		if err != nil {
			c.close()
			return nil, fmt.Errorf("process %d registry: %w", j, err)
		}
		c.regs = append(c.regs, r)
		c.closers = append(c.closers, func() { r.Close() })
		for gi, g := range r.Groups() {
			c.groups[gi].nPhases = g.Barrier().NumPhases()
			c.callers = append(c.callers, caller{group: gi, id: j, await: g.Await})
		}
	}
	return c, nil
}

func buildGroups16(seed int64, _ eventSink) (*cluster, error) {
	return buildMux(groupsMixConfigs(seed))
}

func buildDepth4(seed int64, _ eventSink) (*cluster, error) { return buildMux(depth4Configs(seed)) }

func fromTCPStats(s transport.TCPStats) wireCounters {
	return wireCounters{
		framesSent: s.FramesSent, framesRecv: s.FramesRecv,
		connDrops: s.ConnDrops, decodeErrors: s.DecodeErrors, failedDials: s.FailedDials,
		connectedOut: s.ConnectedOut,
	}
}

func muxSetStats(set *transport.MuxSet, nSpecs int) wireCounters {
	var w wireCounters
	for _, m := range set.Muxes {
		s := fromTCPStats(m.Stats())
		w.framesSent += s.framesSent
		w.framesRecv += s.framesRecv
		w.connDrops += s.connDrops
		w.decodeErrors += s.decodeErrors
		w.failedDials += s.failedDials
		w.connectedOut += s.connectedOut
		for id := 0; id < nSpecs; id++ {
			_, _, dropped := m.GroupStats(uint32(id))
			w.groupDropped += dropped
		}
	}
	return w
}

// --- the strong oracle's view of core ---

type (
	event       = core.Event
	eventKind   = core.EventKind
	eventSink   = core.EventSink // how the traced run's strong oracle observes a cluster
	specChecker = core.SpecChecker
)

const (
	evBegin    = core.EvBegin
	evComplete = core.EvComplete
	evReset    = core.EvReset
)

// newSpecChecker returns the Section 2 specification checker.
func newSpecChecker(n, nPhases int) *specChecker { return core.NewSpecChecker(n, nPhases) }

// suffixSatisfying is the stabilization verdict for one scramble segment.
func suffixSatisfying(trace []event, n, nPhases, minSuccesses int) bool {
	_, ok := core.SuffixSatisfying(trace, n, nPhases, minSuccesses)
	return ok
}

// modelInstances is the Section 6.1 expected instances per pass.
func modelInstances(h int, c, f float64) float64 {
	return ftbarrier.AnalyticalModel{H: h, C: c, F: f}.ExpectedInstances()
}

// --- probe subjects: one exported function of one layer each ---

// perOp is a batch's mean cost in ns, with its fraction.
func perOp(total time.Duration, ops int) float64 { return float64(total) / float64(ops) }

// halfRoundTrip is the probes' ping-pong driver: ping sends, echo is
// where the reply arrives, and echoer (run on a second goroutine)
// answers every ping it sees until done closes. A lost or not yet
// connected send is retried, so 50 untimed round trips also absorb
// connection set-up. It returns the mean half round trip in ns.
func halfRoundTrip[T any](iters int, ping func(), echo <-chan T, echoer func(done <-chan struct{})) (float64, error) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		echoer(done)
	}()
	defer func() { close(done); wg.Wait() }()

	retry := time.NewTimer(time.Hour)
	defer retry.Stop()
	roundTrip := func() error {
		for attempt := 0; attempt < 400; attempt++ {
			ping()
			retry.Reset(5 * time.Millisecond)
			select {
			case <-echo:
				return nil
			case <-retry.C:
			}
		}
		return errors.New("ping-pong: no echo after 2s")
	}
	var start time.Time
	for i := -50; i < iters; i++ {
		if i == 0 {
			start = time.Now()
		}
		if err := roundTrip(); err != nil {
			return 0, err
		}
	}
	return perOp(time.Since(start), 2*iters), nil
}

// ringHop measures one hop between the two members of a ring transport:
// member 0 announces, member 1 echoes the announcement back.
func ringHop(tr ftbarrier.Transport, iters int) (float64, error) {
	defer tr.Close()
	a, err := tr.Open(0)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := tr.Open(1)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	m := rt.Message{SN: 1, PH: 1}
	m.Sum = m.Checksum()
	return halfRoundTrip(iters, func() { a.SendState(m) }, a.State(), func(done <-chan struct{}) {
		for {
			select {
			case m := <-b.State():
				b.SendState(m)
			case <-done:
				return
			}
		}
	})
}

func chanHop(iters int) (float64, error) { return ringHop(ftbarrier.NewChanTransport(2), iters) }

func tcpHop(iters int) (float64, error) {
	tr, err := ftbarrier.NewLoopbackRing(2)
	if err != nil {
		return 0, err
	}
	return ringHop(tr, iters)
}

func muxHop(iters int) (float64, error) {
	set, err := transport.NewLoopbackMuxes(2, []transport.GroupSpec{{ID: 0, Name: "probe"}})
	if err != nil {
		return 0, err
	}
	defer set.Close()
	return ringHop(set.Ring(0), iters)
}

// treeHop measures one hop over a two-node TCP tree: the root announces
// down, the child reports up.
func treeHop(iters int) (float64, error) {
	tr, err := ftbarrier.NewLoopbackTree(2)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	root, err := tr.OpenTree(0)
	if err != nil {
		return 0, err
	}
	defer root.Close()
	child, err := tr.OpenTree(1)
	if err != nil {
		return 0, err
	}
	defer child.Close()
	down := rt.Message{SN: 1, PH: 1}
	down.Sum = down.Checksum()
	up := rt.UpMessage{Child: 1, SN: 1, AckSN: 1}
	up.Sum = up.Checksum()
	return halfRoundTrip(iters, func() { root.SendDown(1, down) }, root.Up(), func(done <-chan struct{}) {
		for {
			select {
			case <-child.Down():
				child.SendUp(up)
			case <-done:
				return
			}
		}
	})
}

// rawLoopbackHop is the floor under every wire hop: a 32-byte payload
// bounced over a plain loopback TCP socket, no framing, no batching.
func rawLoopbackHop(iters int) (hopNs float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	errc := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 32)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				errc <- nil // the dialer closed: done
				return
			}
			if _, err := c.Write(buf); err != nil {
				errc <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 32)
	bounce := func() error {
		if _, err := c.Write(buf); err != nil {
			return err
		}
		_, err := io.ReadFull(c, buf)
		return err
	}
	var start time.Time
	for i := -50; i < iters; i++ {
		if i == 0 {
			start = time.Now()
		}
		if err := bounce(); err != nil {
			c.Close()
			return 0, err
		}
	}
	hop := perOp(time.Since(start), 2*iters)
	c.Close()
	return hop, <-errc
}

// repeatReader serves one frame's bytes over and over: the in-memory pipe
// the decode probe reads from.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k := copy(p[n:], r.frame[r.off:])
		n += k
		r.off = (r.off + k) % len(r.frame)
	}
	return n, nil
}

// codecProbe times the wire codec: AppendState (which frames through
// AppendFrame) and FrameReader.Read + DecodeState.
func codecProbe(iters int) (encodeNs, decodeNs float64, frameBytes int, err error) {
	m := rt.Message{SN: 5, PH: 3}
	m.Sum = m.Checksum()
	buf := make([]byte, 0, 64)
	start := time.Now()
	for i := 0; i < iters; i++ {
		buf = transport.AppendState(buf[:0], 7, m)
	}
	encodeNs = perOp(time.Since(start), iters)

	fr := transport.NewFrameReader(&repeatReader{frame: append([]byte(nil), buf...)}, 4096)
	start = time.Now()
	for i := 0; i < iters; i++ {
		_, payload, err := fr.Read()
		if err != nil {
			return 0, 0, 0, err
		}
		if _, got, err := transport.DecodeState(payload); err != nil || got != m {
			return 0, 0, 0, fmt.Errorf("codec round trip: got %+v, %v", got, err)
		}
	}
	decodeNs = perOp(time.Since(start), iters)
	return encodeNs, decodeNs, len(buf), nil
}

// observeProbe times Histogram.Observe on the runtime's own bucket layout.
func observeProbe(iters int) float64 {
	h := obsv.NewHistogram("probe_seconds", "probe", obsv.ExpBuckets(16e-6, 2, 16))
	start := time.Now()
	for i := 0; i < iters; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
	return perOp(time.Since(start), iters)
}

// newBarrierProbe times ftbarrier.New for the 32-member ring.
func newBarrierProbe() (time.Duration, error) {
	start := time.Now()
	b, err := ftbarrier.New(ftbarrier.Config{Participants: 32, Seed: 1})
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	b.Stop()
	return d, nil
}

// hybridBuildProbe times topo.NewHybridTree for 32 members, two per host.
func hybridBuildProbe() (time.Duration, error) {
	hosts := make([][]int, 16)
	for h := range hosts {
		hosts[h] = []int{2 * h, 2*h + 1}
	}
	start := time.Now()
	_, err := topo.NewHybridTree(hosts, 2)
	return time.Since(start), err
}

// muxProbe builds the 16-group loopback mux set and reports how long the
// outgoing connections took to come up and how long groups.NewWithMux
// takes on one process over them.
func muxProbe() (connect, start time.Duration, err error) {
	cfgs := groupsMixConfigs(1)
	specs, err := groups.Specs(cfgs)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	set, err := transport.NewLoopbackMuxes(muxProcs, specs)
	if err != nil {
		return 0, 0, err
	}
	defer set.Close()
	want := int64(muxProcs * (muxProcs - 1) / 2)
	if err := waitConnected(func() int64 { return muxSetStats(set, 0).connectedOut }, want); err != nil {
		return 0, 0, err
	}
	connect = time.Since(t0)
	t0 = time.Now()
	r, err := groups.NewWithMux(groups.Options{Self: 0}, cfgs, set.Muxes[0])
	start = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	r.Close()
	return connect, start, nil
}

// treeConnectProbe is muxProbe's connect half for the hybrid workload's
// host-tree transport.
func treeConnectProbe() (time.Duration, error) {
	hy, err := ftbarrier.NewHybridTopology(hybridHosts(), 0)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	tr, err := ftbarrier.NewLoopbackTreeParent(hy.HostTree.Parent)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	// The tree transport dials when a link opens.
	for h := range hybridHosts() {
		l, err := tr.OpenTree(h)
		if err != nil {
			return 0, err
		}
		defer l.Close()
	}
	err = waitConnected(func() int64 { return tr.Stats().ConnectedOut }, int64(len(hybridHosts())-1))
	return time.Since(t0), err
}

func waitConnected(connected func() int64, want int64) error {
	deadline := time.Now().Add(5 * time.Second)
	for connected() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d connections after 5s", connected(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}
