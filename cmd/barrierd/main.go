// Command barrierd hosts one member of a distributed fault-tolerant
// barrier: each member runs as its own OS process, sharing one TCP
// connection with each of its neighbors (internal/transport; the
// lower-indexed process of a pair dials, so -peers must list every
// member's listen address). Together the processes realize the same
// protocol instance the in-process runtime runs over channels.
//
// -topology selects the refinement: "ring" (default) is the MB token ring,
// "tree" the double-tree broadcast/convergecast over a binary heap of the
// member indices — O(log N) barrier latency instead of O(N), at the price
// of the root being a hub. "hybrid" is the two-level shape for members
// co-located on hosts: -hosts "0,1|2,3" groups the barrier members by
// host, each process fuses its whole roster onto one local scheduler, and
// -peers lists one address per HOST — only host roots exchange network
// messages, over a binary heap of the host indices. Every member of one
// barrier must agree on the topology.
//
// A four-member loopback ring:
//
//	barrierd -id 0 -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 &
//	barrierd -id 1 -peers ... &
//	barrierd -id 2 -peers ... &
//	barrierd -id 3 -peers ... &
//
// Each process loops Await, printing one "pass" line per completed
// barrier and checking its per-member projection of the specification:
// successive passes must cycle through the phases in order. (The full
// specification checker needs a totally ordered event stream, which does
// not exist across processes; the in-process conformance targets provide
// that stronger check.)
//
// After -passes successful passes the process prints "DONE n" but keeps
// participating — a barrier member that simply exits would break the ring
// for everyone else — until SIGTERM/SIGINT, which shuts it down cleanly.
// A member restarted into a live ring should be given -rejoin, which
// starts the protocol in the reset state (sn ⊥), so rejoining is masked
// exactly like a detectable fault (Section 7 of the paper).
//
// -metrics addr serves the live Section 6 measurements: /metrics exposes
// the barrier's and transport's series in the Prometheus text format
// (passes, re-executed instances per pass, pass latency, recovery time,
// reconnects, CRC drops), and /healthz answers 200 while the member is
// live — 503 after a fail-safe halt — so supervisors and tests can probe
// readiness instead of sleeping. -pprof adds /debug/pprof on the same
// address.
//
// -groups FILE switches the daemon to multi-tenant mode: instead of one
// barrier it hosts one member of every group declared in FILE, all
// multiplexed over the same single TCP connection per peer pair — the
// transport is the one the single-group mode uses, declaring many groups
// instead of one (internal/groups). Each line of FILE declares one group:
//
//	name [topology [nphases]] [key=value...]
//	# e.g. "g00 ring 4", "batch tree", "ml hybrid hosts=0,1|2,3",
//	#      "fast ring depth=4"
//
// '#' starts a comment; topology defaults to ring and nphases to
// -nphases. "hosts=0,1|2,3" declares a hybrid group's member rosters
// (one per process, '|'-separated); "depth=K" pipelines up to K barrier
// instances of the group over the shared connections (K wire groups,
// one per in-flight wave). Every process of the deployment must be
// started with an identical file (the handshake digest enforces it).
// Per-pass output is prefixed with the group name ("[g00] pass 3 phase
// 2"; hybrid groups hosting several members add the member, "[ml m3]");
// after every group reaches -passes the daemon prints "ALL-GROUPS DONE
// n" and keeps participating until signalled. /metrics carries each
// group's series labelled {group="name"}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/groups"
	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/topo"
	"repro/internal/transport"
)

var (
	idFlag       = flag.Int("id", -1, "this member's position (0-based)")
	peersFlag    = flag.String("peers", "", "comma-separated host:port of every member, in member order")
	topologyFlag = flag.String("topology", "ring", `barrier topology: "ring", "tree" (binary heap by member index) or "hybrid" (-hosts groups members by host)`)
	hostsFlag    = flag.String("hosts", "", `hybrid member grouping: '|'-separated per-host rosters, e.g. "0,1|2,3" (host i's members; -peers then lists one address per host and -id is the host index)`)
	passesFlag   = flag.Int("passes", 100, "print DONE after this many successful passes (0: unlimited)")
	nPhasesFlag  = flag.Int("nphases", 4, "phase-counter modulus")
	resendFlag   = flag.Duration("resend", 500*time.Microsecond, "state retransmission period; loss on the wire is masked within 2 x max(resend, ~1ms idle-timer granularity), so a value below ~1ms buys nothing in an idle process and costs sweeps in a busy one")
	lossFlag     = flag.Float64("loss", 0, "per-message send-loss probability (fault injection)")
	corruptFlag  = flag.Float64("corrupt", 0, "per-message corruption probability (fault injection)")
	seedFlag     = flag.Int64("seed", 1, "random seed for fault injection draws")
	rejoinFlag   = flag.Bool("rejoin", false, "start in the reset protocol state (restarting into a live ring)")
	quietFlag    = flag.Bool("quiet", false, "suppress per-pass output")
	thinkFlag    = flag.Duration("think", 0, "sleep between successive passes (open-loop pacing for load tests)")
	metricsFlag  = flag.String("metrics", "", `serve /metrics and /healthz on this address (e.g. ":9100"; empty: disabled)`)
	pprofFlag    = flag.Bool("pprof", false, "also serve /debug/pprof on the -metrics address")
	groupsFlag   = flag.String("groups", "", "host every barrier group declared in this file over shared connections (multi-tenant mode)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "barrierd:", err)
		os.Exit(1)
	}
}

func run() error {
	peers, id, err := parseMembership(*peersFlag, *idFlag)
	if err != nil {
		return err
	}

	// One registry serves the barrier's and the transport's series; nil
	// (metrics disabled) makes every registration a no-op downstream.
	var reg *obsv.Registry
	if *metricsFlag != "" {
		reg = obsv.NewRegistry()
	}

	if *groupsFlag != "" {
		return runGroups(*groupsFlag, peers, id, reg)
	}

	// The transport must realize the same topology the protocol runs: ring
	// links for MB, tree edges (matching the runtime's default binary-heap
	// shape) for the double-tree refinement, host-tree edges for hybrid.
	var (
		tr       runtime.Transport
		topology runtime.Topology
		hosts    [][]int      // hybrid only
		members  = []int{id}  // the barrier members this process drives
		total    = len(peers) // Participants
	)
	switch *topologyFlag {
	case "ring":
		topology = runtime.TopologyRing
		t, err := transport.NewTCP(transport.TCPConfig{Peers: peers, Registry: reg})
		if err != nil {
			return err
		}
		tr = t
	case "tree":
		topology = runtime.TopologyTree
		shape, err := topo.NewKAryTree(len(peers), 2)
		if err != nil {
			return err
		}
		t, err := transport.NewTCPTree(transport.TCPConfig{Peers: peers, Registry: reg}, shape.Parent)
		if err != nil {
			return err
		}
		tr = t
	case "hybrid":
		topology = runtime.TopologyHybrid
		hosts, err = parseHosts(*hostsFlag)
		if err != nil {
			return err
		}
		if len(hosts) != len(peers) {
			return fmt.Errorf("-hosts declares %d hosts, -peers %d addresses: want one address per host", len(hosts), len(peers))
		}
		hy, err := topo.NewHybridTree(hosts, 2)
		if err != nil {
			return err
		}
		t, err := transport.NewTCPTree(transport.TCPConfig{Peers: peers, Registry: reg}, hy.HostTree.Parent)
		if err != nil {
			return err
		}
		tr = t
		members = hosts[id]
		total = len(hy.HostOf)
	default:
		return fmt.Errorf("-topology %q: want ring, tree or hybrid", *topologyFlag)
	}
	if *hostsFlag != "" && topology != runtime.TopologyHybrid {
		return errors.New("-hosts requires -topology hybrid")
	}
	defer tr.Close()
	b, err := runtime.New(runtime.Config{
		Participants: total,
		NPhases:      *nPhasesFlag,
		Topology:     topology,
		Hosts:        hosts,
		Transport:    tr,
		Members:      members,
		Rejoin:       *rejoinFlag,
		Resend:       *resendFlag,
		LossRate:     *lossFlag,
		CorruptRate:  *corruptFlag,
		Seed:         *seedFlag + int64(id), // decorrelate the members' fault draws
		Metrics:      reg,
	})
	if err != nil {
		return err
	}
	defer b.Stop()

	var passCounter atomic.Int64
	if *metricsFlag != "" {
		srv, err := serveMetrics(*metricsFlag, reg, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			status, code := "ok", http.StatusOK
			if b.Halted() {
				// Fail-safe halt: the member will never pass a barrier again;
				// report unhealthy so a supervisor can restart it with -rejoin.
				status, code = "halted", http.StatusServiceUnavailable
			}
			w.WriteHeader(code)
			fmt.Fprintf(w, `{"status":%q,"member":%d,"topology":%q,"passes":%d}`+"\n",
				status, id, *topologyFlag, passCounter.Load())
		})
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		cancel()
	}()

	// One spec-projection loop per locally-hosted member: one for ring and
	// tree, the whole host roster for hybrid. "DONE n" announces the quota
	// once EVERY local member has reached it; the loops keep participating
	// until signalled — exiting would break the barrier for members still
	// short of their quota.
	var doneCount atomic.Int64
	errs := make(chan error, len(members))
	for _, m := range members {
		m := m
		label := ""
		if len(members) > 1 {
			label = fmt.Sprintf("[m%d] ", m)
		}
		go func() {
			errs <- memberLoop(ctx, b, m, label, *nPhasesFlag, &passCounter, func() {
				if int(doneCount.Add(1)) == len(members) {
					fmt.Printf("DONE %d\n", *passesFlag)
				}
			})
		}()
	}
	for range members {
		if err := <-errs; err != nil {
			return err
		}
	}
	fmt.Printf("EXIT member %d: %d passes, clean\n", id, passCounter.Load())
	return nil
}

// memberLoop is one member's projection of the specification: successive
// passes must cycle through the phases in order. The first pass
// synchronizes the expectation (a -rejoin member comes up mid-cycle).
func memberLoop(ctx context.Context, b *runtime.Barrier, member int, label string, nPhases int, counter *atomic.Int64, onQuota func()) error {
	var (
		passes    int
		expected  = -1
		quotaSaid bool
	)
	for {
		ph, err := b.Await(ctx, member)
		switch {
		case err == nil:
			if expected != -1 && ph != expected {
				fmt.Printf("VIOLATION member %d: pass %d phase %d, expected %d\n", member, passes, ph, expected)
				return fmt.Errorf("phase order violated: got %d, expected %d", ph, expected)
			}
			expected = (ph + 1) % nPhases
			passes++
			counter.Add(1)
			if !*quietFlag {
				fmt.Printf("%spass %d phase %d\n", label, passes, ph)
			}
			if *passesFlag > 0 && passes == *passesFlag && !quotaSaid {
				quotaSaid = true
				onQuota()
			}
			thinkPause(ctx)
		case errors.Is(err, runtime.ErrReset):
			// Detectable fault consumed the phase work: redo. The phase
			// expectation survives — a reset must not skip or repeat a
			// barrier this member already observed.
		case errors.Is(err, context.Canceled):
			return nil
		default:
			return fmt.Errorf("await: %w", err)
		}
	}
}

// thinkPause paces successive passes when -think is set, so a load
// harness can run the daemon open-loop instead of barrier-speed
// closed-loop. Interruptible by shutdown.
func thinkPause(ctx context.Context) {
	if *thinkFlag <= 0 {
		return
	}
	select {
	case <-ctx.Done():
	case <-time.After(*thinkFlag):
	}
}

// parseMembership validates the deployment shape shared by both modes:
// at least two members, every peer address non-empty and unique, and the
// member id in range.
func parseMembership(peersCSV string, id int) ([]string, int, error) {
	peers := strings.Split(peersCSV, ",")
	if peersCSV == "" || len(peers) < 2 {
		return nil, 0, errors.New("-peers must list at least 2 members")
	}
	seen := make(map[string]int, len(peers))
	for j, p := range peers {
		if strings.TrimSpace(p) == "" {
			return nil, 0, fmt.Errorf("-peers entry %d is empty", j)
		}
		if prev, ok := seen[p]; ok {
			return nil, 0, fmt.Errorf("-peers entry %d duplicates entry %d (%s): every member needs its own address", j, prev, p)
		}
		seen[p] = j
	}
	if id < 0 || id >= len(peers) {
		return nil, 0, fmt.Errorf("-id %d out of range: want 0..%d for %d peers", id, len(peers)-1, len(peers))
	}
	return peers, id, nil
}

// parseHosts reads a hybrid member grouping: '|'-separated per-host
// rosters of ','-separated member ids, e.g. "0,1|2,3".
func parseHosts(s string) ([][]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("hybrid needs a host grouping (e.g. \"0,1|2,3\")")
	}
	rosters := strings.Split(s, "|")
	hosts := make([][]int, len(rosters))
	for h, roster := range rosters {
		for _, f := range strings.Split(roster, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("host %d: member %q: %w", h, f, err)
			}
			hosts[h] = append(hosts[h], id)
		}
	}
	return hosts, nil
}

// parseGroupsFile reads the multi-tenant group declarations: one group
// per line, "name [topology [nphases]] [key=value...]", '#' comments.
// Options: "hosts=0,1|2,3" (hybrid rosters), "depth=K" (wave-pipelining
// window), "haltafter=N" (fault injection: force the group fail-safe
// after N local passes, for supervisor drills). The fault-injection
// flags apply to every group; seeds are decorrelated per group.
// haltAfter is aligned with the returned configs; 0 means never.
func parseGroupsFile(path string) (cfgs []groups.Config, haltAfter []int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	for lineNo, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		c := groups.Config{
			Name:        fields[0],
			Topology:    transport.GroupRing,
			NPhases:     *nPhasesFlag,
			Resend:      *resendFlag,
			LossRate:    *lossFlag,
			CorruptRate: *corruptFlag,
			Seed:        *seedFlag + int64(len(cfgs))<<8,
		}
		halt := 0
		positional := 0
		for _, f := range fields[1:] {
			if key, val, isOpt := strings.Cut(f, "="); isOpt {
				switch key {
				case "hosts":
					hosts, err := parseHosts(val)
					if err != nil {
						return nil, nil, fmt.Errorf("%s:%d: hosts: %w", path, lineNo+1, err)
					}
					c.Hosts = hosts
				case "depth":
					d, err := strconv.Atoi(val)
					if err != nil || d < 1 {
						return nil, nil, fmt.Errorf("%s:%d: depth %q: want an integer ≥ 1", path, lineNo+1, val)
					}
					c.Depth = d
				case "haltafter":
					h, err := strconv.Atoi(val)
					if err != nil || h < 1 {
						return nil, nil, fmt.Errorf("%s:%d: haltafter %q: want an integer ≥ 1", path, lineNo+1, val)
					}
					halt = h
				default:
					return nil, nil, fmt.Errorf("%s:%d: unknown option %q (want hosts=, depth= or haltafter=)", path, lineNo+1, key)
				}
				continue
			}
			switch positional {
			case 0:
				c.Topology = f
			case 1:
				n, err := strconv.Atoi(f)
				if err != nil || n < 2 {
					return nil, nil, fmt.Errorf("%s:%d: nphases %q: want an integer ≥ 2", path, lineNo+1, f)
				}
				c.NPhases = n
			default:
				return nil, nil, fmt.Errorf("%s:%d: too many fields (want: name [topology [nphases]] [key=value...])", path, lineNo+1)
			}
			positional++
		}
		cfgs = append(cfgs, c)
		haltAfter = append(haltAfter, halt)
	}
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("%s: no groups declared", path)
	}
	return cfgs, haltAfter, nil
}

// runGroups is the multi-tenant daemon: one member of every declared
// group, all sharing one connection per peer pair.
func runGroups(file string, peers []string, id int, reg *obsv.Registry) error {
	cfgs, haltAfter, err := parseGroupsFile(file)
	if err != nil {
		return err
	}
	r, err := groups.New(groups.Options{
		Self:    id,
		Peers:   peers,
		Rejoin:  *rejoinFlag,
		Metrics: reg,
	}, cfgs)
	if err != nil {
		return err
	}
	defer r.Close()

	var totalPasses atomic.Int64
	if *metricsFlag != "" {
		srv, err := serveMetrics(*metricsFlag, reg, func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			status, code := "ok", http.StatusOK
			for _, g := range r.Groups() {
				if b := g.Barrier(); b != nil && b.Halted() {
					status, code = "halted", http.StatusServiceUnavailable
					break
				}
			}
			w.WriteHeader(code)
			fmt.Fprintf(w, `{"status":%q,"member":%d,"groups":%d,"passes":%d}`+"\n",
				status, id, len(r.Groups()), totalPasses.Load())
		})
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		cancel()
	}()

	// One await loop per locally-hosted member of every group (one for
	// ring/tree groups, the whole roster for hybrid). Every group must
	// bring every local member to the -passes quota; "ALL-GROUPS DONE n"
	// marks the rendezvous. Like the single-group daemon, the loops keep
	// participating after their quota until signalled — a member that
	// exits breaks its groups for the peers.
	var doneGroups atomic.Int64
	var loops int
	errs := make(chan error, 64)
	for i, g := range r.Groups() {
		g, nPhases, halt := g, cfgs[i].NPhases, haltAfter[i]
		members := g.Members()
		doneMembers := new(atomic.Int64)
		for _, m := range members {
			m := m
			loops++
			go func() {
				errs <- groupLoop(ctx, g, m, len(members) > 1, nPhases, halt, &totalPasses, func() {
					if int(doneMembers.Add(1)) != len(members) {
						return
					}
					fmt.Printf("[%s] DONE %d\n", g.Name(), *passesFlag)
					if int(doneGroups.Add(1)) == len(cfgs) {
						fmt.Printf("ALL-GROUPS DONE %d\n", len(cfgs))
					}
				})
			}()
		}
	}
	for i := 0; i < loops; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	fmt.Printf("EXIT member %d: %d passes across %d groups, clean\n", id, totalPasses.Load(), len(cfgs))
	return nil
}

// groupLoop is one group member's projection of the single-group daemon
// loop: Await, check the per-member phase cycle, print "[name] pass N
// phase P" lines (prefixed, so single-group log scrapers never confuse
// tenants; multi-member hybrid groups add the member id, "[name m3]"),
// report the quota and keep going until cancelled.
func groupLoop(ctx context.Context, g *groups.Group, member int, labelMember bool, nPhases, haltAfter int, total *atomic.Int64, onQuota func()) error {
	label := g.Name()
	if labelMember {
		label = fmt.Sprintf("%s m%d", g.Name(), member)
	}
	var (
		passes    int
		expected  = -1
		quotaSaid bool
	)
	for {
		ph, err := g.AwaitMember(ctx, member)
		switch {
		case err == nil:
			if expected != -1 && ph != expected {
				fmt.Printf("VIOLATION group %s member %d: pass %d phase %d, expected %d\n", g.Name(), member, passes, ph, expected)
				return fmt.Errorf("group %s: phase order violated: got %d, expected %d", g.Name(), ph, expected)
			}
			expected = (ph + 1) % nPhases
			passes++
			total.Add(1)
			if !*quietFlag {
				fmt.Printf("[%s] pass %d phase %d\n", label, passes, ph)
			}
			if *passesFlag > 0 && passes == *passesFlag && !quotaSaid {
				quotaSaid = true
				onQuota()
			}
			if haltAfter > 0 && passes == haltAfter {
				// Injected fail-safe (haltafter=N): exercise the halt
				// machinery end to end — the next Await returns ErrHalted
				// and this loop parks below.
				g.Barrier().Halt()
			}
			thinkPause(ctx)
		case errors.Is(err, runtime.ErrReset):
			// Redo the phase; the expectation survives.
		case errors.Is(err, context.Canceled):
			return nil
		case errors.Is(err, runtime.ErrHalted):
			// Fail-safe halt is a verdict on this group, not on the
			// daemon: park instead of exiting so the sibling groups keep
			// passing and the aggregate /healthz turns 503 while the
			// halted group is inspected.
			fmt.Printf("HALTED group %s member %d after %d passes\n", g.Name(), member, passes)
			<-ctx.Done()
			return nil
		default:
			return fmt.Errorf("group %s await: %w", g.Name(), err)
		}
	}
}

// serveMetrics binds addr and serves the observability endpoints:
//
//	/metrics — the registry in Prometheus text format
//	/healthz — the mode-specific health handler (200 while live, 503
//	           once fail-safe halted)
//
// The bound address is printed ("metrics listening on ADDR") so that a
// supervisor — or the e2e test — can probe readiness even with ":0".
func serveMetrics(addr string, reg *obsv.Registry, healthz http.HandlerFunc) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
	mux.HandleFunc("/healthz", healthz)
	if *pprofFlag {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Printf("metrics listening on %s\n", ln.Addr())
	return srv, nil
}
