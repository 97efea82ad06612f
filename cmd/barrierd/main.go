// Command barrierd hosts one OS process's members of a distributed
// fault-tolerant barrier deployment. The deployment is a roster of
// barrier groups; every group spans all processes, and all groups share
// one TCP connection per neighboring process pair (internal/groups over
// the transport mux; the lower-indexed process of a pair dials, so -peers
// must list every process's listen address). Together the processes
// realize the same protocol instances the in-process runtime runs over
// channels.
//
// The roster has one line per group:
//
//	name [topology [nphases]] [key=value...]
//	# e.g. "g00 ring 4", "batch tree", "ml hybrid hosts=0,1|2,3",
//	#      "fast ring depth=4"
//
// '#' starts a comment; topology defaults to ring and nphases to
// -nphases. "ring" is the MB token ring; "tree" the double-tree
// broadcast/convergecast over a binary heap of the process indices —
// O(log N) barrier latency instead of O(N), at the price of the root
// being a hub; "hybrid" the two-level shape for members co-located on
// hosts: "hosts=0,1|2,3" groups the barrier members by process (one
// '|'-separated roster each), every process fuses its whole roster onto
// one local scheduler, and only host roots exchange network messages,
// over a binary heap of the process indices. "depth=K" pipelines up to K
// barrier instances of the group over the shared connections (K wire
// groups, one per in-flight wave). Every process of the deployment must
// be started with an identical roster (the handshake digest enforces it).
//
// -groups FILE reads the roster from FILE. Without it the roster is the
// one line the flags spell:
//
//	barrierd -id I -peers P -topology T -nphases K [-hosts H]
//
// is exactly barrierd -id I -peers P -groups FILE with FILE holding
// "main T K [hosts=H]" — same parser, same validation, same handshake
// digest, so flag-started and file-started processes can share a
// deployment. A four-process loopback ring:
//
//	barrierd -id 0 -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 &
//	barrierd -id 1 -peers ... &
//	barrierd -id 2 -peers ... &
//	barrierd -id 3 -peers ... &
//
// Each locally-hosted member of each group loops Await, printing one
// "[name] pass N phase P" line per completed barrier (hybrid groups
// hosting several members add the member, "[ml m3]") and checking its
// per-member projection of the specification: successive passes must
// cycle through the phases in order. (The full specification checker
// needs a totally ordered event stream, which does not exist across
// processes; the in-process conformance targets provide that stronger
// check.)
//
// After -passes successful passes of every local member a group prints
// "[name] DONE n", and after every group has, the daemon prints
// "ALL-GROUPS DONE g" — but it keeps participating: a member that simply
// exits would break its groups for everyone else. SIGTERM/SIGINT shuts
// it down cleanly ("EXIT member I: N passes across g groups, clean"). A
// process restarted into a live deployment should be given -rejoin,
// which starts every group's protocol in the reset state (sn ⊥), so
// rejoining is masked exactly like a detectable fault (Section 7 of the
// paper). A group whose barrier halts fail-safe (Table 1) parks — it
// prints "HALTED group name member m" and stops passing — while the
// process stays up and its other groups carry on.
//
// -metrics addr serves the live Section 6 measurements: /metrics exposes
// the transport's series and each group's barrier series labelled
// {group="name"} in the Prometheus text format (passes, re-executed
// instances per pass, pass latency, recovery time, reconnects, CRC
// drops), and /healthz answers 200 while every group is live — 503 once
// any has halted fail-safe — so supervisors and tests can probe
// readiness instead of sleeping, and restart a halted process with
// -rejoin. -pprof adds /debug/pprof on the same address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
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
	"repro/internal/transport"
)

var (
	idFlag       = flag.Int("id", -1, "this process's position in -peers (0-based)")
	peersFlag    = flag.String("peers", "", "comma-separated host:port of every process, in id order")
	topologyFlag = flag.String("topology", "ring", `topology of the one-group roster "main": "ring", "tree" (binary heap by process index) or "hybrid" (-hosts groups members by process); not with -groups`)
	hostsFlag    = flag.String("hosts", "", `hybrid member grouping of the one-group roster: '|'-separated per-process rosters, e.g. "0,1|2,3" (process i hosts roster i); not with -groups`)
	passesFlag   = flag.Int("passes", 100, "print DONE after this many successful passes (0: unlimited)")
	nPhasesFlag  = flag.Int("nphases", 4, "phase-counter modulus (the default for -groups lines that name none)")
	resendFlag   = flag.Duration("resend", 0, "state retransmission period (0: the library default; see groups.Config.Resend on what a value below ~1ms buys)")
	corruptFlag  = flag.Float64("corrupt", 0, "per-message corruption probability (fault injection)")
	seedFlag     = flag.Int64("seed", 1, "random seed for fault injection draws")
	rejoinFlag   = flag.Bool("rejoin", false, "start in the reset protocol state (restarting into a live deployment)")
	quietFlag    = flag.Bool("quiet", false, "suppress per-pass output")
	thinkFlag    = flag.Duration("think", 0, "sleep between successive passes (open-loop pacing for load tests)")
	metricsFlag  = flag.String("metrics", "", `serve /metrics and /healthz on this address (e.g. ":9100"; empty: disabled)`)
	pprofFlag    = flag.Bool("pprof", false, "also serve /debug/pprof on the -metrics address")
	groupsFlag   = flag.String("groups", "", `read the group roster from this file instead of -topology/-hosts (default roster: the one line "main TOPOLOGY NPHASES [hosts=HOSTS]")`)
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "barrierd:", err)
		os.Exit(1)
	}
}

func run() error {
	// A flag that would be silently ignored is a misconfiguration — and so
	// is one set to nothing: an empty field vanishes from the roster line
	// the flags spell, and the parser would read its neighbour in its place.
	var ignored error
	flag.Visit(func(f *flag.Flag) {
		switch {
		case (f.Name == "topology" || f.Name == "hosts") && *groupsFlag != "":
			ignored = fmt.Errorf("-%s has no effect with -groups: declare the topology on the roster line", f.Name)
		case (f.Name == "topology" || f.Name == "hosts") && strings.TrimSpace(f.Value.String()) == "":
			ignored = fmt.Errorf("-%s is set but empty", f.Name)
		case f.Name == "pprof" && *metricsFlag == "":
			ignored = errors.New("-pprof needs -metrics: /debug/pprof is served on the -metrics address")
		}
	})
	if ignored != nil {
		return ignored
	}
	peers, id, err := parseMembership(*peersFlag, *idFlag)
	if err != nil {
		return err
	}

	// The roster: the -groups file, or the one line the flags spell.
	source, roster := "flags", fmt.Sprintf("main %s %d", *topologyFlag, *nPhasesFlag)
	if h := strings.Join(strings.Fields(*hostsFlag), ""); h != "" {
		roster += " hosts=" + h
	}
	if *groupsFlag != "" {
		data, err := os.ReadFile(*groupsFlag)
		if err != nil {
			return err
		}
		source, roster = *groupsFlag, string(data)
	}
	cfgs, haltAfter, err := parseRoster(source, roster)
	if err != nil {
		return err
	}

	// One registry serves every group's and the transport's series; nil
	// (metrics disabled) makes every registration a no-op downstream.
	var reg *obsv.Registry
	if *metricsFlag != "" {
		reg = obsv.NewRegistry()
	}
	// Connection diagnostics (a handshake rejected for a digest mismatch,
	// a dropped connection) go to stderr, -quiet or not: -quiet silences
	// only the per-pass lines.
	r, err := groups.New(groups.Options{
		Self:    id,
		Peers:   peers,
		Rejoin:  *rejoinFlag,
		Metrics: reg,
		Logf:    log.New(os.Stderr, "barrierd: ", log.LstdFlags).Printf,
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
					// Fail-safe halt: the group will never pass a barrier
					// again; report unhealthy so a supervisor can restart
					// the process with -rejoin.
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

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// One await loop per locally-hosted member of every group (one for
	// ring/tree groups, the whole roster for hybrid). Every group must
	// bring every local member to the -passes quota; "ALL-GROUPS DONE n"
	// marks the rendezvous. The loops keep participating after their quota
	// until signalled — a member that exits breaks its groups for the
	// peers.
	var doneGroups atomic.Int64
	loops := 0
	for _, g := range r.Groups() {
		loops += len(g.Members())
	}
	errs := make(chan error, loops)
	for i, g := range r.Groups() {
		g, nPhases, halt := g, cfgs[i].NPhases, haltAfter[i]
		members := g.Members()
		doneMembers := new(atomic.Int64)
		for _, m := range members {
			m := m
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

// parseMembership validates the deployment shape: at least two
// processes, every peer address non-empty and unique, and the id in range.
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

// parseRoster reads the group declarations — the -groups file's text, or
// the one line the flags spell; source names it in errors: one group per
// line, "name [topology [nphases]] [key=value...]", '#' comments.
// Options: "hosts=0,1|2,3" (hybrid rosters), "depth=K" (wave-pipelining
// window), "haltafter=N" (fault injection: force the group fail-safe
// after N local passes, for supervisor drills). The fault-injection
// flags apply to every group; seeds are decorrelated per group.
// haltAfter is aligned with the returned configs; 0 means never.
func parseRoster(source, text string) (cfgs []groups.Config, haltAfter []int, err error) {
	for lineNo, line := range strings.Split(text, "\n") {
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
						return nil, nil, fmt.Errorf("%s:%d: hosts: %w", source, lineNo+1, err)
					}
					c.Hosts = hosts
				case "depth":
					d, err := strconv.Atoi(val)
					if err != nil || d < 1 {
						return nil, nil, fmt.Errorf("%s:%d: depth %q: want an integer ≥ 1", source, lineNo+1, val)
					}
					c.Depth = d
				case "haltafter":
					h, err := strconv.Atoi(val)
					if err != nil || h < 1 {
						return nil, nil, fmt.Errorf("%s:%d: haltafter %q: want an integer ≥ 1", source, lineNo+1, val)
					}
					halt = h
				default:
					return nil, nil, fmt.Errorf("%s:%d: unknown option %q (want hosts=, depth= or haltafter=)", source, lineNo+1, key)
				}
				continue
			}
			switch positional {
			case 0:
				c.Topology = f
			case 1:
				n, err := strconv.Atoi(f)
				if err != nil || n < 2 {
					return nil, nil, fmt.Errorf("%s:%d: nphases %q: want an integer ≥ 2", source, lineNo+1, f)
				}
				c.NPhases = n
			default:
				return nil, nil, fmt.Errorf("%s:%d: too many fields (want: name [topology [nphases]] [key=value...])", source, lineNo+1)
			}
			positional++
		}
		cfgs = append(cfgs, c)
		haltAfter = append(haltAfter, halt)
	}
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("%s: no groups declared", source)
	}
	return cfgs, haltAfter, nil
}

// groupLoop is one group member's projection of the specification:
// Await, check that successive passes cycle through the phases in order
// (the first pass synchronizes the expectation — a -rejoin member comes
// up mid-cycle), print "[name] pass N phase P" lines (multi-member hybrid
// groups add the member id, "[name m3]"), report the quota and keep going
// until cancelled.
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
			// Detectable fault consumed the phase work: redo. The phase
			// expectation survives — a reset must not skip or repeat a
			// barrier this member already observed.
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
//	/healthz — the daemon's health handler (200 while every group is
//	           live, 503 once any has halted fail-safe)
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
