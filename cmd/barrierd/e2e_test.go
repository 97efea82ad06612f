// End-to-end tests of the distributed deployment: loopback TCP clusters
// of barrierd processes must complete their pass quotas spec-clean — with
// 1% injected message corruption throughout, and with one process
// SIGKILLed and restarted (-rejoin) mid-run. Flag-started and
// -groups-started processes are one code path, so one harness drives both.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

const (
	survivorQuota  = 400 // passes each original member must complete (≥100)
	restartQuota   = 100 // fresh passes the restarted member must complete
	killAfterPass  = 50  // kill once member 0 has logged this many passes
	corruptionRate = "0.01"
)

type member struct {
	id      int
	cmd     *exec.Cmd
	logPath string
}

// start launches one barrierd member writing to its own log file. Every
// member serves /metrics and /healthz on an ephemeral loopback port (the
// tests probe readiness instead of sleeping). extra flags (e.g.
// -topology tree) are appended to the common argument set.
func start(t *testing.T, bin, peers string, id, quota int, dir string, rejoin bool, extra ...string) *member {
	t.Helper()
	logPath := filepath.Join(dir, fmt.Sprintf("member%d.run%d.log", id, time.Now().UnixNano()))
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-id", strconv.Itoa(id),
		"-peers", peers,
		"-passes", strconv.Itoa(quota),
		"-corrupt", corruptionRate,
		"-resend", "500us",
		"-metrics", "127.0.0.1:0",
	}
	if rejoin {
		args = append(args, "-rejoin")
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logFile.Close() // the child holds its own descriptor
	return &member{id: id, cmd: cmd, logPath: logPath}
}

var passLine = regexp.MustCompile(`(?m)^\[([^\]]+)\] pass (\d+) `)

// passCount returns the highest pass number the member has logged under
// the given "[label] " prefix — a group name, or "name mK" for one fused
// member of a hybrid group.
func passCount(m *member, label string) int {
	data, err := os.ReadFile(m.logPath)
	if err != nil {
		return 0
	}
	n := 0
	for _, match := range passLine.FindAllStringSubmatch(string(data), -1) {
		if match[1] == label {
			n, _ = strconv.Atoi(match[2])
		}
	}
	return n
}

func logged(m *member, marker string) bool {
	data, err := os.ReadFile(m.logPath)
	return err == nil && strings.Contains(string(data), marker)
}

// waitFor polls cond until it holds or the deadline passes. An optional
// detail func contributes its last observed state to the timeout message,
// so a hung wait reports what it was looking at rather than just its
// name.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool, detail ...func() string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			msg := fmt.Sprintf("timed out waiting for %s", what)
			for _, d := range detail {
				msg += "\nlast state: " + d()
			}
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

var metricsAddrLine = regexp.MustCompile(`(?m)^metrics listening on (\S+)$`)

// metricsAddr returns the member's bound observability address, parsed
// from its "metrics listening on ADDR" log line ("" until it appears).
func metricsAddr(m *member) string {
	data, err := os.ReadFile(m.logPath)
	if err != nil {
		return ""
	}
	match := metricsAddrLine.FindStringSubmatch(string(data))
	if match == nil {
		return ""
	}
	return match[1]
}

var probeClient = &http.Client{Timeout: 500 * time.Millisecond}

// httpBody performs one GET and returns (body, status, ok).
func httpBody(url string) (string, int, bool) {
	resp, err := probeClient.Get(url)
	if err != nil {
		return "", 0, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, false
	}
	return string(body), resp.StatusCode, true
}

// waitHealthy blocks until the member's /healthz answers 200 — the
// readiness probe that replaces sleep-based waits around startup and the
// SIGKILL/rejoin restart. On timeout it reports the last probe outcome
// and the tail of the member's log, the two things a hang diagnosis
// needs.
func waitHealthy(t *testing.T, m *member, timeout time.Duration) {
	t.Helper()
	var lastProbe string
	waitFor(t, fmt.Sprintf("member %d /healthz ready", m.id), timeout, func() bool {
		addr := metricsAddr(m)
		if addr == "" {
			lastProbe = "no metrics address logged yet"
			return false
		}
		body, code, ok := httpBody("http://" + addr + "/healthz")
		lastProbe = fmt.Sprintf("addr=%s ok=%v code=%d body=%q", addr, ok, code, body)
		return ok && code == http.StatusOK
	}, func() string {
		data, _ := os.ReadFile(m.logPath)
		return lastProbe + "\nlog tail:\n" + tailLines(string(data), 10)
	})
}

// scrapeBody fetches the member's /metrics page, retrying transient
// failures (a member mid-rejoin can refuse a connection) until the
// deadline. The error carries the last body and status observed, so a
// failing scrape surfaces what the member actually served.
func scrapeBody(m *member, timeout time.Duration) (string, error) {
	addr := metricsAddr(m)
	if addr == "" {
		return "", fmt.Errorf("member %d never logged its metrics address", m.id)
	}
	deadline := time.Now().Add(timeout)
	for {
		body, code, ok := httpBody("http://" + addr + "/metrics")
		if ok && code == http.StatusOK {
			return body, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("member %d /metrics scrape failed after %s (ok=%v code=%d)\nlast body:\n%s",
				m.id, timeout, ok, code, tailLines(body, 40))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// scrapeMetrics fetches the member's /metrics page and asserts the
// exported accounting reflects a barrier that really ran: passes were
// counted, and the transport moved frames over real dials.
func scrapeMetrics(t *testing.T, m *member) {
	t.Helper()
	body, err := scrapeBody(m, 5*time.Second)
	if err != nil {
		t.Error(err)
		return
	}
	sample := regexp.MustCompile(`(?m)^(\w+)(?:\{[^}]*\})? (\d+(?:\.\d+)?(?:e\+?\d+)?)$`)
	values := map[string]float64{}
	for _, match := range sample.FindAllStringSubmatch(body, -1) {
		v, err := strconv.ParseFloat(match[2], 64)
		if err != nil {
			continue
		}
		values[match[1]] += v // labeled series (e.g. frames by dir) sum per family
	}
	for _, name := range []string{"barrier_passes_total", "transport_frames_total"} {
		if values[name] <= 0 {
			t.Errorf("member %d: %s = %v, want > 0\nscrape:\n%s", m.id, name, values[name], tailLines(body, 40))
		}
	}
	// Every member either dials or accepts (the lower-indexed end of each
	// edge dials, so the last member only accepts and member 0 only dials).
	if values["transport_dials_total"]+values["transport_accepts_total"] <= 0 {
		t.Errorf("member %d: no dials and no accepts in scrape\n%s", m.id, tailLines(body, 40))
	}
	if _, present := values["barrier_recovery_seconds_count"]; !present {
		t.Errorf("member %d: barrier_recovery_seconds_count missing from scrape", m.id)
	}
}

// buildBarrierd compiles the daemon once into dir and returns the binary
// path.
func buildBarrierd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "barrierd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building barrierd: %v\n%s", err, out)
	}
	return bin
}

// reservePeers reserves one loopback port per member by binding
// ephemeral listeners and releasing them once all are bound (so no two
// members draw the same port); barrierd then binds the same addresses
// itself. They are on 127.0.0.2, which this package alone binds: a dial
// to any loopback address takes its ephemeral source port on 127.0.0.1,
// so no connection made meanwhile — by this package or another one
// running beside it — can take a released port before its daemon
// re-binds it.
func reservePeers(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.2:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return strings.Join(addrs, ",")
}

// stopOnCleanup kills whatever is still running when the test ends.
// members is read at cleanup time, so restarted processes are covered,
// and a slot never started (nil) is skipped.
func stopOnCleanup(t *testing.T, members []*member) {
	t.Cleanup(func() {
		for _, m := range members {
			if m != nil && m.cmd.ProcessState == nil {
				m.cmd.Process.Kill()
				m.cmd.Wait()
			}
		}
	})
}

// waitLogged blocks until the member logs marker, failing at once on a
// spec violation.
func waitLogged(t *testing.T, m *member, marker string, timeout time.Duration) {
	t.Helper()
	waitFor(t, fmt.Sprintf("member %d %q", m.id, marker), timeout, func() bool {
		if logged(m, "VIOLATION") {
			data, _ := os.ReadFile(m.logPath)
			t.Fatalf("member %d spec violation: %s", m.id, tailLines(string(data), 1))
		}
		return logged(m, marker)
	})
}

// shutdownClean SIGTERMs every member; all must exit 0 with a clean
// summary and no violations anywhere in their logs.
func shutdownClean(t *testing.T, members []*member) {
	t.Helper()
	for _, m := range members {
		if err := m.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Errorf("signalling member %d: %v", m.id, err)
		}
	}
	for _, m := range members {
		if err := m.cmd.Wait(); err != nil {
			data, _ := os.ReadFile(m.logPath)
			t.Errorf("member %d exited uncleanly: %v\n%s", m.id, err, tailLines(string(data), 5))
		}
		if logged(m, "VIOLATION") {
			t.Errorf("member %d logged a spec violation", m.id)
		}
		if !logged(m, "EXIT ") {
			t.Errorf("member %d exited without a clean summary", m.id)
		}
	}
}

// requireHaltedAndPeerHealthy waits for halted's /healthz to turn 503
// "halted" — the process parks the group and stays up to say so — and for
// the group's HALTED log line, then checks that peer, which only sees a
// stalled neighbour, still answers 200.
func requireHaltedAndPeerHealthy(t *testing.T, halted *member, group string, peer *member) {
	t.Helper()
	var lastProbe string
	waitFor(t, fmt.Sprintf("member %d /healthz 503 after group halt", halted.id), time.Minute, func() bool {
		body, code, ok := httpBody("http://" + metricsAddr(halted) + "/healthz")
		lastProbe = fmt.Sprintf("ok=%v code=%d body=%q", ok, code, body)
		return ok && code == http.StatusServiceUnavailable && strings.Contains(body, `"status":"halted"`)
	}, func() string { return lastProbe })
	waitLogged(t, halted, "HALTED group "+group, time.Minute)
	if body, code, ok := httpBody("http://" + metricsAddr(peer) + "/healthz"); !ok || code != http.StatusOK {
		t.Errorf("member %d /healthz = code %d body %q (ok=%v), want 200", peer.id, code, body, ok)
	}
}

// writeRoster writes a -groups file into dir and returns its path.
func writeRoster(t *testing.T, dir, name, roster string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(roster), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// deployment is one kill/rejoin scenario: procs barrierd processes, each
// given its roster by args (flags or a -groups file), run until member
// 0's progress label has logged killAfter passes; then the victim is
// SIGKILLed and restarted with -rejoin, and every process must log done.
type deployment struct {
	name        string
	procs       int
	args        func(id int) []string // the roster, as process id is told it
	victim      int
	quota       int    // -passes of the original processes
	rejoinQuota int    // -passes of the restarted victim
	progress    string // member 0's "[label]" whose pass count gates the kill
	killAfter   int
	alsoSeen    string                                // a second line member 0 must have logged before the kill
	done        string                                // the marker every process must reach
	doneTimeout time.Duration                         // per process
	minPasses   int                                   // survivors' floor on the progress label (0: quota is the bar)
	live        func(t *testing.T, members []*member) // extra assertions with every quota met and the cluster still up
}

// runKillRestart drives one deployment end to end: healthy start, real
// progress, SIGKILL + -rejoin of the victim, every quota met with no
// VIOLATION, the exported metrics reflecting the run, and a clean
// SIGTERM exit everywhere.
func runKillRestart(t *testing.T, d deployment) {
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)
	peers := reservePeers(t, d.procs)

	members := make([]*member, d.procs)
	for id := range members {
		members[id] = start(t, bin, peers, id, d.quota, dir, false, d.args(id)...)
	}
	stopOnCleanup(t, members)

	// All members up and serving before the clock starts: readiness comes
	// from /healthz, not from guessing startup latency.
	for _, m := range members {
		waitHealthy(t, m, time.Minute)
	}

	// Let the deployment make real progress, then fail-stop the victim
	// mid-run — every group member it hosts goes down at once.
	waitFor(t, "initial progress", time.Minute, func() bool {
		return passCount(members[0], d.progress) >= d.killAfter && logged(members[0], d.alsoSeen)
	})
	victim := members[d.victim]
	if err := victim.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no goodbye
		t.Fatal(err)
	}
	victim.cmd.Wait()
	t.Logf("killed process %d at member-0 [%s] pass %d", d.victim, d.progress, passCount(members[0], d.progress))

	// No barrier can complete without it; restart it into the live
	// deployment in the reset state (Section 7: rejoin is masked like a
	// detectable fault). /healthz confirms the restarted process is up
	// and un-halted before the test waits on its quota.
	members[d.victim] = start(t, bin, peers, d.victim, d.rejoinQuota, dir, true, d.args(d.victim)...)
	waitHealthy(t, members[d.victim], time.Minute)

	// Every process — survivors and the rejoined one — must reach its
	// quota of spec-clean passes.
	for _, m := range members {
		waitLogged(t, m, d.done, d.doneTimeout)
	}

	// With every quota met and the deployment still live, the exported
	// metrics must show the run: passes counted, transport frames moved.
	for _, m := range members {
		scrapeMetrics(t, m)
	}
	if d.live != nil {
		d.live(t, members)
	}

	shutdownClean(t, members)

	// The acceptance bar: the survivors completed their phases spec-clean
	// around the kill.
	for _, m := range members {
		if got := passCount(m, d.progress); m.id != d.victim && got < d.minPasses {
			t.Errorf("member %d completed %d [%s] passes, want ≥ %d", m.id, got, d.progress, d.minPasses)
		}
	}
}

// flagRoster gives every process the same roster flags.
func flagRoster(flags ...string) func(int) []string {
	return func(int) []string { return flags }
}

// The kill/rejoin deployments. The first three are flag-started — the
// one-line roster "main TOPOLOGY 4 [hosts=…]" — the fourth reads a
// 64-group roster from a -groups file:
//
//   - ring: a 4-process token ring, member 2 killed.
//   - tree: a 7-process binary-heap tree, leaf 5 killed (leaves: 3,4,5,6)
//     — the root's convergecast cannot complete without its subtree.
//   - hybrid: 2 processes each fuse a 2-member host roster onto one local
//     scheduler and bridge the hosts over a single tree edge; host 1 is
//     killed, taking both of its fused members down and back at once.
//   - multigroup: 4 processes host 64 groups (rings and trees) over one
//     shared connection per process pair; the kill takes the victim's
//     member of all 64 down at once, and /metrics must carry per-group
//     labelled series.
func TestLoopbackKillRestart(t *testing.T) {
	const (
		nGroups    = 64
		groupQuota = 25
	)
	// The tenant roster: mostly rings, a handful of trees, exercising the
	// comment/default syntax of the config file.
	var sb strings.Builder
	sb.WriteString("# barrierd multi-group e2e roster\n\n")
	for i := 0; i < nGroups; i++ {
		switch {
		case i%16 == 15:
			fmt.Fprintf(&sb, "t%02d tree 4\n", i)
		case i%2 == 0:
			fmt.Fprintf(&sb, "g%02d ring 4\n", i)
		default:
			fmt.Fprintf(&sb, "g%02d # ring, -nphases\n", i)
		}
	}
	groupsFile := writeRoster(t, t.TempDir(), "groups.conf", sb.String())

	cases := []deployment{
		{
			name: "ring", procs: 4, args: flagRoster(), victim: 2,
			quota: survivorQuota, rejoinQuota: restartQuota,
			progress: "main", killAfter: killAfterPass, minPasses: 100,
			done: "[main] DONE ", doneTimeout: 2 * time.Minute,
		},
		{
			name: "tree", procs: 7, args: flagRoster("-topology", "tree"), victim: 5,
			quota: survivorQuota, rejoinQuota: restartQuota,
			progress: "main", killAfter: killAfterPass, minPasses: 100,
			done: "[main] DONE ", doneTimeout: 2 * time.Minute,
		},
		{
			name: "hybrid", procs: 2, args: flagRoster("-topology", "hybrid", "-hosts", "0,1|2,3"), victim: 1,
			quota: survivorQuota, rejoinQuota: restartQuota,
			progress: "main m0", killAfter: killAfterPass,
			done: "[main] DONE ", doneTimeout: 2 * time.Minute,
			live: func(t *testing.T, members []*member) {
				// Both fused members of the surviving root host logged passes
				// of their own — the per-member labels keep the interleaved
				// log attributable.
				for _, label := range []string{"[main m0] pass ", "[main m1] pass "} {
					if !logged(members[0], label) {
						t.Errorf("host 0 log missing %q lines", label)
					}
				}
			},
		},
		{
			name: "multigroup", procs: 4, args: flagRoster("-groups", groupsFile, "-resend", "1ms"), victim: 2,
			quota: groupQuota, rejoinQuota: groupQuota,
			progress: "g00", killAfter: 8, alsoSeen: "[t15] pass ",
			done: fmt.Sprintf("ALL-GROUPS DONE %d", nGroups), doneTimeout: 3 * time.Minute,
			live: func(t *testing.T, members []*member) {
				// The scrape must carry per-group labelled series — the tenant
				// view of the paper's Section 6 counters — plus the shared
				// transport's.
				for _, m := range []*member{members[0], members[2]} {
					body, err := scrapeBody(m, 5*time.Second)
					if err != nil {
						t.Fatal(err)
					}
					for _, series := range []string{
						`barrier_passes_total{group="g00"}`,
						`barrier_passes_total{group="g62"}`,
						`barrier_passes_total{group="t63"}`,
						`barrier_passes_total{group="t15"}`,
						`barrier_topology{topology="tree",group="t15"}`,
						`transport_group_frames_total{group="g00",dir="sent"}`,
						"transport_frames_total",
					} {
						if !strings.Contains(body, series) {
							t.Errorf("member %d scrape missing %s\n%s", m.id, series, tailLines(body, 30))
						}
					}
					passSeries := regexp.MustCompile(`(?m)^barrier_passes_total\{group="(g00|t15)"\} (\d+)$`)
					for _, match := range passSeries.FindAllStringSubmatch(body, -1) {
						if n, _ := strconv.Atoi(match[2]); n < groupQuota {
							t.Errorf("member %d: %s passes = %d, want ≥ %d", m.id, match[1], n, groupQuota)
						}
					}
				}
			},
		},
	}
	for _, d := range cases {
		t.Run(d.name, func(t *testing.T) { runKillRestart(t, d) })
	}
}

// Equivalence: `-topology tree` IS the roster line "main tree 4". A
// 4-process tree with members 0–1 started on flags and members 2–3 on a
// -groups file holding that line must handshake (one digest), pass
// together, survive a SIGKILL + -rejoin of a flag-started member, and
// exit clean. This is the test that fails if a second daemon path — or a
// second digest — ever reappears.
func TestLoopbackFlagsRosterEquivalence(t *testing.T) {
	groupsFile := writeRoster(t, t.TempDir(), "main.conf", "main tree 4\n")
	runKillRestart(t, deployment{
		procs: 4,
		args: func(id int) []string {
			if id < 2 {
				return []string{"-topology", "tree"}
			}
			return []string{"-groups", groupsFile}
		},
		victim: 1,
		quota:  survivorQuota, rejoinQuota: restartQuota,
		progress: "main", killAfter: killAfterPass, minPasses: 100,
		done: "[main] DONE ", doneTimeout: 2 * time.Minute,
		live: func(t *testing.T, members []*member) {
			rejects := regexp.MustCompile(`(?m)^transport_digest_rejects_total (\d+)$`)
			for _, m := range members {
				body, err := scrapeBody(m, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if match := rejects.FindStringSubmatch(body); match == nil || match[1] != "0" {
					t.Errorf("member %d: digest rejects = %v, want a transport_digest_rejects_total of 0", m.id, match)
				}
				if !strings.Contains(body, `barrier_passes_total{group="main"}`) {
					t.Errorf("member %d scrape missing the {group=\"main\"} pass series\n%s", m.id, tailLines(body, 30))
				}
			}
		},
	})
}

// One halt behaviour: a one-group deployment whose barrier halts
// fail-safe parks and answers /healthz 503 — it does not exit. Process 0
// runs the roster line "main ring 4 haltafter=5" (haltafter= is
// daemon-local, not part of the digest); process 1 is flag-started on the
// same one-line roster and only ever sees a stalled peer.
func TestLoopbackOneGroupHaltHealthz(t *testing.T) {
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)
	peers := reservePeers(t, 2)
	groupsFile := writeRoster(t, dir, "main.conf", "main ring 4 haltafter=5\n")

	members := []*member{
		start(t, bin, peers, 0, survivorQuota, dir, false, "-groups", groupsFile),
		start(t, bin, peers, 1, survivorQuota, dir, false),
	}
	stopOnCleanup(t, members)
	// No readiness wait on process 0: five passes can beat the first probe.
	waitHealthy(t, members[1], time.Minute)

	requireHaltedAndPeerHealthy(t, members[0], "main", members[1])

	// Parked, not dead: SIGTERM still finds both processes and gets a
	// clean exit out of them.
	shutdownClean(t, members)
}

// Roster skew is rejected at the handshake, and the rejecting process
// says so on stderr even under -quiet: process 0 runs the one-group ring,
// process 1 (the one that accepts) the tree, so their digests differ.
func TestLoopbackDigestMismatchLogged(t *testing.T) {
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)
	peers := reservePeers(t, 2)

	members := []*member{
		start(t, bin, peers, 0, survivorQuota, dir, false, "-quiet"),
		start(t, bin, peers, 1, survivorQuota, dir, false, "-quiet", "-topology", "tree"),
	}
	stopOnCleanup(t, members)
	waitFor(t, `member 1 logging "config digest mismatch"`, 5*time.Second, func() bool {
		return logged(members[1], "config digest mismatch")
	}, func() string {
		data, _ := os.ReadFile(members[1].logPath)
		return tailLines(string(data), 5)
	})
}

func tailLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// Multi-tenant hybrid + pipelined groups: 2 processes host a hybrid
// group (fused 2-member rosters per host), a depth-4 pipelined ring and
// a plain ring over one shared connection, exercising the hosts=/depth=
// groups-file options end to end with 1% injected corruption.
func TestLoopbackGroupsHybridDepth(t *testing.T) {
	const (
		procs      = 2
		groupQuota = 50
	)
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)
	peers := reservePeers(t, procs)

	roster := "# hybrid + pipelined tenants\n" +
		"hy hybrid 3 hosts=0,1|2,3\n" +
		"deep ring 4 depth=4\n" +
		"plain\n"
	extra := []string{"-groups", writeRoster(t, dir, "groups.conf", roster), "-resend", "1ms"}

	members := make([]*member, procs)
	for id := 0; id < procs; id++ {
		members[id] = start(t, bin, peers, id, groupQuota, dir, false, extra...)
	}
	stopOnCleanup(t, members)
	for _, m := range members {
		waitHealthy(t, m, time.Minute)
	}

	for _, m := range members {
		waitLogged(t, m, "ALL-GROUPS DONE 3", 2*time.Minute)
	}

	// The hybrid group's log lines carry per-member labels; the scrape
	// carries the hybrid topology gauge and per-group counters.
	for id, want := range [][]string{{"[hy m0] pass ", "[hy m1] pass "}, {"[hy m2] pass ", "[hy m3] pass "}} {
		for _, label := range want {
			if !logged(members[id], label) {
				t.Errorf("member %d log missing %q lines", id, label)
			}
		}
	}
	for _, m := range members {
		body, err := scrapeBody(m, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, series := range []string{
			`barrier_topology{topology="hybrid",group="hy"}`,
			`barrier_passes_total{group="hy"}`,
			`barrier_passes_total{group="deep"}`,
			`barrier_passes_total{group="plain"}`,
		} {
			if !strings.Contains(body, series) {
				t.Errorf("member %d scrape missing %s\n%s", m.id, series, tailLines(body, 30))
			}
		}
	}

	// Graceful shutdown, spec-clean everywhere.
	shutdownClean(t, members)
}

// A fail-safe halt of one tenant group must flip the aggregate /healthz
// to 503 while the process stays up and its other groups keep passing.
// The haltafter= roster option injects the halt deterministically; the
// daemon used to exit on the first ErrHalted, so the aggregate probe
// could only ever observe whole-process death, never a single halted
// group.
func TestLoopbackGroupHaltHealthz(t *testing.T) {
	const (
		procs      = 2
		groupQuota = 40
		haltAfter  = 5
	)
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)
	peers := reservePeers(t, procs)

	// Only process 0 injects the halt: a halted member goes silent, so its
	// peer's copy of the group stalls in reset-redo and would never reach
	// its own haltafter count. haltafter= is daemon-local (not part of
	// the group fingerprint), so the rosters still match on the wire.
	// Each process is started once the one before it is healthy: the
	// groups cannot pass before process 1 is up, so process 0's 200 is
	// observed before its doomed group can halt.
	members := make([]*member, procs)
	stopOnCleanup(t, members)
	for id := 0; id < procs; id++ {
		roster := "live ring 3\ndoomed ring 3"
		if id == 0 {
			roster += fmt.Sprintf(" haltafter=%d", haltAfter)
		}
		roster += "\n"
		groupsFile := writeRoster(t, dir, fmt.Sprintf("groups.%d.conf", id), roster)
		members[id] = start(t, bin, peers, id, groupQuota, dir, false, "-groups", groupsFile, "-resend", "1ms")
		waitHealthy(t, members[id], time.Minute)
	}

	// The doomed group halts itself on process 0 after a few passes; the
	// process must park that group's loop, log the halt, and turn its
	// aggregate /healthz unhealthy — without exiting.
	// Process 1 hosts no halted member — only a stalled peer — so its own
	// aggregate probe must stay healthy.
	requireHaltedAndPeerHealthy(t, members[0], "doomed", members[1])

	// The sibling group is untouched by the halt: it must still reach its
	// quota on every process.
	for _, m := range members {
		waitLogged(t, m, fmt.Sprintf("[live] DONE %d", groupQuota), 2*time.Minute)
	}

	// Graceful shutdown: the parked loop must not wedge SIGTERM handling.
	shutdownClean(t, members)
}

// Startup validation: bad membership, bad group rosters — from a file or
// spelled by the flags, one parser either way — and flags that would be
// silently ignored must be rejected with a clear error before any socket
// work.
func TestStartupValidation(t *testing.T) {
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)

	badRoster := writeRoster(t, dir, "bad.conf", "a ring 4\na ring 4\n")
	badPhases := writeRoster(t, dir, "phases.conf", "a ring one\n")
	badDepth := writeRoster(t, dir, "depth.conf", "a ring depth=0\n")
	badHosts := writeRoster(t, dir, "hosts.conf", "a hybrid hosts=0,x|1\n")
	ringHosts := writeRoster(t, dir, "ringhosts.conf", "a ring hosts=0|1\n")

	okRoster := writeRoster(t, dir, "ok.conf", "a ring 4\n")

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"duplicate peers", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7001"}, "duplicates"},
		{"empty peer", []string{"-id", "0", "-peers", "127.0.0.1:7001,,127.0.0.1:7002"}, "empty"},
		{"id out of range", []string{"-id", "2", "-peers", "127.0.0.1:7001,127.0.0.1:7002"}, "out of range"},
		{"negative id", []string{"-id", "-1", "-peers", "127.0.0.1:7001,127.0.0.1:7002"}, "out of range"},
		{"too few peers", []string{"-id", "0", "-peers", "127.0.0.1:7001"}, "at least 2"},
		{"duplicate group", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-groups", badRoster}, "duplicate group"},
		{"bad nphases", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-groups", badPhases}, "nphases"},
		{"missing groups file", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-groups", filepath.Join(dir, "nope.conf")}, "no such file"},
		{"bad group depth", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-groups", badDepth}, "depth"},
		{"bad group hosts", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-groups", badHosts}, "hosts"},
		{"hosts on ring group", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-groups", ringHosts}, "only for hybrid"},
		{"hybrid without hosts", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-topology", "hybrid"}, "needs a Hosts grouping"},
		{"hosts without hybrid", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-hosts", "0|1"}, "hybrid"},
		{"hosts/peers mismatch", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-topology", "hybrid", "-hosts", "0|1|2"}, "host"},
		{"bad hosts member", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-topology", "hybrid", "-hosts", "0,x|1"}, "member"},
		{"unknown topology", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-topology", "star"}, "unknown topology"},
		{"empty topology", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-topology", ""}, "-topology is set but empty"},
		{"empty hosts", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-topology", "hybrid", "-hosts", " "}, "-hosts is set but empty"},
		{"topology with groups", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-groups", okRoster, "-topology", "tree"}, "-topology has no effect with -groups"},
		{"hosts with groups", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-groups", okRoster, "-hosts", "0|1"}, "-hosts has no effect with -groups"},
		{"pprof without metrics", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-pprof"}, "-pprof needs -metrics"},
	}
	for _, tc := range cases {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("%s: barrierd accepted the configuration\n%s", tc.name, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, out, tc.want)
		}
	}
}
