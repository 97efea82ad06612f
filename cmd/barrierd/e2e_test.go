// End-to-end test of the distributed deployment: a 4-process loopback TCP
// ring of barrierd instances must complete at least 100 barrier phases
// spec-clean — with 1% injected message corruption throughout, and with
// one member SIGKILLed and restarted (-rejoin) mid-run.
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
	ringSize       = 4
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

var passLine = regexp.MustCompile(`(?m)^pass (\d+) `)

// passCount returns the highest pass number the member has logged.
func passCount(m *member) int {
	data, err := os.ReadFile(m.logPath)
	if err != nil {
		return 0
	}
	matches := passLine.FindAllStringSubmatch(string(data), -1)
	if len(matches) == 0 {
		return 0
	}
	n, _ := strconv.Atoi(matches[len(matches)-1][1])
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

// reservePeers reserves one loopback port per member by binding and
// releasing ephemeral listeners; barrierd then binds the same addresses
// itself.
func reservePeers(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return strings.Join(addrs, ",")
}

func TestLoopbackRingKillRestart(t *testing.T) {
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)
	peers := reservePeers(t, ringSize)

	members := make([]*member, ringSize)
	for id := 0; id < ringSize; id++ {
		members[id] = start(t, bin, peers, id, survivorQuota, dir, false)
	}
	t.Cleanup(func() {
		for _, m := range members {
			if m.cmd.ProcessState == nil {
				m.cmd.Process.Kill()
				m.cmd.Wait()
			}
		}
	})

	// All members up and serving before the clock starts: readiness comes
	// from /healthz, not from guessing startup latency.
	for _, m := range members {
		waitHealthy(t, m, time.Minute)
	}

	// Let the ring make real progress, then fail-stop member 2 mid-run.
	waitFor(t, "initial ring progress", time.Minute, func() bool {
		return passCount(members[0]) >= killAfterPass
	})
	victim := members[2]
	if err := victim.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no goodbye
		t.Fatal(err)
	}
	victim.cmd.Wait()
	t.Logf("killed member 2 at member-0 pass %d", passCount(members[0]))

	// A full barrier cannot complete without it; restart it into the live
	// ring in the reset state (Section 7: rejoin is masked like a
	// detectable fault). /healthz confirms the restarted process is up
	// and un-halted before the test waits on its quota.
	members[2] = start(t, bin, peers, 2, restartQuota, dir, true)
	waitHealthy(t, members[2], time.Minute)

	// Every member — survivors and the rejoined process — must reach its
	// quota of spec-clean passes.
	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("member %d DONE", m.id), 2*time.Minute, func() bool {
			if logged(m, "VIOLATION") {
				data, _ := os.ReadFile(m.logPath)
				lines := strings.Split(strings.TrimSpace(string(data)), "\n")
				t.Fatalf("member %d spec violation: %s", m.id, lines[len(lines)-1])
			}
			return logged(m, "DONE ")
		})
	}

	// With every quota met and the ring still live, the exported metrics
	// must show the run: passes counted, transport frames moved.
	for _, m := range members {
		scrapeMetrics(t, m)
	}

	// Graceful shutdown: SIGTERM each member; all must exit 0 with a clean
	// summary and no violations anywhere in their logs.
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

	// The acceptance bar: ≥100 phases completed spec-clean around the kill.
	for _, m := range members[:2] {
		if got := passCount(m); got < 100 {
			t.Errorf("member %d completed %d passes, want ≥ 100", m.id, got)
		}
	}
	t.Logf("survivor passes: m0=%d m1=%d m3=%d; rejoined m2=%d",
		passCount(members[0]), passCount(members[1]), passCount(members[3]), passCount(members[2]))
}

// The tree-topology deployment: a 7-process loopback binary-heap tree must
// complete 100+ barrier phases spec-clean with 1% injected corruption,
// with one leaf SIGKILLed mid-run and restarted with -rejoin.
func TestLoopbackTreeKillRestart(t *testing.T) {
	const (
		treeSize   = 7
		treeVictim = 5 // a leaf of the 7-member binary heap (leaves: 3,4,5,6)
	)
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)
	peers := reservePeers(t, treeSize)

	members := make([]*member, treeSize)
	for id := 0; id < treeSize; id++ {
		members[id] = start(t, bin, peers, id, survivorQuota, dir, false, "-topology", "tree")
	}
	t.Cleanup(func() {
		for _, m := range members {
			if m.cmd.ProcessState == nil {
				m.cmd.Process.Kill()
				m.cmd.Wait()
			}
		}
	})

	// All members up and serving before the clock starts: readiness comes
	// from /healthz, not from guessing startup latency.
	for _, m := range members {
		waitHealthy(t, m, time.Minute)
	}

	// Let the tree make real progress, then fail-stop a leaf mid-run.
	waitFor(t, "initial tree progress", time.Minute, func() bool {
		return passCount(members[0]) >= killAfterPass
	})
	victim := members[treeVictim]
	if err := victim.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no goodbye
		t.Fatal(err)
	}
	victim.cmd.Wait()
	t.Logf("killed member %d at root pass %d", treeVictim, passCount(members[0]))

	// The root's convergecast cannot complete without the leaf's subtree
	// acknowledgment; restart it into the live tree in the reset state,
	// probing /healthz for the restarted process's readiness.
	members[treeVictim] = start(t, bin, peers, treeVictim, restartQuota, dir, true, "-topology", "tree")
	waitHealthy(t, members[treeVictim], time.Minute)

	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("member %d DONE", m.id), 2*time.Minute, func() bool {
			if logged(m, "VIOLATION") {
				data, _ := os.ReadFile(m.logPath)
				lines := strings.Split(strings.TrimSpace(string(data)), "\n")
				t.Fatalf("member %d spec violation: %s", m.id, lines[len(lines)-1])
			}
			return logged(m, "DONE ")
		})
	}

	// The tree transport's metrics must show the run too — on the root
	// (the broadcast/convergecast hub) and the rejoined leaf alike.
	scrapeMetrics(t, members[0])
	scrapeMetrics(t, members[treeVictim])

	// Graceful shutdown: SIGTERM each member; all must exit 0 with a clean
	// summary and no violations anywhere in their logs.
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

	// The acceptance bar: ≥100 phases completed spec-clean around the kill.
	for _, m := range members {
		if m.id == treeVictim {
			continue
		}
		if got := passCount(m); got < 100 {
			t.Errorf("member %d completed %d passes, want ≥ 100", m.id, got)
		}
	}
	t.Logf("root passes: %d; rejoined leaf m%d passes: %d",
		passCount(members[0]), treeVictim, passCount(members[treeVictim]))
}

func tailLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// Multi-tenant deployment: 4 processes host 64 barrier groups (rings and
// trees) over one shared TCP connection per process pair, with 1%
// injected corruption throughout. One process is SIGKILLed mid-run and
// restarted with -rejoin; every group in every process must still reach
// its quota, and /metrics must carry per-group labelled series.
func TestLoopbackMultiGroupKillRestart(t *testing.T) {
	const (
		procs      = 4
		nGroups    = 64
		groupQuota = 25
		killAfter  = 8 // kill once member 0's g00 logged this many passes
	)
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)
	peers := reservePeers(t, procs)

	// The tenant roster: mostly rings, a handful of trees, exercising the
	// comment/default syntax of the config file.
	var sb strings.Builder
	sb.WriteString("# barrierd multi-tenant e2e roster\n\n")
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
	groupsFile := filepath.Join(dir, "groups.conf")
	if err := os.WriteFile(groupsFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	extra := []string{"-groups", groupsFile, "-resend", "1ms"}

	members := make([]*member, procs)
	for id := 0; id < procs; id++ {
		members[id] = start(t, bin, peers, id, groupQuota, dir, false, extra...)
	}
	t.Cleanup(func() {
		for _, m := range members {
			if m.cmd.ProcessState == nil {
				m.cmd.Process.Kill()
				m.cmd.Wait()
			}
		}
	})
	for _, m := range members {
		waitHealthy(t, m, time.Minute)
	}

	// Real progress on a ring group and a tree group, then fail-stop one
	// process — taking its member of all 64 groups down at once.
	g00Line := regexp.MustCompile(`(?m)^\[g00\] pass (\d+) `)
	waitFor(t, "initial multi-group progress", time.Minute, func() bool {
		data, err := os.ReadFile(members[0].logPath)
		if err != nil {
			return false
		}
		matches := g00Line.FindAllStringSubmatch(string(data), -1)
		if len(matches) == 0 {
			return false
		}
		n, _ := strconv.Atoi(matches[len(matches)-1][1])
		return n >= killAfter && strings.Contains(string(data), "[t15] pass ")
	})
	victim := members[2]
	if err := victim.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no goodbye
		t.Fatal(err)
	}
	victim.cmd.Wait()
	t.Log("killed member 2")

	// No group can pass without it; the restarted process rejoins every
	// group in the reset state over fresh shared connections.
	members[2] = start(t, bin, peers, 2, groupQuota, dir, true, extra...)
	waitHealthy(t, members[2], time.Minute)

	// Every process must bring every one of its 64 groups to quota.
	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("member %d ALL-GROUPS DONE", m.id), 3*time.Minute, func() bool {
			if logged(m, "VIOLATION") {
				data, _ := os.ReadFile(m.logPath)
				lines := strings.Split(strings.TrimSpace(string(data)), "\n")
				t.Fatalf("member %d spec violation: %s", m.id, lines[len(lines)-1])
			}
			return logged(m, fmt.Sprintf("ALL-GROUPS DONE %d", nGroups))
		})
	}

	// The scrape must carry per-group labelled series — the tenant view of
	// the paper's Section 6 counters — plus the shared transport's.
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

	// Graceful shutdown, spec-clean everywhere.
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

// The hybrid deployment: 2 processes each fuse a 2-member host roster
// onto one local scheduler and bridge the hosts over a single TCP tree
// edge. All 4 members must complete their quota spec-clean with 1%
// injected corruption, with one whole host SIGKILLed mid-run and
// restarted with -rejoin (taking both of its fused members down and back
// at once).
func TestLoopbackHybridKillRestart(t *testing.T) {
	const hybridHosts = 2
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)
	peers := reservePeers(t, hybridHosts)
	extra := []string{"-topology", "hybrid", "-hosts", "0,1|2,3"}

	members := make([]*member, hybridHosts)
	for id := 0; id < hybridHosts; id++ {
		members[id] = start(t, bin, peers, id, survivorQuota, dir, false, extra...)
	}
	t.Cleanup(func() {
		for _, m := range members {
			if m.cmd.ProcessState == nil {
				m.cmd.Process.Kill()
				m.cmd.Wait()
			}
		}
	})
	for _, m := range members {
		waitHealthy(t, m, time.Minute)
	}

	// Real progress on a fused member of the root host, then fail-stop the
	// other host — losing both of its members at once.
	m0Line := regexp.MustCompile(`(?m)^\[m0\] pass (\d+) `)
	waitFor(t, "initial hybrid progress", time.Minute, func() bool {
		data, err := os.ReadFile(members[0].logPath)
		if err != nil {
			return false
		}
		matches := m0Line.FindAllStringSubmatch(string(data), -1)
		if len(matches) == 0 {
			return false
		}
		n, _ := strconv.Atoi(matches[len(matches)-1][1])
		return n >= killAfterPass
	})
	victim := members[1]
	if err := victim.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no goodbye
		t.Fatal(err)
	}
	victim.cmd.Wait()
	t.Log("killed host 1 (members 2,3)")

	// No barrier can complete without the host's subtree contribution;
	// restart it into the live tree in the reset state.
	members[1] = start(t, bin, peers, 1, restartQuota, dir, true, extra...)
	waitHealthy(t, members[1], time.Minute)

	// Both hosts must bring both of their fused members to quota.
	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("host %d DONE", m.id), 2*time.Minute, func() bool {
			if logged(m, "VIOLATION") {
				data, _ := os.ReadFile(m.logPath)
				lines := strings.Split(strings.TrimSpace(string(data)), "\n")
				t.Fatalf("host %d spec violation: %s", m.id, lines[len(lines)-1])
			}
			return logged(m, "DONE ")
		})
	}
	for _, m := range members {
		scrapeMetrics(t, m)
	}

	// Graceful shutdown, spec-clean everywhere, every member loop counted.
	for _, m := range members {
		if err := m.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Errorf("signalling host %d: %v", m.id, err)
		}
	}
	for _, m := range members {
		if err := m.cmd.Wait(); err != nil {
			data, _ := os.ReadFile(m.logPath)
			t.Errorf("host %d exited uncleanly: %v\n%s", m.id, err, tailLines(string(data), 5))
		}
		if logged(m, "VIOLATION") {
			t.Errorf("host %d logged a spec violation", m.id)
		}
		if !logged(m, "EXIT ") {
			t.Errorf("host %d exited without a clean summary", m.id)
		}
	}
	// Both fused members of the surviving root host logged passes of their
	// own — the per-member labels keep the interleaved log attributable.
	for _, label := range []string{"[m0] pass ", "[m1] pass "} {
		if !logged(members[0], label) {
			t.Errorf("host 0 log missing %q lines", label)
		}
	}
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
	groupsFile := filepath.Join(dir, "groups.conf")
	if err := os.WriteFile(groupsFile, []byte(roster), 0o644); err != nil {
		t.Fatal(err)
	}
	extra := []string{"-groups", groupsFile, "-resend", "1ms"}

	members := make([]*member, procs)
	for id := 0; id < procs; id++ {
		members[id] = start(t, bin, peers, id, groupQuota, dir, false, extra...)
	}
	t.Cleanup(func() {
		for _, m := range members {
			if m.cmd.ProcessState == nil {
				m.cmd.Process.Kill()
				m.cmd.Wait()
			}
		}
	})
	for _, m := range members {
		waitHealthy(t, m, time.Minute)
	}

	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("member %d ALL-GROUPS DONE", m.id), 2*time.Minute, func() bool {
			if logged(m, "VIOLATION") {
				data, _ := os.ReadFile(m.logPath)
				lines := strings.Split(strings.TrimSpace(string(data)), "\n")
				t.Fatalf("member %d spec violation: %s", m.id, lines[len(lines)-1])
			}
			return logged(m, "ALL-GROUPS DONE 3")
		})
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
	}
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
	members := make([]*member, procs)
	for id := 0; id < procs; id++ {
		roster := "live ring 3\ndoomed ring 3"
		if id == 0 {
			roster += fmt.Sprintf(" haltafter=%d", haltAfter)
		}
		roster += "\n"
		groupsFile := filepath.Join(dir, fmt.Sprintf("groups.%d.conf", id))
		if err := os.WriteFile(groupsFile, []byte(roster), 0o644); err != nil {
			t.Fatal(err)
		}
		extra := []string{"-groups", groupsFile, "-resend", "1ms"}
		members[id] = start(t, bin, peers, id, groupQuota, dir, false, extra...)
	}
	t.Cleanup(func() {
		for _, m := range members {
			if m.cmd.ProcessState == nil {
				m.cmd.Process.Kill()
				m.cmd.Wait()
			}
		}
	})
	for _, m := range members {
		waitHealthy(t, m, time.Minute)
	}

	// The doomed group halts itself on process 0 after a few passes; the
	// process must park that group's loop, log the halt, and turn its
	// aggregate /healthz unhealthy — without exiting.
	var lastProbe string
	waitFor(t, "member 0 /healthz 503 after group halt", time.Minute, func() bool {
		body, code, ok := httpBody("http://" + metricsAddr(members[0]) + "/healthz")
		lastProbe = fmt.Sprintf("ok=%v code=%d body=%q", ok, code, body)
		return ok && code == http.StatusServiceUnavailable && strings.Contains(body, `"status":"halted"`)
	}, func() string { return lastProbe })
	if !logged(members[0], "HALTED group doomed") {
		t.Error("member 0 log missing the HALTED line")
	}
	// Process 1 hosts no halted member — only a stalled peer — so its own
	// aggregate probe must stay healthy.
	if body, code, ok := httpBody("http://" + metricsAddr(members[1]) + "/healthz"); !ok || code != http.StatusOK {
		t.Errorf("member 1 /healthz = code %d body %q (ok=%v), want 200", code, body, ok)
	}

	// The sibling group is untouched by the halt: it must still reach its
	// quota on every process.
	for _, m := range members {
		m := m
		waitFor(t, fmt.Sprintf("member %d live-group quota", m.id), 2*time.Minute, func() bool {
			if logged(m, "VIOLATION") {
				data, _ := os.ReadFile(m.logPath)
				lines := strings.Split(strings.TrimSpace(string(data)), "\n")
				t.Fatalf("member %d spec violation: %s", m.id, lines[len(lines)-1])
			}
			return logged(m, fmt.Sprintf("[live] DONE %d", groupQuota))
		})
	}

	// Graceful shutdown: the parked loop must not wedge SIGTERM handling.
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
	}
}

// Startup validation: bad membership or group rosters must be rejected
// with a clear error before any socket work.
func TestStartupValidation(t *testing.T) {
	dir := t.TempDir()
	bin := buildBarrierd(t, dir)

	badRoster := filepath.Join(dir, "bad.conf")
	if err := os.WriteFile(badRoster, []byte("a ring 4\na ring 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	badPhases := filepath.Join(dir, "phases.conf")
	if err := os.WriteFile(badPhases, []byte("a ring one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	badDepth := filepath.Join(dir, "depth.conf")
	if err := os.WriteFile(badDepth, []byte("a ring depth=0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	badHosts := filepath.Join(dir, "hosts.conf")
	if err := os.WriteFile(badHosts, []byte("a hybrid hosts=0,x|1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ringHosts := filepath.Join(dir, "ringhosts.conf")
	if err := os.WriteFile(ringHosts, []byte("a ring hosts=0|1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

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
		{"hybrid without hosts", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-topology", "hybrid"}, "host grouping"},
		{"hosts without hybrid", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-hosts", "0|1"}, "hybrid"},
		{"hosts/peers mismatch", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-topology", "hybrid", "-hosts", "0|1|2"}, "host"},
		{"bad hosts member", []string{"-id", "0", "-peers", "127.0.0.1:7001,127.0.0.1:7002", "-topology", "hybrid", "-hosts", "0,x|1"}, "member"},
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
