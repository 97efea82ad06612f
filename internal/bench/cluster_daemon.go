package bench

import (
	"context"
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
	"sync"
	"syscall"
	"time"
)

// daemonCluster spawns one real cmd/barrierd process per simulated member,
// all hosting the same multi-tenant group roster over loopback TCP — the
// deployment the smoke profile's results are meant to predict. The daemons
// are their own closed-loop clients (-passes 0 -think 1/rate), so this
// mode has no clientPool; its ClientStats stay zero and the scrape carries
// the truth. Kills are genuine SIGKILLs with -rejoin restarts; partitions
// are SIGSTOP/SIGCONT windows (the process is alive but mute — the
// paper's fail-stop detector sees exactly a partition); churn and resets
// have no external API on a running daemon and are skipped.
type daemonCluster struct {
	p      *Profile
	ctx    context.Context
	dir    string
	bin    string
	peers  string
	roster string

	mu      sync.Mutex
	procs   []*daemonProc
	killed  []bool
	gen     int
	healers map[*time.Timer]struct{}
	healWG  sync.WaitGroup
	closed  bool
}

type daemonProc struct {
	id      int
	cmd     *exec.Cmd
	logPath string
}

func newDaemonCluster(p *Profile) (cluster, error) {
	return &daemonCluster{
		p:       p,
		procs:   make([]*daemonProc, p.Procs),
		killed:  make([]bool, p.Procs),
		healers: make(map[*time.Timer]struct{}),
	}, nil
}

func (c *daemonCluster) Start(ctx context.Context) error {
	c.ctx = ctx
	dir, err := os.MkdirTemp("", "barrierbench-*")
	if err != nil {
		return err
	}
	c.dir = dir

	c.bin = c.p.BarrierdPath
	if c.bin == "" {
		c.bin = filepath.Join(dir, "barrierd")
		build := exec.Command("go", "build", "-o", c.bin, "repro/cmd/barrierd")
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("bench: building barrierd: %v\n%s", err, out)
		}
	}

	// The same tenant roster as the loopback mode, in barrierd's -groups
	// file syntax.
	var sb strings.Builder
	sb.WriteString("# barrierbench roster\n")
	for i := 0; i < c.p.Groups; i++ {
		topo := "ring"
		if i%5 == 4 {
			topo = "tree"
		}
		fmt.Fprintf(&sb, "g%03d %s %d", i, topo, c.p.NPhases)
		if c.p.Depth > 1 {
			fmt.Fprintf(&sb, " depth=%d", c.p.Depth)
		}
		sb.WriteByte('\n')
	}
	c.roster = filepath.Join(dir, "groups.conf")
	if err := os.WriteFile(c.roster, []byte(sb.String()), 0o644); err != nil {
		return err
	}

	// Reserve one loopback port per member by binding ephemeral listeners
	// and releasing them once all are bound (so no two members draw the
	// same port); the daemons then bind the same addresses. They are on
	// 127.0.0.3, which nothing else here binds: a dial to any loopback
	// address takes its ephemeral source port on 127.0.0.1, so no
	// connection made meanwhile can take a released port before its
	// daemon re-binds it (cmd/barrierd's tests reserve on 127.0.0.2).
	addrs := make([]string, c.p.Procs)
	held := make([]net.Listener, 0, len(addrs))
	for i := range addrs {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.3:0"); err != nil {
			break
		}
		held = append(held, ln)
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range held {
		ln.Close()
	}
	if err != nil {
		return err
	}
	c.peers = strings.Join(addrs, ",")

	for id := 0; id < c.p.Procs; id++ {
		if err := c.spawn(id, false); err != nil {
			return err
		}
	}
	for id := 0; id < c.p.Procs; id++ {
		if err := c.waitHealthy(id, time.Minute); err != nil {
			return err
		}
	}
	return nil
}

// spawn launches member id, writing its output to a fresh per-generation
// log file (the metrics address of a restarted process must not be
// shadowed by its predecessor's line).
func (c *daemonCluster) spawn(id int, rejoin bool) error {
	c.mu.Lock()
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	logPath := filepath.Join(c.dir, fmt.Sprintf("member%d.gen%d.log", id, gen))
	logFile, err := os.Create(logPath)
	if err != nil {
		return err
	}
	args := []string{
		"-id", strconv.Itoa(id),
		"-peers", c.peers,
		"-groups", c.roster,
		"-passes", "0",
		"-quiet",
		"-resend", c.p.Resend.String(),
		"-corrupt", strconv.FormatFloat(c.p.Corrupt, 'g', -1, 64),
		"-seed", strconv.FormatInt(c.p.Seed+int64(id), 10),
		"-think", time.Duration(float64(time.Second) / c.p.Rate).String(),
		"-metrics", "127.0.0.1:0",
	}
	if rejoin {
		args = append(args, "-rejoin")
	}
	cmd := exec.Command(c.bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return err
	}
	logFile.Close() // the child holds its own descriptor
	c.mu.Lock()
	c.procs[id] = &daemonProc{id: id, cmd: cmd, logPath: logPath}
	c.mu.Unlock()
	return nil
}

func (c *daemonCluster) proc(id int) *daemonProc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.procs[id]
}

var metricsAddrLine = regexp.MustCompile(`(?m)^metrics listening on (\S+)$`)

// metricsAddr parses the member's bound observability address from its
// log ("" until the "metrics listening on ADDR" line appears).
func (p *daemonProc) metricsAddr() string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	m := metricsAddrLine.FindSubmatch(data)
	if m == nil {
		return ""
	}
	return string(m[1])
}

var daemonClient = &http.Client{Timeout: time.Second}

func httpGet(url string) (string, int, error) {
	resp, err := daemonClient.Get(url)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	return string(body), resp.StatusCode, nil
}

// waitHealthy blocks until member id's /healthz answers 200 — the same
// deadline-based readiness probe the e2e suite uses instead of sleeps.
func (c *daemonCluster) waitHealthy(id int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if p := c.proc(id); p != nil {
			if addr := p.metricsAddr(); addr != "" {
				if _, code, err := httpGet("http://" + addr + "/healthz"); err == nil && code == http.StatusOK {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: member %d not healthy after %s (log %s)", id, timeout, c.procs[id].logPath)
		}
		select {
		case <-c.ctx.Done():
			return c.ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (c *daemonCluster) Kill(j int) error {
	p := c.proc(j)
	if p == nil {
		return skipError{"kill of an unstarted member"}
	}
	if err := p.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no goodbye
		return err
	}
	p.cmd.Wait()
	c.mu.Lock()
	c.killed[j] = true
	c.mu.Unlock()
	return nil
}

func (c *daemonCluster) Restart(j int) error {
	if err := c.spawn(j, true); err != nil {
		return err
	}
	if err := c.waitHealthy(j, time.Minute); err != nil {
		return err
	}
	c.mu.Lock()
	c.killed[j] = false
	c.mu.Unlock()
	return nil
}

// Partition pauses the process with SIGSTOP for d: its peers see silence
// — timeouts, resends, then the detector — while its own state is frozen
// intact, exactly a network partition's signature. SIGCONT heals it.
func (c *daemonCluster) Partition(j int, d time.Duration) error {
	p := c.proc(j)
	if p == nil {
		return skipError{"partition of an unstarted member"}
	}
	if err := p.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		p.cmd.Process.Signal(syscall.SIGCONT)
		return nil
	}
	c.healWG.Add(1)
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		defer c.healWG.Done()
		// Signal errors (the process was SIGKILLed and reaped mid-window)
		// are fine: a dead process needs no waking.
		p.cmd.Process.Signal(syscall.SIGCONT)
		c.mu.Lock()
		delete(c.healers, t)
		c.mu.Unlock()
	})
	c.healers[t] = struct{}{}
	c.mu.Unlock()
	return nil
}

func (c *daemonCluster) Churn(int) error {
	return skipError{"group churn (a running daemon's roster is fixed)"}
}

func (c *daemonCluster) Reset(int, int) error {
	return skipError{"member reset (no external fault API on a daemon)"}
}

func (c *daemonCluster) healAll() {
	c.mu.Lock()
	timers := make([]*time.Timer, 0, len(c.healers))
	for t := range c.healers {
		timers = append(timers, t)
	}
	c.mu.Unlock()
	for _, t := range timers {
		t.Reset(0)
	}
	c.healWG.Wait()
}

// Quiesce heals outstanding SIGSTOPs and confirms every member is serving
// and violation-free. The daemons are self-driven (-passes 0), so their
// counters never stop moving; unlike the in-binary modes the final scrape
// is a live cut — sound for the SLO checks, which read cumulative
// counters and ratios only.
func (c *daemonCluster) Quiesce(ctx context.Context) error {
	c.healAll()
	for id := 0; id < c.p.Procs; id++ {
		if err := c.waitHealthy(id, 30*time.Second); err != nil {
			return err
		}
		p := c.proc(id)
		data, err := os.ReadFile(p.logPath)
		if err == nil && strings.Contains(string(data), "VIOLATION") {
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			return fmt.Errorf("bench: member %d spec violation: %s", id, lines[len(lines)-1])
		}
	}
	return nil
}

// Scrape merges every member's /metrics page. A restarted daemon's
// counters restart from zero with it (its pre-kill passes died with the
// process), which only makes the SLO floors harder to meet — never
// easier.
func (c *daemonCluster) Scrape() (*Snapshot, error) {
	snap := NewSnapshot()
	for id := 0; id < c.p.Procs; id++ {
		p := c.proc(id)
		if p == nil {
			continue
		}
		addr := p.metricsAddr()
		if addr == "" {
			return nil, fmt.Errorf("bench: member %d never logged its metrics address", id)
		}
		var body string
		var lastErr error
		for try := 0; try < 10; try++ {
			b, code, err := httpGet("http://" + addr + "/metrics")
			if err == nil && code == http.StatusOK {
				body, lastErr = b, nil
				break
			}
			lastErr = fmt.Errorf("member %d /metrics: code %d err %v", id, code, err)
			time.Sleep(50 * time.Millisecond)
		}
		if lastErr != nil {
			return nil, lastErr
		}
		if err := snap.Merge(body); err != nil {
			return nil, fmt.Errorf("member %d: %w", id, err)
		}
	}
	return snap, nil
}

// ClientStats is zero in daemon mode: the daemons are their own
// closed-loop clients, and the scrape carries their outcomes.
func (c *daemonCluster) ClientStats() ClientStats { return ClientStats{} }

func (c *daemonCluster) Close() error {
	c.mu.Lock()
	c.closed = true
	procs := append([]*daemonProc(nil), c.procs...)
	c.mu.Unlock()
	c.healAll()
	for _, p := range procs {
		if p == nil || p.cmd.ProcessState != nil {
			continue
		}
		p.cmd.Process.Signal(syscall.SIGCONT)
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	done := make(chan struct{})
	go func() {
		for _, p := range procs {
			if p != nil {
				p.cmd.Wait()
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		for _, p := range procs {
			if p != nil && p.cmd.ProcessState == nil {
				p.cmd.Process.Kill()
			}
		}
		<-done
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
	return nil
}
