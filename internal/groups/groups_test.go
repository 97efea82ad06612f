package groups

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/transport"
)

func TestSpecsValidation(t *testing.T) {
	if _, err := Specs(nil); err == nil {
		t.Error("empty declaration succeeded")
	}
	if _, err := Specs([]Config{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate name succeeded")
	}
	if _, err := Specs([]Config{{Name: "a", Topology: "star"}}); err == nil {
		t.Error("unknown topology succeeded")
	}
	specs, err := Specs([]Config{{Name: "a"}, {Name: "b", Topology: transport.GroupTree}})
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].ID != 0 || specs[1].ID != 1 {
		t.Errorf("ids not assigned by declaration order: %+v", specs)
	}
	if specs[0].Topology != transport.GroupRing {
		t.Errorf("default topology = %q, want ring", specs[0].Topology)
	}
}

// A two-process deployment hosting several groups over one shared mux per
// process: all groups pass concurrently, per-group labelled metrics are
// scraped, one group is torn down and rejoined without disturbing the
// rest.
func TestRegistryLifecycle(t *testing.T) {
	const n = 2
	cfgs := []Config{
		{Name: "alpha", Resend: 200 * time.Microsecond},
		{Name: "beta", Resend: 200 * time.Microsecond, CorruptRate: 0.01, Seed: 3},
		{Name: "gamma", Topology: transport.GroupTree, Resend: 200 * time.Microsecond},
	}
	specs, err := Specs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	metrics := make([]*obsv.Registry, n)
	for j := range metrics {
		metrics[j] = obsv.NewRegistry()
	}
	set, err := transport.NewLoopbackMuxes(n, specs, func(c *transport.MuxConfig) {
		c.Registry = metrics[c.Self]
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	regs := make([]*Registry, n)
	for j := 0; j < n; j++ {
		regs[j], err = NewWithMux(Options{Self: j, Metrics: metrics[j]}, cfgs, set.Muxes[j])
		if err != nil {
			t.Fatalf("process %d: %v", j, err)
		}
		defer regs[j].Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	pass := func(name string, passes int) error {
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for j := 0; j < n; j++ {
			g := regs[j].Group(name)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < passes; k++ {
					if _, err := g.Await(ctx); err != nil {
						if errors.Is(err, runtime.ErrReset) {
							k--
							continue
						}
						errs <- fmt.Errorf("%s member %d pass %d: %w", name, g.opts.Self, k, err)
						return
					}
				}
				errs <- nil
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs))
	for _, c := range cfgs {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- pass(c.Name, 5)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every group's passes show up as its own labelled series.
	var sb strings.Builder
	if err := metrics[0].WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, c := range cfgs {
		if !strings.Contains(text, `barrier_passes_total{group="`+c.Name+`"}`) {
			t.Errorf("no labelled passes series for group %s in scrape", c.Name)
		}
	}
	if !strings.Contains(text, "transport_frames_total") {
		t.Error("shared transport counters missing from scrape")
	}

	// Teardown isolation: stop beta on process 0 only; alpha still passes.
	if !regs[0].StopGroup("beta") {
		t.Fatal("StopGroup(beta) found no group")
	}
	if _, err := regs[0].Group("beta").Await(ctx); !errors.Is(err, runtime.ErrStopped) {
		t.Errorf("Await on a stopped group: %v, want ErrStopped", err)
	}
	if err := pass("alpha", 5); err != nil {
		t.Fatalf("alpha stalled after beta teardown: %v", err)
	}

	// The stopped group's labelled series are gone; the others remain.
	sb.Reset()
	if err := metrics[0].WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text = sb.String()
	for _, line := range strings.Split(text, "\n") {
		// The mux's transport_group_* series outlive the group by
		// design (torn-down groups keep counting dropped frames; they
		// unregister at mux Close) — only the group's own barrier
		// series must be gone.
		if strings.Contains(line, `{group="beta"}`) && !strings.HasPrefix(line, "transport_") {
			t.Errorf("stopped group's series still registered: %s", line)
		}
	}
	if !strings.Contains(text, `barrier_passes_total{group="alpha"}`) {
		t.Error("surviving group's series disappeared")
	}

	// Rejoin: beta restarts in the reset state and is masked back in.
	if err := regs[0].StartGroup("beta", true); err != nil {
		t.Fatal(err)
	}
	if err := pass("beta", 5); err != nil {
		t.Fatalf("beta did not recover after rejoin: %v", err)
	}
	if err := regs[0].StartGroup("nope", false); err == nil {
		t.Error("StartGroup on an unknown name succeeded")
	}
	if st := set.Muxes[0].Stats(); st.DecodeErrors != 0 {
		t.Errorf("decode errors on process 0: %d", st.DecodeErrors)
	}
}

// Lane expansion: a Depth > 1 group claims consecutive wire ids with
// ".l<k>" names; Hosts is required for hybrid and rejected elsewhere.
func TestSpecsLanesAndHybrid(t *testing.T) {
	if _, err := Specs([]Config{{Name: "a", Hosts: [][]int{{0}, {1}}}}); err == nil {
		t.Error("Hosts on a ring group succeeded")
	}
	if _, err := Specs([]Config{{Name: "a", Topology: transport.GroupHybrid}}); err == nil {
		t.Error("hybrid without Hosts succeeded")
	}
	if _, err := Specs([]Config{{Name: "a", Depth: -1}}); err == nil {
		t.Error("negative Depth succeeded")
	}
	if _, err := Specs([]Config{{Name: "a", Depth: 2}, {Name: "a.l1"}}); err == nil {
		t.Error("lane-name collision succeeded")
	}
	specs, err := Specs([]Config{
		{Name: "deep", Depth: 3},
		{Name: "hy", Topology: transport.GroupHybrid, Hosts: [][]int{{0, 1}, {2, 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"deep", "deep.l1", "deep.l2", "hy"}
	if len(specs) != len(wantNames) {
		t.Fatalf("got %d specs, want %d", len(specs), len(wantNames))
	}
	for i, want := range wantNames {
		if specs[i].Name != want || specs[i].ID != uint32(i) {
			t.Errorf("spec %d = {ID:%d Name:%q}, want {ID:%d Name:%q}",
				i, specs[i].ID, specs[i].Name, i, want)
		}
	}
	if specs[3].Topology != transport.GroupHybrid || specs[3].Hosts == nil {
		t.Errorf("hybrid spec lost its grouping: %+v", specs[3])
	}
}

// A hybrid group and a Depth-3 pipelined ring group side by side over
// the same shared connections: the hybrid group's processes each drive a
// whole host roster, the pipelined group's Await overlaps waves, and
// both keep their passes.
func TestRegistryHybridAndPipelined(t *testing.T) {
	const n = 2
	hosts := [][]int{{0, 1, 2}, {3, 4}}
	cfgs := []Config{
		{Name: "hy", Topology: transport.GroupHybrid, Hosts: hosts, Resend: 200 * time.Microsecond},
		{Name: "deep", Depth: 3, Resend: 200 * time.Microsecond},
	}
	specs, err := Specs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	set, err := transport.NewLoopbackMuxes(n, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	regs := make([]*Registry, n)
	for j := 0; j < n; j++ {
		regs[j], err = NewWithMux(Options{Self: j}, cfgs, set.Muxes[j])
		if err != nil {
			t.Fatalf("process %d: %v", j, err)
		}
		defer regs[j].Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const passes = 10
	var wg sync.WaitGroup
	errs := make(chan error, 8)

	// The hybrid group: every process drives its whole roster.
	for j := 0; j < n; j++ {
		g := regs[j].Group("hy")
		if _, err := g.Await(ctx); err == nil {
			t.Error("Await on a multi-member hybrid group succeeded; want an error directing to AwaitMember")
		}
		for _, id := range g.Members() {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < passes; k++ {
					if _, err := g.AwaitMember(ctx, id); err != nil {
						if errors.Is(err, runtime.ErrReset) {
							k--
							continue
						}
						errs <- fmt.Errorf("hy member %d pass %d: %w", id, k, err)
						return
					}
				}
			}()
		}
	}
	// The pipelined group: plain Await, the window overlaps waves below.
	for j := 0; j < n; j++ {
		g := regs[j].Group("deep")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < passes; k++ {
				if _, err := g.Await(ctx); err != nil {
					if errors.Is(err, runtime.ErrReset) {
						k--
						continue
					}
					errs <- fmt.Errorf("deep pass %d: %w", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Depth-3 lanes all moved frames over the wire.
	for id := uint32(1); id <= 3; id++ {
		sent, recv, _ := set.Muxes[0].GroupStats(id)
		if sent == 0 && recv == 0 {
			t.Errorf("wire group %d moved no frames", id)
		}
	}
}

// Group.Await adds nothing to the barrier's allocation-free pass: the
// sole member is resolved without building Members()' slice. Measured
// live — the peer process's member loops beside the measured one over the
// shared loopback connection, so the count covers the whole path a caller
// pays for (AllocsPerRun counts every goroutine's allocations).
func TestGroupAwaitDoesNotAllocate(t *testing.T) {
	const n = 2
	cfgs := []Config{
		{Name: "ring"},
		{Name: "tree", Topology: transport.GroupTree},
		{Name: "hybrid", Topology: transport.GroupHybrid, Hosts: [][]int{{0}, {1}}},
	}
	specs, err := Specs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	set, err := transport.NewLoopbackMuxes(n, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	regs := make([]*Registry, n)
	for j := range regs {
		regs[j], err = NewWithMux(Options{Self: j}, cfgs, set.Muxes[j])
		if err != nil {
			t.Fatalf("process %d: %v", j, err)
		}
		defer regs[j].Close()
	}
	for _, c := range cfgs {
		t.Run(c.Name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			peer := regs[1].Group(c.Name)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					if _, err := peer.Await(ctx); err != nil {
						return
					}
				}
			}()
			g := regs[0].Group(c.Name)
			await := func() {
				if _, err := g.Await(ctx); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 50; i++ {
				await() // connections up, buffers at their working size
			}
			if allocs := testing.AllocsPerRun(200, await); allocs != 0 {
				t.Errorf("Group.Await: %v allocs per pass, want 0", allocs)
			}
			cancel()
			<-done
		})
	}
}
