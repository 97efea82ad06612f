package groups

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden exposition fixtures from this build")

// goldenGroups is the tenant mix of the exposition fixture: rings, a tree,
// a hybrid and a Depth-2 ring, 16 groups over 4 processes.
func goldenGroups() []Config {
	var cfgs []Config
	for i := 0; i < 13; i++ {
		cfgs = append(cfgs, Config{Name: fmt.Sprintf("g%02d", i), Seed: int64(i)})
	}
	return append(cfgs,
		Config{Name: "t13", Topology: transport.GroupTree, Seed: 13},
		Config{Name: "h14", Topology: transport.GroupHybrid, Hosts: [][]int{{0, 1}, {2}, {3}, {4, 5}}, Seed: 14},
		Config{Name: "d15", Depth: 2, Seed: 15})
}

// volatileFamilies are the metric families whose sample values depend on
// timing — resends, wire batching, latency buckets — rather than on the
// passes run. The fixture keeps their series but not their values.
var volatileFamilies = map[string]bool{
	"barrier_sends_total":                  true,
	"barrier_drops_total":                  true,
	"barrier_rejected_frames_total":        true,
	"barrier_phase_seconds_bucket":         true,
	"barrier_phase_seconds_sum":            true,
	"barrier_recovery_seconds_bucket":      true,
	"barrier_recovery_seconds_sum":         true,
	"transport_frames_total":               true,
	"transport_group_frames_total":         true,
	"transport_group_frames_dropped_total": true,
	"transport_failed_dials_total":         true,
	"transport_dials_total":                true,
	"transport_accepts_total":              true,
}

// normalize masks the sample values of the volatile families with "*".
// Structure — HELP/TYPE headers, series names, label order, series order —
// and every other value are kept byte for byte.
func normalize(text string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			sp := strings.LastIndexByte(line, ' ')
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			if volatileFamilies[name] {
				line = line[:sp] + " *\n"
			}
		}
		sb.WriteString(line)
	}
	return sb.String()
}

// structure masks every sample value: what a scrape exposes, not what it
// counted.
func structure(text string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')] + " *\n"
		}
		sb.WriteString(line)
	}
	return sb.String()
}

func scrape(t *testing.T, reg *obsv.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s: exposition differs from the fixture at line %d:\n got  %q\n want %q", name, i+1, g, w)
			}
		}
	}
}

// goldenDeployment is 4 processes hosting goldenGroups over loopback
// muxes, each process's mux and barriers on its own registry.
type goldenDeployment struct {
	set     *transport.MuxSet
	regs    []*Registry
	metrics []*obsv.Registry
}

func newGoldenDeployment(t *testing.T) *goldenDeployment {
	t.Helper()
	const n = 4
	cfgs := goldenGroups()
	specs, err := Specs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	d := &goldenDeployment{regs: make([]*Registry, n), metrics: make([]*obsv.Registry, n)}
	for j := range d.metrics {
		d.metrics[j] = obsv.NewRegistry()
	}
	d.set, err = transport.NewLoopbackMuxes(n, specs, func(c *transport.MuxConfig) { c.Registry = d.metrics[c.Self] })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.set.Close() })
	for j := range d.regs {
		if d.regs[j], err = NewWithMux(Options{Self: j, Metrics: d.metrics[j]}, cfgs, d.set.Muxes[j]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.regs[j].Close() })
	}
	return d
}

// run has every hosted member of every group pass k times.
func (d *goldenDeployment) run(t *testing.T, k int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, reg := range d.regs {
		for _, g := range reg.Groups() {
			for _, id := range g.Members() {
				wg.Add(1)
				go func(g *Group, id int) {
					defer wg.Done()
					for done := 0; done < k; {
						if _, err := g.AwaitMember(ctx, id); err != nil {
							if errors.Is(err, runtime.ErrReset) {
								continue
							}
							errs <- fmt.Errorf("%s member %d: %w", g.Name(), id, err)
							return
						}
						done++
					}
				}(g, id)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// freeze stops every process's barriers without unregistering them, so
// their counters and the muxes' stop moving and the scrape is final.
func (d *goldenDeployment) freeze() {
	for _, reg := range d.regs {
		for _, g := range reg.Groups() {
			if b := g.Barrier(); b != nil {
				b.Stop()
			}
		}
	}
}

// The Prometheus text of a 16-tenant mux process and of an unlabelled
// in-process barrier is pinned: family grouping, HELP/TYPE headers,
// series names, label order and series order, and every value that
// depends on the passes run rather than on timing.
func TestExpositionGolden(t *testing.T) {
	t.Run("groups16-mux", func(t *testing.T) {
		d := newGoldenDeployment(t)
		d.run(t, 5)
		d.freeze()
		checkGolden(t, "groups16_mux.golden", normalize(scrape(t, d.metrics[0])))
	})
	t.Run("unlabelled", func(t *testing.T) {
		reg := obsv.NewRegistry()
		b, err := runtime.New(runtime.Config{Participants: 4, Seed: 5, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Stop()
		awaitAll(t, b, 4, 10)
		b.Reset(0)
		awaitAll(t, b, 4, 5)
		b.Stop()
		checkGolden(t, "unlabelled.golden", normalize(scrape(t, reg)))
	})
}

// awaitAll has each of b's n members pass k times.
func awaitAll(t *testing.T, b *runtime.Barrier, n, k int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for done := 0; done < k; {
				if _, err := b.Await(ctx, id); err != nil {
					if errors.Is(err, runtime.ErrReset) {
						continue
					}
					errs <- err
					return
				}
				done++
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Restarting a tenant group re-registers its series in the place they had:
// after StopGroup/StartGroup the scrape lists the same series in the same
// order as a fresh start, and a second barrier claiming a taken label
// fails New and leaves the registry as it was.
func TestExpositionRestartAndCollision(t *testing.T) {
	d := newGoldenDeployment(t)
	fresh := structure(scrape(t, d.metrics[0]))
	for _, name := range []string{"g05", "t13", "d15"} {
		if !d.regs[0].StopGroup(name) {
			t.Fatalf("StopGroup(%s) found no group", name)
		}
		if strings.Contains(scrape(t, d.metrics[0]), `barrier_passes_total{group="`+name+`"}`) {
			t.Errorf("%s's series outlived StopGroup", name)
		}
		if err := d.regs[0].StartGroup(name, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := structure(scrape(t, d.metrics[0])); got != fresh {
		t.Errorf("restarted groups moved in the scrape:\n got:\n%s\nwant:\n%s", got, fresh)
	}

	// Frames already in flight when the barriers stop still count at the
	// mux, so the comparison leaves the volatile values out.
	d.freeze()
	before := normalize(scrape(t, d.metrics[0]))
	_, err := runtime.New(runtime.Config{Participants: 4, Members: []int{0}, Metrics: d.metrics[0], MetricLabel: `group="g05"`,
		Transport: runtime.NewChanTransport(4)})
	if err == nil {
		t.Fatal("a second barrier labelled group=\"g05\" on the same registry: New succeeded")
	}
	if after := normalize(scrape(t, d.metrics[0])); after != before {
		t.Errorf("a failed New changed the registry:\n before:\n%s\nafter:\n%s", before, after)
	}
}
