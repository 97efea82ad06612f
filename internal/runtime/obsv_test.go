package runtime

// Tests for the observability layer and the accounting/race fixes that
// ride with it: consistent Stats snapshots, cancel-safe Await/Leave, and
// race-clean concurrent fault injection.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/topo"
)

// A context canceled in the same instant a pass completes must not lose
// the pass, deliver it twice, or double-count it: the entered barrier
// stays outstanding across the cancellation and the next Await collects
// exactly the next pass. The victim participant cancels aggressively
// mid-phase; its observed phases must still advance by exactly one per
// pass, and its pass count must match the uncancelled participants'.
func TestAwaitCancelMidPhase(t *testing.T) {
	const n, rounds = 4, 150
	for _, pl := range placements(t, n, 1, 11) {
		t.Run(pl.name, func(t *testing.T) {
			b, err := New(pl.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Stop()

			ctx, cancelAll := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancelAll()
			var wg sync.WaitGroup
			errs := make(chan error, n)

			// Participants 1..n-1: Await loops, with a small stagger so the
			// victim's Leave regularly outlives its deadline mid-phase.
			for id := 1; id < n; id++ {
				id := id
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						time.Sleep(time.Duration(20+10*(r%5)) * time.Microsecond)
						if _, err := b.Await(ctx, id); err != nil {
							errs <- err
							return
						}
					}
				}()
			}

			// Participant 0: cancels mid-phase, then retries. The deadline
			// sweeps from "expires while everyone is still working" through
			// "expires in the instant the result lands" — the race window.
			wg.Add(1)
			go func() {
				defer wg.Done()
				lastPh, canceled, attempt := -1, 0, 0
				for passes := 0; passes < rounds; {
					attempt++
					timeout := time.Duration(1+attempt%120) * time.Microsecond
					cctx, cancel := context.WithTimeout(ctx, timeout)
					ph, err := b.Await(cctx, 0)
					cancel()
					switch {
					case err == nil:
						if lastPh != -1 {
							if want := (lastPh + 1) % b.NumPhases(); ph != want {
								errs <- errors.New("victim phase order violated: a pass was lost or doubled")
								return
							}
						}
						lastPh = ph
						passes++
					case errors.Is(err, context.DeadlineExceeded):
						canceled++
					default:
						errs <- err
						return
					}
				}
				if canceled == 0 {
					t.Error("no cancellation fired mid-phase; the race window was not exercised")
				}
			}()

			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			// Every delivered pass is counted exactly once: n participants
			// times `rounds` passes each, no extras from the cancellations.
			if got := b.Stats().Passes; got != int64(n*rounds) {
				t.Errorf("Stats.Passes = %d, want %d (a cancel double-counted or lost a pass)", got, n*rounds)
			}
		})
	}
}

// A canceled Enter must register nothing: the following Await must see a
// fresh, working barrier rather than waiting on a ticket whose arrival
// never happened.
func TestEnterCanceledRegistersNothing(t *testing.T) {
	b, err := New(Config{Participants: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// The ctrl buffer is deep, so a single canceled Enter usually wins the
	// send anyway; exhaust the race both ways by alternating many times.
	for i := 0; i < 10; i++ {
		b.Enter(canceled, 0) // ignore result: either outcome must be consistent
	}
	ctx, cancelAll := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelAll()
	done := make(chan error, 1)
	go func() {
		_, err := b.Await(ctx, 1)
		done <- err
	}()
	if _, err := b.Await(ctx, 0); err != nil {
		t.Fatalf("Await(0) after canceled Enters: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Await(1): %v", err)
	}
}

// Stats must never tear across its counters: under load, every snapshot
// obeys the cross-counter invariants. In the ring, one barrier round is
// one full token circulation, so protocol sends ≥ (n−1) per n delivered
// passes; drops can never exceed the messages that existed to drop.
func TestStatsSnapshotInvariants(t *testing.T) {
	const n = 4
	b, err := New(Config{Participants: n, Seed: 7, LossRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	stop := make(chan struct{})
	var snapshots atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := b.Stats()
				snapshots.Add(1)
				if int64(n)*s.Sends < s.Passes*int64(n-1) {
					t.Errorf("torn snapshot: n·Sends=%d < Passes·(n−1)=%d", int64(n)*s.Sends, s.Passes*int64(n-1))
					return
				}
				if s.Drops > s.Sends+s.Spurious {
					t.Errorf("torn snapshot: Drops=%d > Sends+Spurious=%d", s.Drops, s.Sends+s.Spurious)
					return
				}
				if s.Passes < 0 || s.Resets < 0 {
					t.Errorf("negative counter in snapshot: %+v", s)
					return
				}
			}
		}()
	}
	runWorkers(t, b, 200, nil)
	close(stop)
	wg.Wait()
	if snapshots.Load() == 0 {
		t.Fatal("no snapshots taken")
	}
}

// Concurrent fault injection, retransmission traffic, and metric scraping
// must be race-clean (run under -race in CI): injectors hammer every
// member with resets/scrambles/spurious messages while the participants
// keep passing barriers and a scraper renders the registry.
func TestConcurrentInjectHammer(t *testing.T) {
	const n = 4
	for _, pl := range placements(t, n, 1, 13) {
		t.Run(pl.name, func(t *testing.T) { injectHammer(t, n, pl.cfg) })
	}
}

func injectHammer(t *testing.T, n int, cfg Config) {
	reg := obsv.NewRegistry()
	cfg.LossRate, cfg.CorruptRate = 0.05, 0.05
	cfg.Resend = 100 * time.Microsecond
	cfg.Metrics = reg
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Injectors: one per fault class, all members, decorrelated seeds.
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := i % n
				switch w {
				case 0:
					b.Reset(id)
				case 1:
					b.Scramble(id, int64(w*1000+i))
				case 2:
					b.InjectSpurious(id, int64(w*1000+i))
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	// Scraper: exercises the exposition path concurrently with recording.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := reg.WriteText(&sb); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
			b.Stats()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Participants: pass barriers through the storm, redoing on ErrReset.
	var passWG sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		passWG.Add(1)
		go func() {
			defer passWG.Done()
			for r := 0; r < 50; {
				_, err := b.Await(ctx, id)
				switch {
				case err == nil:
					r++
				case errors.Is(err, ErrReset):
				default:
					t.Errorf("participant %d: %v", id, err)
					return
				}
			}
		}()
	}
	passWG.Wait()
	close(stop)
	wg.Wait()

	s := b.Stats()
	if s.ResetsInjected == 0 {
		t.Error("no resets were accepted; the hammer did not hammer")
	}
	if got := s.ResetsInjected + s.ScramblesInjected + s.DroppedInjections; got == 0 {
		t.Error("injection accounting empty under sustained injection")
	}
}

// The registry exports every advertised series, and the counter series
// agree with the Stats snapshot once the barrier is quiescent.
func TestBarrierMetricsExposition(t *testing.T) {
	reg := obsv.NewRegistry()
	b, err := New(Config{Participants: 2, Seed: 5, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, b, 10, nil)
	b.Reset(0) // one injected fault so the injection series move
	runWorkers(t, b, 5, nil)
	b.Stop()

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, series := range []string{
		"barrier_passes_total ",
		"barrier_resets_total ",
		"barrier_sends_total ",
		"barrier_drops_total ",
		"barrier_spurious_total ",
		"barrier_injected_resets_total 1",
		"barrier_injected_scrambles_total 0",
		"barrier_injections_dropped_total 0",
		"barrier_wasted_instances_total ",
		"barrier_pulls_total ",
		"barrier_participants 2",
		`barrier_topology{topology="ring"} 1`,
		"barrier_halted 0",
		"barrier_instances_per_pass_bucket",
		"barrier_phase_seconds_bucket",
		"barrier_recovery_seconds_count 1",
	} {
		if !strings.Contains(got, series) {
			t.Errorf("exposition missing %q", series)
		}
	}

	// Two registries may not share one barrier's names.
	if _, err := New(Config{Participants: 2, Metrics: reg}); err == nil {
		t.Error("second barrier on the same registry should fail registration")
	}
}

// WastedInstances counts exactly the re-executions: zero on a fault-free
// run, and strictly positive once an injected reset forces the current
// instance to re-execute. (The barrierbench SLO "wasted work per fault"
// is built on this counter.)
func TestWastedInstancesCounter(t *testing.T) {
	b, err := New(Config{Participants: 2, Seed: 21, Resend: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	runWorkers(t, b, 20, nil)
	if w := b.Stats().WastedInstances; w != 0 {
		t.Fatalf("fault-free run recorded %d wasted instances", w)
	}

	// A reset lands asynchronously; keep injecting between short bursts of
	// passes until a re-execution is observed.
	deadline := time.Now().Add(15 * time.Second)
	for b.Stats().WastedInstances == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no wasted instance recorded after repeated resets: %+v", b.Stats())
		}
		b.Reset(0)
		runWorkers(t, b, 3, nil)
	}
	s := b.Stats()
	if s.WastedInstances <= 0 || s.ResetsInjected == 0 {
		t.Fatalf("inconsistent accounting after faults: %+v", s)
	}
}

// Pulls counts exactly the reads a scheduler makes across its co-hosted
// edges: none in a fault-free run, some under loss — and none at all, loss
// or not, when every member has a scheduler of its own, because then no
// edge has both ends in one place. The exported series follows the
// snapshot, label and all, and leaves the registry with the others.
func TestPullsCounter(t *testing.T) {
	const n, rounds = 4, 200
	shape, err := topo.NewKAryTree(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		cfg       Config
		wantPulls bool
	}{
		{"ring/fault-free", Config{}, false},
		{"tree/fault-free", Config{Topology: TopologyTree}, false},
		{"ring/lossy", Config{LossRate: 0.05}, true},
		{"tree/lossy", Config{Topology: TopologyTree, LossRate: 0.05}, true},
		{"ring-chan/lossy", Config{LossRate: 0.05, Transport: NewChanTransport(n)}, false},
		{"tree-chan/lossy", Config{Topology: TopologyTree, LossRate: 0.05, Transport: NewChanTreeTransport(shape.Parent)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obsv.NewRegistry()
			cfg := tc.cfg
			cfg.Participants, cfg.Seed = n, 63
			cfg.Metrics, cfg.MetricLabel = reg, `group="g"`
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Stop()
			runWorkers(t, b, rounds, nil)
			b.Stop()

			st := b.Stats()
			if tc.cfg.LossRate > 0 && st.Drops == 0 {
				t.Fatalf("no frame was dropped in %d lossy passes: %+v", rounds, st)
			}
			if got := st.Pulls > 0; got != tc.wantPulls {
				t.Errorf("Pulls = %d, want > 0: %v (%+v)", st.Pulls, tc.wantPulls, st)
			}
			var sb strings.Builder
			if err := reg.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("barrier_pulls_total{group=\"g\"} %d\n", st.Pulls); !strings.Contains(sb.String(), want) {
				t.Errorf("scrape does not carry %q", strings.TrimSpace(want))
			}
			b.UnregisterMetrics()
			sb.Reset()
			if err := reg.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(sb.String(), "barrier_pulls_total") {
				t.Error("barrier_pulls_total still registered after UnregisterMetrics")
			}
		})
	}
}

// barrier_instances_per_pass counts every pass, not one in eight: the
// fault-free value is recorded every eighth pass at the weight of the
// passes it stands for, so _count trails barrier_passes_total by fewer than
// 8 per hosted member and the mean is the one Stats reports.
func TestInstancesHistogramCountsEveryPass(t *testing.T) {
	const n, rounds = 4, 203 // not a multiple of the recording period
	for _, topology := range []Topology{TopologyRing, TopologyTree} {
		b, err := New(Config{Participants: n, Topology: topology, Seed: 64})
		if err != nil {
			t.Fatal(err)
		}
		runWorkers(t, b, rounds, nil)
		b.Stop()
		passes, count := b.Stats().Passes, b.mInstances.Count()
		if passes != n*rounds {
			t.Fatalf("topology %d: %d passes delivered, want %d", topology, passes, n*rounds)
		}
		if count > passes || count <= passes-8*n {
			t.Errorf("topology %d: histogram count %d for %d passes, want within 8 per member (%d)", topology, count, passes, n)
		}
		// Every pass not yet recorded took one instance, so the histogram's
		// excess over a mean of 1 is already the exact wasted count.
		if sum, wasted := b.mInstances.Sum(), b.Stats().WastedInstances; sum != float64(count+wasted) {
			t.Errorf("topology %d: sum %v over count %d with %d wasted instances, want count + wasted", topology, sum, count, wasted)
		}
	}
}
