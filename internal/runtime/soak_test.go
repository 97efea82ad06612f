// Soak test: the runtime barrier under sustained message loss, corruption,
// detectable resets and (for TCP) periodic connection breaks, checked
// against the barrier specification. Short by default (sub-second chaos
// window); -soak extends it to minutes:
//
//	go test ./internal/runtime -race -run TestRuntimeSoak -soak
//
// Lives in package runtime_test because it drives both transports and
// internal/transport imports internal/runtime.
package runtime_test

import (
	"context"
	"errors"
	"flag"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/transport"
)

var soak = flag.Bool("soak", false, "run the long (minutes) soak; default is a short smoke")

func TestRuntimeSoak(t *testing.T) {
	chaosFor := 300 * time.Millisecond
	if *soak {
		chaosFor = 45 * time.Second
	}
	t.Run("channel", func(t *testing.T) {
		t.Parallel()
		soakOne(t, chaosFor, nil, nil)
	})
	t.Run("tcp", func(t *testing.T) {
		t.Parallel()
		tr, err := transport.NewLoopbackRing(4)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		soakOne(t, chaosFor, tr, func(i int) {
			if i%7 == 3 {
				tr.BreakLinks(i % 4) // periodic connection reset
			}
		})
	})
}

// soakOne runs one barrier under chaos for the given duration, then
// verifies stabilization (a spec-satisfying suffix with fresh barriers)
// and liveness (every participant keeps passing).
func soakOne(t *testing.T, chaosFor time.Duration, tr runtime.Transport, extraFault func(i int)) {
	const (
		n       = 4
		nPhases = 3
	)
	var (
		mu    sync.Mutex
		trace []core.Event
	)
	b, err := runtime.New(runtime.Config{
		Participants: n,
		NPhases:      nPhases,
		Transport:    tr,
		Resend:       100 * time.Microsecond,
		LossRate:     0.05,
		CorruptRate:  0.05,
		Seed:         51,
		EventSink: func(e core.Event) {
			mu.Lock()
			trace = append(trace, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var passes [n]atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := b.Await(ctx, id)
				if err == nil {
					passes[id].Add(1)
				} else if !errors.Is(err, runtime.ErrReset) {
					return
				}
			}
		}()
	}

	// Chaos loop: resets on a rotating member plus transport-specific
	// faults, layered over the configured loss and corruption, until the
	// soak window elapses.
	end := time.Now().Add(chaosFor)
	for i := 0; time.Now().Before(end); i++ {
		if i%5 == 0 {
			b.Reset(i % n)
		}
		if extraFault != nil {
			extraFault(i)
		}
		time.Sleep(time.Millisecond)
	}

	// Liveness after the chaos stops.
	var base [n]int64
	for id := range base {
		base[id] = passes[id].Load()
	}
	deadline := time.Now().Add(60 * time.Second)
	for id := 0; id < n; id++ {
		for passes[id].Load() < base[id]+5 {
			if time.Now().After(deadline) {
				runtime.StuckFatalf(t, []*runtime.Barrier{b}, "participant %d made no progress after soak chaos stopped (passes=%d)", id, passes[id].Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	wg.Wait()
	b.Stop()

	// Stabilization: the observable trace ends in a spec-satisfying suffix
	// containing fresh successful barriers.
	mu.Lock()
	defer mu.Unlock()
	start, ok := core.SuffixSatisfying(trace, n, nPhases, 3)
	if !ok {
		t.Fatalf("no stabilizing suffix in %d-event soak trace", len(trace))
	}
	var total int64
	for id := range passes {
		total += passes[id].Load()
	}
	t.Logf("soak: %d total passes, stabilized suffix %d/%d events", total, len(trace)-start, len(trace))
}
