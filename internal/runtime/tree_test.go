package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// treeCfg is the base TopologyTree configuration used by the tests.
func treeCfg(n int, seed int64) Config {
	return Config{Participants: n, Topology: TopologyTree, Seed: seed}
}

func TestTreeValidation(t *testing.T) {
	if _, err := New(Config{Participants: 4, Topology: TopologyTree, TreeArity: 1}); err == nil {
		t.Error("arity 1 should be rejected")
	}
	if _, err := New(Config{Participants: 4, Topology: TopologyTree, Transport: NewChanTransport(4)}); err == nil {
		t.Error("a ring transport should be rejected for TopologyTree")
	}
	if _, err := New(Config{Participants: 2, Topology: TopologyRing, Transport: NewChanTreeTransport([]int{-1, 0})}); err == nil {
		t.Error("a tree transport should be rejected for TopologyRing")
	}
}

// A killed-and-rejoined member is masked: the survivors keep passing and
// the rejoin behaves like any detectable reset. (In-process version of the
// barrierd e2e; the member's goroutines are stopped via a separate Barrier
// instance hosting only that member over a shared transport.)
func TestTreeRejoinStateStartsDetectablyReset(t *testing.T) {
	// Rejoin=true must start every hosted member in the reset state, which
	// the tree masks: the first Await surfaces ErrReset (work voided) or
	// passes — never a wrong phase, never a hang.
	const n = 3
	cfg := treeCfg(n, 72)
	cfg.Rejoin = true
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; {
				_, err := b.Await(ctx, id)
				switch {
				case err == nil:
					k++
				case errors.Is(err, ErrReset):
					// redo
				default:
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
