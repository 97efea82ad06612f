package runtime

// The executor has one degree of freedom — where members are placed — so
// the sweeps that used to enumerate topologies enumerate placements: the
// three all-local ones (one scheduler per lane hosts every member) and
// the three one-scheduler-per-link ones over explicit channel transports
// (per member for the ring and tree, per host for the hybrid, whose host
// roots speak over the links).

import (
	"testing"

	"repro/internal/topo"
)

type placement struct {
	name string
	cfg  Config
}

// placements returns one Config per placement of n members (n even) under
// a window of the given depth. Each explicit placement has one channel
// transport, which carries every lane (lane-major node ids).
func placements(t *testing.T, n, depth int, seed int64) []placement {
	t.Helper()
	shape, err := topo.NewKAryTree(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	hosts := [][]int{{}, {}}
	for id := 0; id < n; id++ {
		hosts[id*2/n] = append(hosts[id*2/n], id)
	}
	hy, err := topo.NewHybridTree(hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Participants: n, Depth: depth, Seed: seed}
	tree, hybrid, ringChan, treeChan, hybridChan := base, base, base, base, base
	tree.Topology = TopologyTree
	hybrid.Topology, hybrid.Hosts = TopologyHybrid, hosts
	ringChan.Transport = NewChanTransport(n)
	treeChan.Topology, treeChan.Transport = TopologyTree, NewChanTreeTransport(shape.Parent)
	hybridChan.Topology, hybridChan.Hosts, hybridChan.Transport = TopologyHybrid, hosts, NewChanTreeTransport(hy.HostTree.Parent)
	return []placement{
		{"ring", base}, {"tree", tree}, {"hybrid", hybrid},
		{"ring-chan", ringChan}, {"tree-chan", treeChan}, {"hybrid-chan", hybridChan},
	}
}

// The same ring Config — seed, 1% loss, a Reset at a fixed member every
// 16th pass — placed on one scheduler and on a scheduler per channel link
// must agree on everything a participant can observe: the specification
// holds, every member makes the same number of passes, a pass never
// outruns the sends that carry it, and the resets cost re-executions
// within the same drain bound (a reset voids only the waves in the
// window, [k, k+Depth), each re-executed once or twice per member).
func TestRingPlacementsAgree(t *testing.T) {
	const n, rounds, victim = 4, 128, 2
	for _, tr := range []Transport{nil, NewChanTransport(n)} {
		name := "one-scheduler"
		if tr != nil {
			name = "scheduler-per-link"
		}
		t.Run(name, func(t *testing.T) {
			col := newCollector(n, 8)
			b, err := New(Config{Participants: n, Seed: 23, LossRate: 0.01, Transport: tr, EventSink: col.sink})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Stop()
			injectedAt := -1
			passes := runWorkers(t, b, rounds, func(id, round int) {
				// A redone round calls work again: inject once per round.
				if id == victim && round%16 == 15 && round != injectedAt {
					injectedAt = round
					b.Reset(victim)
				}
			})
			b.Stop()
			if err := col.violation(); err != nil {
				t.Fatalf("specification violated: %v", err)
			}
			for id, c := range passes {
				if c != rounds {
					t.Errorf("member %d made %d passes, want %d", id, c, rounds)
				}
			}
			st := b.Stats()
			if st.Passes != int64(n*rounds) {
				t.Errorf("Stats.Passes = %d, want %d", st.Passes, n*rounds)
			}
			if st.Sends < st.Passes {
				t.Errorf("Sends = %d < Passes = %d", st.Sends, st.Passes)
			}
			if st.ResetsInjected != rounds/16 || st.DroppedInjections != 0 {
				t.Errorf("accepted %d resets and dropped %d, want %d and 0", st.ResetsInjected, st.DroppedInjections, rounds/16)
			}
			if bound := st.ResetsInjected * int64(b.Depth()) * 2 * n; st.WastedInstances > bound {
				t.Errorf("WastedInstances = %d exceeds %d resets x Depth %d x 2n", st.WastedInstances, st.ResetsInjected, b.Depth())
			}
			t.Logf("sends=%d drops=%d wasted=%d resets delivered=%d", st.Sends, st.Drops, st.WastedInstances, st.Resets)
		})
	}
}
