package runtime

// Tests for the two-level hybrid topology: members grouped by host fuse
// onto one scheduler per host, and only host-root edges carry traffic in
// the cross-host tree.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topo"
)

func TestHybridValidation(t *testing.T) {
	hosts := [][]int{{0, 1}, {2, 3}}
	if _, err := New(Config{Participants: 4, Topology: TopologyHybrid}); err == nil {
		t.Error("hybrid without Hosts should be rejected")
	}
	if _, err := New(Config{Participants: 4, Hosts: hosts}); err == nil {
		t.Error("Hosts without TopologyHybrid should be rejected")
	}
	if _, err := New(Config{Participants: 6, Topology: TopologyHybrid, Hosts: hosts}); err == nil {
		t.Error("Hosts covering fewer members than Participants should be rejected")
	}
	if _, err := New(Config{Participants: 4, Topology: TopologyHybrid,
		Hosts: [][]int{{0, 1}, {1, 2, 3}}}); err == nil {
		t.Error("duplicate member across hosts should be rejected")
	}
	// Distributed: Members must be a union of whole host rosters.
	hy, err := topo.NewHybridTree(hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewChanTreeTransport(hy.HostTree.Parent)
	if _, err := New(Config{Participants: 4, Topology: TopologyHybrid, Hosts: hosts,
		Transport: tr, Members: []int{0, 1, 2}}); err == nil {
		t.Error("Members spanning part of a host should be rejected")
	}
	if _, err := New(Config{Participants: 4, Topology: TopologyHybrid, Hosts: hosts,
		Transport: tr, Members: []int{2}}); err == nil {
		t.Error("Members = a partial host roster should be rejected")
	}
	b, err := New(Config{Participants: 4, Topology: TopologyHybrid, Hosts: hosts,
		Transport: tr, Members: []int{3, 2, 1, 0}})
	if err != nil {
		t.Errorf("Members = a union of whole hosts was rejected: %v", err)
	} else {
		b.Stop()
	}
}

// A process may run several whole hosts over a host-tree transport, one
// scheduler per host: every host in one Barrier (Members nil), and two
// hosts of three beside a Barrier for the third. Either way every member
// passes every barrier with the host roots speaking over the links.
func TestHybridHostUnion(t *testing.T) {
	hosts := [][]int{{0, 1}, {2, 3}, {4, 5}}
	const n, rounds = 6, 40
	hy, err := topo.NewHybridTree(hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []struct {
		name   string
		groups [][]int // the members of each Barrier
		scheds []int   // the schedulers each Barrier runs, one per host
	}{
		{"one-barrier", [][]int{{0, 1, 2, 3, 4, 5}}, []int{3}},
		{"two-hosts-and-one", [][]int{{0, 1, 2, 3}, {4, 5}}, []int{2, 1}},
	} {
		t.Run(split.name, func(t *testing.T) {
			tr := NewChanTreeTransport(hy.HostTree.Parent)
			bs := make([]*Barrier, len(split.groups))
			for i, ms := range split.groups {
				if len(split.groups) == 1 {
					ms = nil // every member
				}
				b, err := New(Config{Participants: n, Topology: TopologyHybrid, Hosts: hosts,
					Transport: tr, Members: ms, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				defer b.Stop()
				if got := len(b.lanes[0].scheds); got != split.scheds[i] {
					t.Errorf("Barrier %d runs %d schedulers, want %d", i, got, split.scheds[i])
				}
				bs[i] = b
			}
			runHybridWorkers(t, bs, split.groups, n, rounds)
			var total int64
			for _, b := range bs {
				total += b.Stats().Passes
			}
			if total != int64(n*rounds) {
				t.Errorf("total passes = %d, want %d", total, n*rounds)
			}
		})
	}
}

// The deployment shape at Depth 2: one Barrier per host, all built at
// once over one host-tree transport. Each opens its host's node in every
// lane (lane-major ids), whichever Barrier makes a lane's links first,
// and every member passes every barrier.
func TestHybridHostsShareLanes(t *testing.T) {
	hosts := [][]int{{0, 1}, {2, 3}, {4, 5}}
	const n, rounds = 6, 40
	hy, err := topo.NewHybridTree(hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewChanTreeTransport(hy.HostTree.Parent)
	bs := make([]*Barrier, len(hosts))
	errs := make([]error, len(hosts))
	var wg sync.WaitGroup
	for h, ms := range hosts {
		h, ms := h, ms
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs[h], errs[h] = New(Config{Participants: n, Topology: TopologyHybrid, Hosts: hosts,
				Depth: 2, Transport: tr, Members: ms, Seed: 5})
		}()
	}
	wg.Wait()
	for _, b := range bs {
		if b != nil {
			defer b.Stop()
		}
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	runHybridWorkers(t, bs, hosts, n, rounds)
	var total int64
	for _, b := range bs {
		total += b.Stats().Passes
	}
	// The window's tail (waves entered by the final Awaits, never reaped)
	// may add one more pass per member.
	if total < int64(n*rounds) || total > int64(n*(rounds+1)) {
		t.Errorf("total passes = %d, want in [%d, %d]", total, n*rounds, n*(rounds+1))
	}
}

// All hosts local (no transport): the hybrid member tree runs fully
// fused and behaves like any barrier.
func TestHybridFusedFaultFree(t *testing.T) {
	const n, rounds = 8, 40
	col := newCollector(n, 8)
	b, err := New(Config{
		Participants: n,
		Topology:     TopologyHybrid,
		Hosts:        [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}},
		EventSink:    col.sink,
		Seed:         21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	passes := runWorkers(t, b, rounds, nil)
	for id, c := range passes {
		if c != rounds {
			t.Errorf("worker %d passed %d barriers, want %d", id, c, rounds)
		}
	}
	if err := col.violation(); err != nil {
		t.Fatal(err)
	}
	if col.successes() < rounds {
		t.Errorf("checker saw %d successful barriers, want ≥ %d", col.successes(), rounds)
	}
}

// hybridCluster builds one Barrier per host over a shared host-tree
// transport — the distributed deployment shape, in-process.
func hybridCluster(t *testing.T, hosts [][]int, cfg Config) []*Barrier {
	t.Helper()
	hy, err := topo.NewHybridTree(hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewChanTreeTransport(hy.HostTree.Parent)
	bs := make([]*Barrier, len(hosts))
	for h := range hosts {
		c := cfg
		c.Topology = TopologyHybrid
		c.Hosts = hosts
		c.Transport = tr
		c.Members = hosts[h]
		b, err := New(c)
		if err != nil {
			for _, prev := range bs[:h] {
				prev.Stop()
			}
			t.Fatal(err)
		}
		bs[h] = b
	}
	return bs
}

// hostOfMember finds the barrier hosting a member.
func hostOfMember(hosts [][]int, id int) int {
	for h, roster := range hosts {
		for _, j := range roster {
			if j == id {
				return h
			}
		}
	}
	return -1
}

// Distributed hybrid over a shared host-tree transport: every member
// passes every barrier, and cross-host messages flow only on host-root
// edges (there are no other links).
func TestHybridDistributedFaultFree(t *testing.T) {
	hosts := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7}}
	const n, rounds = 8, 40
	bs := hybridCluster(t, hosts, Config{Participants: n, Seed: 7})
	defer func() {
		for _, b := range bs {
			b.Stop()
		}
	}()
	runHybridWorkers(t, bs, hosts, n, rounds)
	var total int64
	for _, b := range bs {
		total += b.Stats().Passes
	}
	if total != int64(n*rounds) {
		t.Errorf("total passes = %d, want %d", total, n*rounds)
	}
}

// runHybridWorkers drives all members of a hybrid cluster through
// `rounds` passes, redoing on ErrReset.
func runHybridWorkers(t *testing.T, bs []*Barrier, hosts [][]int, n, rounds int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for id := 0; id < n; id++ {
		id := id
		b := bs[hostOfMember(hosts, id)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; {
				_, err := b.Await(ctx, id)
				switch {
				case err == nil:
					r++
				case errors.Is(err, ErrReset):
					// redo the phase
				default:
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// Detectable faults at a host root — the member whose edges cross the
// network — are masked like any other reset: after the faults stop,
// every member keeps passing. Workers are free-running (a reset racing
// a completion may leave the victim one delivered pass behind its
// peers permanently — legal masking — so fixed-round loops would wedge
// when the peers finish first).
func TestHybridDistributedResetMasked(t *testing.T) {
	hosts := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	const n = 8
	bs := hybridCluster(t, hosts, Config{Participants: n, Seed: 9})
	defer func() {
		for _, b := range bs {
			b.Stop()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var passes [n]atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		b := bs[hostOfMember(hosts, id)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := b.Await(ctx, id)
				if err == nil {
					passes[id].Add(1)
				} else if !errors.Is(err, ErrReset) {
					return
				}
			}
		}()
	}

	// A bounded burst of resets at host 1's root (member 2) — the member
	// whose edges cross the network — and a leaf (member 5).
	for i := 0; i < 40; i++ {
		time.Sleep(200 * time.Microsecond)
		bs[1].Reset(2)
		bs[2].Reset(5)
	}

	// Liveness: every member gains 5 fresh passes after the faults stop.
	var base [n]int64
	for id := range base {
		base[id] = passes[id].Load()
	}
	deadline := time.Now().Add(30 * time.Second)
	for id := 0; id < n; id++ {
		for passes[id].Load() < base[id]+5 {
			if time.Now().After(deadline) {
				StuckFatalf(t, bs, "member %d made no progress after resets stopped", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	wg.Wait()
	if got := bs[1].Stats().ResetsInjected; got == 0 {
		t.Error("no resets were accepted at the host root")
	}
}

// remapUpChild translates Child at the host-tree edge without changing a
// frame's integrity status: a genuine frame still verifies, a corrupted
// one still fails its checksum (the laundering guard), and a frame whose
// Child is already right comes back bit-identical.
func TestRemapUpChild(t *testing.T) {
	genuine := upMessage(3, triple{sn: 2, cp: core.Execute, ph: 1}, triple{sn: 2, cp: core.Ready, ph: 1})
	corrupted := genuine
	corrupted.Sum ^= 0xdeadbeef
	for _, tc := range []struct {
		name  string
		in    UpMessage
		child int
	}{
		{"genuine/already-right", genuine, 3},
		{"genuine/rewritten", genuine, 1},
		{"corrupted/already-right", corrupted, 3},
		{"corrupted/rewritten", corrupted, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := remapUpChild(tc.in, tc.child)
			if got.Child != tc.child {
				t.Errorf("Child = %d, want %d", got.Child, tc.child)
			}
			valid := tc.in.Sum == tc.in.Checksum()
			if ok := got.Sum == got.Checksum(); ok != valid {
				t.Errorf("checksum verifies = %v, want %v", ok, valid)
			}
			if tc.in.Child == tc.child && got != tc.in {
				t.Errorf("already-right frame changed: %+v -> %+v", tc.in, got)
			}
		})
	}
}
