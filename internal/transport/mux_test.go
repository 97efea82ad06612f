package transport

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
)

// runGroupBarrier drives every member of one group's barrier through the
// given number of passes, tolerating ErrReset re-executions.
func runGroupBarrier(ctx context.Context, b *runtime.Barrier, n, nPhases, passes int) error {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < passes; k++ {
				ph, err := b.Await(ctx, id)
				if errors.Is(err, runtime.ErrReset) {
					k--
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("member %d pass %d: %w", id, k, err)
					return
				}
				if want := (k + 1) % nPhases; ph != want {
					errs <- fmt.Errorf("member %d pass %d: phase %d, want %d", id, k, ph, want)
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

// Many groups — rings and trees — run complete barriers concurrently over
// one shared connection per process pair, under injected corruption and a
// mid-run break of every connection.
func TestMuxMultiGroupBarriers(t *testing.T) {
	const (
		n       = 3
		nGroups = 6
		passes  = 20
		nPhases = 4
	)
	specs := make([]GroupSpec, nGroups)
	for i := range specs {
		topo := GroupRing
		if i%3 == 2 {
			topo = GroupTree
		}
		specs[i] = GroupSpec{ID: uint32(i), Name: fmt.Sprintf("g%02d", i), Topology: topo}
	}
	set, err := NewLoopbackMuxes(n, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, nGroups)
	for i, spec := range specs {
		i, spec := i, spec
		topology := runtime.TopologyRing
		if spec.Topology == GroupTree {
			topology = runtime.TopologyTree
		}
		b, err := runtime.New(runtime.Config{
			Participants: n,
			NPhases:      nPhases,
			Topology:     topology,
			Transport:    set.Group(spec.ID),
			Resend:       200 * time.Microsecond,
			CorruptRate:  0.01,
			Seed:         int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Stop()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- runGroupBarrier(ctx, b, n, nPhases, passes)
		}()
	}
	// A network blip mid-run: every shared connection of process 1 drops,
	// taking frames of every group with it. All groups must recover.
	time.Sleep(5 * time.Millisecond)
	set.Muxes[1].BreakConns()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range specs {
		sent, recv, _ := set.Muxes[0].GroupStats(spec.ID)
		if sent == 0 && recv == 0 {
			t.Errorf("group %s moved no frames through process 0", spec.Name)
		}
	}
	if st := set.Muxes[0].Stats(); st.DecodeErrors != 0 {
		t.Errorf("decode errors on process 0: %d", st.DecodeErrors)
	}
}

// Tearing one group down leaves the others untouched: the stopped group's
// frames (peers keep resending) are dropped silently, not treated as
// protocol errors, and the group can rejoin over the same connections.
func TestMuxGroupTeardownIsolation(t *testing.T) {
	const (
		n       = 2
		nPhases = 2
	)
	specs := []GroupSpec{
		{ID: 0, Name: "alpha"},
		{ID: 1, Name: "beta"},
	}
	reg := obsv.NewRegistry()
	set, err := NewLoopbackMuxes(n, specs, func(cfg *MuxConfig) {
		if cfg.Self == 0 {
			cfg.Registry = reg
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// One barrier per (group, process): the distributed deployment shape.
	newMember := func(group uint32, self int, rejoin bool) *runtime.Barrier {
		b, err := runtime.New(runtime.Config{
			Participants: n,
			NPhases:      nPhases,
			Transport:    set.Muxes[self].Group(group),
			Members:      []int{self},
			Rejoin:       rejoin,
			Resend:       200 * time.Microsecond,
			Seed:         int64(group)*10 + int64(self),
		})
		if err != nil {
			t.Fatalf("group %d member %d: %v", group, self, err)
		}
		return b
	}
	alpha := []*runtime.Barrier{newMember(0, 0, false), newMember(0, 1, false)}
	beta := []*runtime.Barrier{newMember(1, 0, false), newMember(1, 1, false)}
	defer func() {
		for _, b := range append(alpha, beta...) {
			b.Stop()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	pass := func(bs []*runtime.Barrier, passes int) error {
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for self, b := range bs {
			self, b := self, b
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < passes; k++ {
					if _, err := b.Await(ctx, self); err != nil {
						if errors.Is(err, runtime.ErrReset) {
							k--
							continue
						}
						errs <- err
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

	if err := pass(alpha, 3); err != nil {
		t.Fatalf("alpha warm-up: %v", err)
	}
	if err := pass(beta, 3); err != nil {
		t.Fatalf("beta warm-up: %v", err)
	}

	// Kill alpha's member on process 0. Its peer on process 1 keeps
	// resending alpha frames into process 0, where the closed link must
	// swallow them.
	alpha[0].Stop()

	if err := pass(beta, 10); err != nil {
		t.Fatalf("beta stalled after alpha teardown: %v", err)
	}
	if st := set.Muxes[0].Stats(); st.DecodeErrors != 0 {
		t.Errorf("frames of the stopped group were counted as decode errors: %d", st.DecodeErrors)
	}
	// The swallowed frames are correct behaviour (the peer's resends are
	// loss), but they must be counted, not silent.
	// (Beta's passes can outrun the peer's next alpha resend: wait for one.)
	var dropped int64
	for deadline := time.Now().Add(5 * time.Second); dropped == 0; time.Sleep(time.Millisecond) {
		if _, _, dropped = set.Muxes[0].GroupStats(0); dropped == 0 && time.Now().After(deadline) {
			t.Fatal("closed group discarded frames without counting them")
		}
	}
	if _, _, betaDropped := set.Muxes[0].GroupStats(1); betaDropped != 0 {
		t.Errorf("live group beta counted %d dropped frames", betaDropped)
	}
	// The peer keeps resending, so the counter may advance between reads;
	// assert the scrape carries the series at or past the snapshot.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	scraped := int64(-1)
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `transport_group_frames_dropped_total{group="alpha"} `); ok {
			if _, err := fmt.Sscan(v, &scraped); err != nil {
				t.Fatalf("unparsable dropped-frames sample %q: %v", line, err)
			}
		}
	}
	if scraped < dropped {
		t.Errorf("scraped dropped-frames %d, want >= %d\n%s", scraped, dropped, sb.String())
	}

	// Rejoin: a fresh barrier reopens the same group link in the reset
	// state; the surviving peer masks the restart and alpha passes again.
	alpha[0] = newMember(0, 0, true)
	if err := pass(alpha, 5); err != nil {
		t.Fatalf("alpha did not recover after rejoin: %v", err)
	}
}

// Constructor and view validation.
func TestMuxValidation(t *testing.T) {
	if _, err := NewLoopbackMuxes(1, []GroupSpec{{ID: 0, Name: "a"}}); err == nil {
		t.Error("NewLoopbackMuxes(1) succeeded")
	}
	if _, err := NewLoopbackMuxes(2, nil); err == nil {
		t.Error("mux with no groups succeeded")
	}
	if _, err := NewLoopbackMuxes(2, []GroupSpec{{ID: 0, Name: "a"}, {ID: 0, Name: "b"}}); err == nil {
		t.Error("duplicate group id succeeded")
	}
	if _, err := NewLoopbackMuxes(2, []GroupSpec{{ID: 0, Name: "bad name"}}); err == nil {
		t.Error("invalid group name succeeded")
	}
	if _, err := NewLoopbackMuxes(2, []GroupSpec{{ID: 0, Name: "a", Topology: "star"}}); err == nil {
		t.Error("unknown topology succeeded")
	}

	set, err := NewLoopbackMuxes(2, []GroupSpec{
		{ID: 0, Name: "ring0"},
		{ID: 1, Name: "tree0", Topology: GroupTree},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	m := set.Muxes[0]
	if _, err := m.Group(0).Open(1); err == nil {
		t.Error("opened a member this process does not host")
	}
	if _, err := m.Group(7).Open(0); err == nil {
		t.Error("opened an undeclared group")
	}
	l, err := m.Group(0).Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Group(0).Open(0); err == nil {
		t.Error("double open succeeded")
	}
	l.Close()
	if _, err := m.Group(0).Open(0); err != nil {
		t.Errorf("reopen after close failed: %v", err)
	}

	// Identical deployments spelled differently — Topology "" on one
	// process, "ring" on the other — must accept each other at hello.
	listeners, peers, err := bindLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	var links [2]runtime.Link
	for j, topology := range []string{"", GroupRing} {
		pm, err := newMux(MuxConfig{Self: j, TCPConfig: TCPConfig{Peers: peers, baseBackoff: time.Millisecond},
			Groups: []GroupSpec{{ID: 0, Name: "a", Topology: topology}}}, muxWiring{ln: listeners[j]})
		if err != nil {
			t.Fatal(err)
		}
		defer pm.Close()
		if err := pm.start(); err != nil {
			t.Fatal(err)
		}
		if links[j], err = pm.Group(0).Open(j); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if st := pm.Stats(); st.DigestRejects != 0 {
				t.Errorf("process %d rejected its peer's digest", pm.cfg.Self)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered := false; !delivered; {
		links[0].SendState(stateMsg(1))
		select {
		case <-links[1].State():
			delivered = true
		case <-time.After(2 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal(`a Topology "" process and a "ring" process never connected`)
			}
		}
	}
}

// An injected partition isolates one process completely — no pass can
// complete while it holds, because the ring token cannot circulate — and
// healing it restores progress without restarting anything: the dialers
// reconnect and retransmission masks the gap, exactly like a long
// network blip.
func TestMuxPartitionInjection(t *testing.T) {
	const (
		n       = 3
		nPhases = 3
	)
	set, err := NewLoopbackMuxes(n, []GroupSpec{{ID: 0, Name: "g00"}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	b, err := runtime.New(runtime.Config{
		Participants: n,
		NPhases:      nPhases,
		Transport:    set.Group(0),
		Resend:       200 * time.Microsecond,
		Seed:         31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Pass counts per member drift across the partition (abandoned Awaits
	// leave tickets outstanding), so drive passes without phase asserts.
	pass := func(passes int) error {
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for id := 0; id < n; id++ {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < passes; {
					_, err := b.Await(ctx, id)
					switch {
					case err == nil:
						k++
					case errors.Is(err, runtime.ErrReset):
					default:
						errs <- fmt.Errorf("member %d: %w", id, err)
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
	if err := pass(10); err != nil {
		t.Fatalf("fault-free warmup: %v", err)
	}

	// Partition process 1. No barrier pass may complete while it holds:
	// every Await must time out rather than deliver.
	set.PartitionProc(1, true)
	time.Sleep(10 * time.Millisecond) // let in-flight frames drain or die
	short, scancel := context.WithTimeout(ctx, 250*time.Millisecond)
	var wg sync.WaitGroup
	leaked := make(chan int, n)
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Await(short, id); err == nil {
				leaked <- id
			}
		}()
	}
	wg.Wait()
	scancel()
	select {
	case id := <-leaked:
		t.Fatalf("member %d passed the barrier through a partition", id)
	default:
	}

	// Heal. The same barrier (and the Awaits the timeout abandoned — their
	// tickets stay outstanding) must make progress again.
	set.PartitionProc(1, false)
	if err := pass(10); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// A hybrid group over the mux: each process fuses one host's members and
// the shared connections carry only the host tree. All members pass; a
// mid-run connection break is masked.
func TestMuxHybridGroupBarrier(t *testing.T) {
	const (
		nProcs  = 3
		passes  = 20
		nPhases = 4
	)
	hosts := [][]int{{0, 1, 2}, {3, 4}, {5}}
	const nMembers = 6
	specs := []GroupSpec{
		{ID: 0, Name: "hy0", Topology: GroupHybrid, Hosts: hosts},
		{ID: 1, Name: "ring0"}, // a ring group sharing the same connections
	}
	set, err := NewLoopbackMuxes(nProcs, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	bs := make([]*runtime.Barrier, nProcs)
	for h := range hosts {
		b, err := runtime.New(runtime.Config{
			Participants: nMembers,
			NPhases:      nPhases,
			Topology:     runtime.TopologyHybrid,
			Hosts:        hosts,
			Members:      hosts[h],
			Transport:    set.Muxes[h].Group(0),
			Resend:       200 * time.Microsecond,
			Seed:         int64(300 + h),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Stop()
		bs[h] = b
	}

	var wg sync.WaitGroup
	errs := make(chan error, nMembers)
	for h, roster := range hosts {
		for _, id := range roster {
			h, id := h, id
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < passes; k++ {
					ph, err := bs[h].Await(ctx, id)
					if errors.Is(err, runtime.ErrReset) {
						k--
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("member %d pass %d: %w", id, k, err)
						return
					}
					if want := (k + 1) % nPhases; ph != want {
						errs <- fmt.Errorf("member %d pass %d: phase %d, want %d", id, k, ph, want)
						return
					}
				}
				errs <- nil
			}()
		}
	}
	// A network blip mid-run.
	time.Sleep(5 * time.Millisecond)
	set.Muxes[1].BreakConns()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	sent, recv, _ := set.Muxes[0].GroupStats(0)
	if sent == 0 && recv == 0 {
		t.Error("hybrid group moved no frames through process 0")
	}
}

// Hybrid group spec validation.
func TestMuxHybridValidation(t *testing.T) {
	if _, err := NewLoopbackMuxes(2, []GroupSpec{
		{ID: 0, Name: "a", Hosts: [][]int{{0}, {1}}}}); err == nil {
		t.Error("Hosts on a ring group succeeded")
	}
	if _, err := NewLoopbackMuxes(2, []GroupSpec{
		{ID: 0, Name: "a", Topology: GroupHybrid}}); err == nil {
		t.Error("hybrid group without Hosts succeeded")
	}
	if _, err := NewLoopbackMuxes(3, []GroupSpec{
		{ID: 0, Name: "a", Topology: GroupHybrid, Hosts: [][]int{{0, 1}, {2, 3}}}}); err == nil {
		t.Error("hybrid group with fewer hosts than processes succeeded")
	}
}

// A frame that reaches a process before it opens the group is the
// neighbour's current register, not loss: the link the first Open returns
// yields it at once, with no resend. A peer routinely connects, and
// announces, before this process has opened all of its groups. One row per
// inbound frame kind, each into its own mailbox.
func TestMuxFrameBeforeOpenIsKept(t *testing.T) {
	m := runtime.Message{SN: 3, CP: 1, PH: 1}
	m.Sum = m.Checksum()
	u := runtime.UpMessage{Child: 1, SN: 3, CP: 1, PH: 1, AckSN: 2, AckCP: 2, AckPH: 1}
	u.Sum = u.Checksum()
	open := func(t *testing.T, set *MuxSet, j int) runtime.Link {
		l, err := set.Muxes[j].Group(0).Open(j)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}

	// Two processes: each is the other's ring neighbour both ways, and in
	// the tree process 0 is the root, process 1 its child.
	for _, row := range []struct {
		name     string
		topology string
		to       int                             // the receiving process
		send     func(t *testing.T, set *MuxSet) // sends once: nothing in this test resends it
		receive  func(t *testing.T, set *MuxSet) // opens the receiver's link and checks what it yields at once
	}{
		{"ring state", GroupRing, 1,
			func(t *testing.T, set *MuxSet) { open(t, set, 0).SendState(m) },
			func(t *testing.T, set *MuxSet) { yieldsAtOnce(t, open(t, set, 1).State(), m) }},
		{"ring top", GroupRing, 1,
			func(t *testing.T, set *MuxSet) { open(t, set, 0).SendTop() },
			func(t *testing.T, set *MuxSet) { yieldsAtOnce(t, open(t, set, 1).Top(), struct{}{}) }},
		{"tree down", GroupTree, 1,
			func(t *testing.T, set *MuxSet) { open(t, set, 0).SendDown(1, m) },
			func(t *testing.T, set *MuxSet) { yieldsAtOnce(t, open(t, set, 1).State(), m) }},
		{"tree up", GroupTree, 0,
			func(t *testing.T, set *MuxSet) { open(t, set, 1).SendUp(u) },
			func(t *testing.T, set *MuxSet) { yieldsAtOnce(t, open(t, set, 0).Up(), u) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			set, err := NewLoopbackMuxes(2, []GroupSpec{{ID: 0, Name: "alpha", Topology: row.topology}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { set.Close() })
			row.send(t, set)
			deadline := time.Now().Add(10 * time.Second)
			for {
				if _, _, dropped := set.Muxes[row.to].GroupStats(0); dropped == 1 {
					break // arrived with no link open, and counted
				}
				if time.Now().After(deadline) {
					t.Fatalf("the frame never reached process %d's mux", row.to)
				}
				time.Sleep(time.Millisecond)
			}
			row.receive(t, set)
		})
	}
}

// yieldsAtOnce checks that ch holds want, without waiting.
func yieldsAtOnce[M comparable](t *testing.T, ch <-chan M, want M) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Errorf("opened link yields %+v, want %+v", got, want)
		}
	default:
		t.Fatal("the frame that arrived before Open was discarded")
	}
}

// A reader's flush never waits on a socket. The far end of a connection
// stops reading; rounds of posts, each ended the way a reader ends a read
// batch (Mux.endBatch), fill the socket until a flush hands a remainder to
// the writer, and every round after that still returns at once. Once the
// far end reads again, every frame decodes, and each group's frames arrive
// in the order they were posted, its last one included.
func TestMuxFlushNeverBlocks(t *testing.T) {
	const nGroups = 64
	listeners, peers, err := bindLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer listeners[1].Close()
	specs := make([]GroupSpec, nGroups)
	for i := range specs {
		specs[i] = GroupSpec{ID: uint32(i)}
	}
	m, err := newMux(MuxConfig{Groups: specs, TCPConfig: TCPConfig{Peers: peers}}, muxWiring{ln: listeners[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	far, err := listeners[1].Accept() // the lower index dials
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	p := m.peers[1]
	writing := func() bool { p.wmu.Lock(); defer p.wmu.Unlock(); return p.raw != nil }
	for deadline := time.Now().Add(10 * time.Second); !writing(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the connection's writer never started")
		}
	}

	seq := 0
	round := func() { // one read batch: every group posts its next state
		seq++
		m.reading.Add(1)
		for _, g := range m.order {
			g.stateSlot.postState(runtime.Message{PH: seq})
		}
		m.endBatch()
	}
	// handed reports whether the writer owes the socket something: a flush
	// left a remainder, or the writer holds the lock to write it. Once the
	// socket is full that holds after every round; a streak of 50 tells it
	// from a writer caught in an ordinary write.
	handed := func() bool {
		if !p.wmu.TryLock() {
			return true
		}
		defer p.wmu.Unlock()
		return p.off < len(p.out)
	}
	filled := make(chan error, 1)
	go func() {
		for streak := 0; streak < 50; {
			if seq == 1<<20 {
				filled <- errors.New("the socket never filled")
				return
			}
			if round(); handed() {
				streak++
			} else {
				streak = 0
			}
		}
		start := time.Now()
		for i := 0; i < 100; i++ {
			round()
		}
		if d := time.Since(start); d > 5*time.Second {
			filled <- fmt.Errorf("100 flushes against a full socket took %v", d)
			return
		}
		filled <- nil
	}()
	select {
	case err := <-filled:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("a flush blocked on the full socket (round %d)", seq)
	}

	t.Logf("socket full after %d rounds", seq-150)
	far.SetReadDeadline(time.Now().Add(30 * time.Second))
	fr := NewFrameReader(far, 4096)
	last := make([]int, nGroups)
	for done := 0; done < nGroups; {
		typ, payload, err := fr.Read()
		if err != nil {
			t.Fatalf("after %d groups complete: %v", done, err)
		}
		if typ == FrameHello {
			continue
		}
		id, msg, err := DecodeState(payload)
		if err != nil {
			t.Fatal(err)
		}
		if msg.PH <= last[id] {
			t.Fatalf("group %d: frame %d arrived after frame %d", id, msg.PH, last[id])
		}
		if last[id] = msg.PH; msg.PH == seq {
			done++
		}
	}
	if st := m.Stats(); st.DecodeErrors != 0 || st.ConnDrops != 0 {
		t.Errorf("decode errors %d, connection drops %d", st.DecodeErrors, st.ConnDrops)
	}
}
