package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tokenring"
)

// haltedRing builds a fault-free ring, lets it exchange traffic, then
// freezes it so the test may drive a proc's receive path directly —
// the deterministic replay of what a wire-level forger injects.
func haltedRing(t *testing.T, n, nPhases int, seed int64) *Barrier {
	t.Helper()
	b, err := New(Config{Participants: n, NPhases: nPhases, Resend: 50 * time.Microsecond, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
	time.Sleep(2 * time.Millisecond)
	b.Halt()
	waitQuiesced(t, b)
	return b
}

// The deterministic regression for the forged-frame hole found by the
// conformance fuzzer: a single well-formed, valid-checksum frame carrying
// an in-window sequence number but a foreign phase used to be adopted by
// the follower update and could complete a barrier at the wrong phase.
// With the receive windows in place the frame is rejected, counted under
// reason="phasewindow", and held as a pending sighting; only a
// bit-identical second sighting — which a single forger by definition is
// not — may confirm it.
func TestForgedWrongPhaseFrameRejected(t *testing.T) {
	b := haltedRing(t, 3, 3, 41)
	p := b.lanes[0].procs[1]
	if !p.settled() {
		t.Fatalf("fault-free ring proc not settled: sn=%v cp=%v cpL=%v", p.sn, p.cp, p.from.cp)
	}

	snL, cpL, phL := p.from.sn, p.from.cp, p.from.ph
	lo, hi := p.from.seqWindow(&p.node)
	forged := Message{SN: hi, CP: p.from.cp, PH: (p.from.ph + 2) % b.nPhases}
	if forged.SN == p.from.sn {
		forged.SN = lo
	}
	forged.Sum = forged.Checksum()

	p.onPredState(forged)
	if p.from.sn != snL || p.from.cp != cpL || p.from.ph != phL {
		t.Fatalf("forged frame adopted: copy (%v,%v,%d) -> (%v,%v,%d)",
			snL, cpL, phL, p.from.sn, p.from.cp, p.from.ph)
	}
	st := b.Stats()
	if st.RejectedPhase != 1 {
		t.Fatalf("RejectedPhase = %d, want 1", st.RejectedPhase)
	}
	if !p.seen.held || p.seen.pending != forged {
		t.Fatal("rejected frame not held as the pending sighting")
	}

	// A genuine new frame — in-window sequence, in-window phase — is
	// adopted and clears the pending sighting, so a one-shot forgery can
	// never be confirmed by later genuine traffic.
	genuine := Message{SN: forged.SN, CP: p.from.cp, PH: p.from.ph}
	genuine.Sum = genuine.Checksum()
	p.onPredState(genuine)
	if p.from.sn != genuine.SN {
		t.Fatalf("genuine in-window frame not adopted: snL=%v want %v", p.from.sn, genuine.SN)
	}
	if p.seen.held {
		t.Fatal("pending sighting survived a genuine adoption")
	}
	if got := b.Stats(); got.RejectedPhase != 1 || got.RejectedSeq != 0 {
		t.Fatalf("genuine frame miscounted: RejectedPhase=%d RejectedSeq=%d", got.RejectedPhase, got.RejectedSeq)
	}
}

// A persistent adversary replaying the identical forgery is confirmed by
// the two-sighting rule — the documented degradation to the stabilizing
// tolerance class, no worse than the pre-defense behavior. The first
// sighting is rejected and counted; the bit-identical second is adopted.
func TestForgedFrameSecondSightingAdopted(t *testing.T) {
	b := haltedRing(t, 3, 3, 43)
	p := b.lanes[0].procs[2]
	lo, hi := p.from.seqWindow(&p.node)
	forged := Message{SN: hi, CP: p.from.cp, PH: (p.from.ph + 2) % b.nPhases}
	if forged.SN == p.from.sn {
		forged.SN = lo
	}
	forged.Sum = forged.Checksum()

	p.onPredState(forged)
	if p.from.sn == forged.SN {
		t.Fatal("first sighting adopted")
	}
	p.onPredState(forged)
	if p.from.sn != forged.SN || p.from.ph != forged.PH {
		t.Fatal("bit-identical second sighting not adopted (stabilization would livelock)")
	}
	if st := b.Stats(); st.RejectedPhase != 1 {
		t.Fatalf("RejectedPhase = %d, want exactly 1 (second sighting must not recount)", st.RejectedPhase)
	}
}

// A stale-sequence echo — a well-formed frame whose sequence number lies
// outside the receive window entirely — is rejected under
// reason="seqwindow".
func TestStaleSequenceEchoRejected(t *testing.T) {
	b := haltedRing(t, 3, 3, 44)
	p := b.lanes[0].procs[1]
	if b.l < 4 {
		t.Skipf("ring modulus %d too small to leave the follower window", b.l)
	}
	echo := Message{SN: tokenring.SN((int(p.sn) + 2) % b.l), CP: p.from.cp, PH: p.from.ph}
	echo.Sum = echo.Checksum()
	if echo.SN == p.from.sn {
		t.Fatalf("test bug: echo SN %v collides with the current copy", echo.SN)
	}
	snL := p.from.sn
	p.onPredState(echo)
	if p.from.sn != snL {
		t.Fatal("stale echo adopted")
	}
	if st := b.Stats(); st.RejectedSeq != 1 {
		t.Fatalf("RejectedSeq = %d, want 1", st.RejectedSeq)
	}
}

// A forged premature ⊤ restart marker is rejected by any settled process:
// ⊤ only means something to a process already inside the restart wave.
func TestForgedTopRejected(t *testing.T) {
	b := haltedRing(t, 3, 3, 45)
	p := b.lanes[0].procs[1]
	if !p.sn.Ordinary() {
		t.Fatalf("fault-free proc has non-ordinary sn %v", p.sn)
	}
	snR := p.succ.sn
	p.onTop()
	if p.succ.sn != snR {
		t.Fatalf("premature ⊤ adopted: snR %v -> %v", snR, p.succ.sn)
	}
	if st := b.Stats(); st.RejectedTop != 1 {
		t.Fatalf("RejectedTop = %d, want 1", st.RejectedTop)
	}
}

// The tree edges run the same defense: a wrong-phase parent announcement
// is rejected at the child, a wrong-phase acknowledgment of the parent's
// CURRENT wave is rejected at the parent, and a frame claiming a child
// this node does not have is a sender violation.
func TestTreeForgedFramesRejected(t *testing.T) {
	b, err := New(Config{Participants: 3, NPhases: 3, Topology: TopologyTree,
		Resend: 50 * time.Microsecond, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	time.Sleep(2 * time.Millisecond)
	b.Halt()
	waitQuiesced(t, b)

	tprocs := b.lanes[0].tprocs
	var root, child *treeProc
	for _, tp := range tprocs {
		if tp == nil {
			continue
		}
		if tp.parentID < 0 {
			root = tp
		} else if child == nil {
			child = tp
		}
	}
	if root == nil || child == nil || len(root.kids) == 0 {
		t.Fatal("tree shape: no root with children")
	}
	if !root.settled() || !child.settled() {
		t.Fatal("fault-free tree procs not settled")
	}

	// Wrong-phase parent announcement at a child.
	down := Message{SN: tokenring.SN((int(child.sn) + 1) % b.l), CP: child.from.cp, PH: (child.from.ph + 2) % b.nPhases}
	down.Sum = down.Checksum()
	pSN, pPH := child.from.sn, child.from.ph
	child.onDown(down)
	if child.from.sn != pSN || child.from.ph != pPH {
		t.Fatal("forged parent announcement adopted at the child")
	}
	if st := b.Stats(); st.RejectedPhase != 1 {
		t.Fatalf("RejectedPhase = %d, want 1", st.RejectedPhase)
	}

	// Wrong-phase acknowledgment of the root's current wave: the exact
	// frame shape the original forgery used to complete a barrier at a
	// foreign phase.
	i := 0
	up := UpMessage{
		Child: root.kids[i],
		SN:    root.sn, CP: root.kid[i].live.cp, PH: root.kid[i].live.ph,
		AckSN: root.sn, AckCP: core.Success, AckPH: (root.ph + 1) % b.nPhases,
	}
	up.Sum = up.Checksum()
	ackSN, ackPH := root.kid[i].ack.sn, root.kid[i].ack.ph
	root.onUp(up)
	if root.kid[i].ack.sn != ackSN || root.kid[i].ack.ph != ackPH {
		t.Fatal("forged current-wave acknowledgment adopted at the root")
	}
	if st := b.Stats(); st.RejectedPhase != 2 {
		t.Fatalf("RejectedPhase = %d, want 2", st.RejectedPhase)
	}

	// A frame from a child this node does not have.
	alien := up
	alien.Child = 99
	alien.Sum = alien.Checksum()
	root.onUp(alien)
	if st := b.Stats(); st.RejectedSender != 1 {
		t.Fatalf("RejectedSender = %d, want 1", st.RejectedSender)
	}
}

// Crash takes a member down — the ring stalls, as a barrier must when a
// participant is gone — and Restart revives it in the detectably-reset
// state, after which every member makes fresh progress.
func TestCrashRestartLive(t *testing.T) {
	const n = 3
	b, err := New(Config{Participants: n, NPhases: 3, Resend: 50 * time.Microsecond, Seed: 47})
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
				switch {
				case err == nil:
					passes[id].Add(1)
				case errors.Is(err, ErrReset):
				default:
					return
				}
			}
		}()
	}

	waitForPasses := func(extra int64) {
		t.Helper()
		var base [n]int64
		for id := range base {
			base[id] = passes[id].Load()
		}
		deadline := time.Now().Add(20 * time.Second)
		for id := 0; id < n; id++ {
			for passes[id].Load() < base[id]+extra {
				if time.Now().After(deadline) {
					t.Fatalf("member %d stalled (wanted %d more passes)", id, extra)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	waitForPasses(2)

	b.Crash(1)
	// The crash lands asynchronously; after it does, no wave can complete
	// without member 1, so progress freezes up to the waves already in
	// flight.
	time.Sleep(10 * time.Millisecond)
	frozen := passes[0].Load()
	time.Sleep(20 * time.Millisecond)
	if got := passes[0].Load(); got > frozen+1 {
		t.Errorf("ring progressed %d passes with member 1 crashed", got-frozen)
	}

	b.Restart(1)
	waitForPasses(3)

	cancel()
	wg.Wait()
	st := b.Stats()
	if st.CrashesInjected != 1 || st.RestartsInjected != 1 {
		t.Errorf("injection accounting: crashes=%d restarts=%d, want 1/1", st.CrashesInjected, st.RestartsInjected)
	}
}

// A crashed member ignores everything but Restart: resets and scrambles
// land on a process that has no state left to lose.
func TestCrashedMemberIgnoresStateFaults(t *testing.T) {
	b := haltedRing(t, 3, 3, 48)
	p := b.lanes[0].procs[1]
	p.crashed = true
	sn, cp, ph := p.sn, p.cp, p.ph
	p.onCtrl(ctrlMsg{kind: ctrlReset})
	p.onCtrl(ctrlMsg{kind: ctrlScramble, seed: 7})
	if p.sn != sn || p.cp != cp || p.ph != ph {
		t.Fatal("crashed member's state changed under reset/scramble")
	}
	m := Message{SN: p.sn, CP: p.from.cp, PH: p.from.ph}
	if m.SN == p.from.sn {
		m.SN = tokenring.SN((int(p.sn) + 1) % b.l)
	}
	m.Sum = m.Checksum()
	snL := p.from.sn
	p.onPredState(m)
	if p.from.sn != snL {
		t.Fatal("crashed member adopted a frame")
	}
	p.onCtrl(ctrlMsg{kind: ctrlRestart})
	if p.crashed {
		t.Fatal("Restart did not revive the member")
	}
	if p.sn != tokenring.Bot || p.cp != core.Error {
		t.Fatalf("restart did not reset: sn=%v cp=%v, want ⊥/error", p.sn, p.cp)
	}
}

// The live Byzantine adversary, end to end, on every topology: warmed-up
// rings reject every delivered forgery — the rejected-frames counters
// match the accepted injections exactly — and the specification stays
// clean: no barrier completes at a wrong phase. The lossy row keeps the
// schedulers pulling co-hosted registers between forgeries: a pull reads
// only what a genuine neighbour announced, so it neither adopts a forgery
// nor supplies the second sighting that would confirm one, and a genuine
// register is never outside its window — the identity stays exact.
//
// The root rows fault the root once (a Reset, or a Crash and Restart),
// let passes resume, and then have a leaf child of the root forge its
// convergecast frames. A recovered root validates again, so every one of
// them is rejected — none is reclassified as skipped. The identity is
// counted from the end of the recovery: while it stabilizes, a settled
// member may turn a genuine frame away once before its second sighting.
func TestByzRejectedExactlyLive(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock paced")
	}
	const n, forgeries = 4, 24
	tree := Config{Participants: n, NPhases: 3, Topology: TopologyTree, Seed: 49}
	hybrid := Config{Participants: n, NPhases: 3, Topology: TopologyHybrid, Seed: 49, Hosts: [][]int{{0, 1}, {2, 3}}}
	lossy := tree
	lossy.LossRate = 0.05
	reset := func(b *Barrier) { b.Reset(0) }
	restart := func(b *Barrier) { b.Crash(0); b.Restart(0) }
	rows := []struct {
		name      string
		cfg       Config
		rootFault func(*Barrier) // nil: no fault, forgeries from every member in turn
		adversary int            // with rootFault: the leaf child of the root that forges
	}{
		{name: "ring", cfg: Config{Participants: n, NPhases: 3, Seed: 49}},
		{name: "tree", cfg: tree},
		{name: "hybrid", cfg: hybrid},
		{name: "tree-lossy", cfg: lossy},
		{name: "tree-root-reset", cfg: tree, rootFault: reset, adversary: 2},
		{name: "tree-root-restart", cfg: tree, rootFault: restart, adversary: 2},
		{name: "hybrid-root-reset", cfg: hybrid, rootFault: reset, adversary: 1},
		{name: "hybrid-root-restart", cfg: hybrid, rootFault: restart, adversary: 1},
	}
	for _, row := range rows {
		cfg := row.cfg
		t.Run(row.name, func(t *testing.T) {
			var mu sync.Mutex
			checker := core.NewSpecChecker(n, 3)
			cfg.Resend = 50 * time.Microsecond
			cfg.EventSink = func(e core.Event) {
				mu.Lock()
				checker.Observe(e)
				mu.Unlock()
			}
			b, err := New(cfg)
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
						switch {
						case err == nil:
							passes[id].Add(1)
						case errors.Is(err, ErrReset):
						default:
							return
						}
					}
				}()
			}
			waitFor := func(extra int64) {
				t.Helper()
				var base [n]int64
				for id := range base {
					base[id] = passes[id].Load()
				}
				deadline := time.Now().Add(20 * time.Second)
				for id := 0; id < n; id++ {
					for passes[id].Load() < base[id]+extra {
						if time.Now().After(deadline) {
							t.Fatalf("member %d stalled", id)
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
			waitFor(2) // settle
			adversary := func(k int) int { return k % n }
			var base Stats // the counters the forgeries are measured from
			if row.rootFault != nil {
				if tp := b.lanes[0].tprocs[row.adversary]; tp.parentID != 0 || len(tp.kids) != 0 {
					t.Fatalf("member %d is not a leaf child of the root", row.adversary)
				}
				row.rootFault(b)
				waitFor(2) // the root recovered and passes resumed
				base = b.Stats()
				adversary = func(int) int { return row.adversary }
			}

			for k := 0; k < forgeries; k++ {
				b.Byz(adversary(k), int64(1000*k+7))
				time.Sleep(300 * time.Microsecond)
			}
			waitFor(3) // the adversary must not stop the barrier
			cancel()
			wg.Wait()
			b.Stop()

			st := b.Stats()
			st.ByzInjected -= base.ByzInjected
			st.DroppedInjections -= base.DroppedInjections
			st.RejectedSeq -= base.RejectedSeq
			st.RejectedPhase -= base.RejectedPhase
			st.RejectedTop -= base.RejectedTop
			st.RejectedSender -= base.RejectedSender
			if st.ByzInjected == 0 {
				t.Fatal("no Byzantine forgery was delivered; the adversary path was not exercised")
			}
			if row.rootFault != nil && (st.ByzInjected != forgeries || st.DroppedInjections != 0) {
				t.Errorf("recovered root hosted %d of %d forgeries (%d skipped or dropped), want all",
					st.ByzInjected, forgeries, st.DroppedInjections)
			}
			if cfg.LossRate > 0 && st.Pulls == 0 {
				t.Error("lossy run pulled nothing; forgeries never met a pull")
			}
			rejected := st.RejectedSeq + st.RejectedPhase + st.RejectedTop + st.RejectedSender
			if rejected != st.ByzInjected {
				t.Errorf("rejected frames = %d (seq=%d phase=%d top=%d sender=%d), accepted forgeries = %d — want exact match",
					rejected, st.RejectedSeq, st.RejectedPhase, st.RejectedTop, st.RejectedSender, st.ByzInjected)
			}
			mu.Lock()
			defer mu.Unlock()
			if err := checker.Violation(); err != nil {
				t.Errorf("spec violated under a Byzantine adversary: %v", err)
			}
		})
	}
}
