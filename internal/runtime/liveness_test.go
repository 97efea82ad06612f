package runtime

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"time"
)

// String renders a triple for the state dump below.
func (t triple) String() string { return fmt.Sprintf("(%v %v %d)", t.sn, t.cp, t.ph) }

// StuckFatalf fails a test whose barrier stopped making progress, after
// logging what a diagnosis needs: every involved barrier's counters, all
// goroutine stacks (which scheduler is parked where, which Await is still
// outstanding), and — once the barrier is halted and quiesced, so no turn
// is running on a participant, a mux reader or the sweeper and the state
// is safe to read — every member's gate and protocol state per lane.
// Exported so the external soak test shares it.
func StuckFatalf(t testing.TB, bs []*Barrier, format string, args ...any) {
	t.Helper()
	for i, b := range bs {
		t.Logf("barrier %d of %d: %+v", i, len(bs), b.Stats())
	}
	buf := make([]byte, 1<<20)
	t.Logf("goroutines at the liveness timeout:\n%s", buf[:goruntime.Stack(buf, true)])
	for i, b := range bs {
		b.Halt()
		if !quiesced(b, 5*time.Second) {
			t.Logf("barrier %d: a turn still runs 5s after Halt; its state is not dumped", i)
			continue
		}
		for li, ln := range b.lanes {
			for id, g := range ln.gates {
				if g == nil {
					continue
				}
				t.Logf("barrier %d lane %d member %d: arrived=%v appWaiting=%v curTicket=%d lastDonePh=%d pendingErr=%v | tickets=%d entered=%v window=[%d,%d)",
					i, li, id, g.arrived, g.appWaiting, g.curTicket, g.lastDonePh, g.pendingErr,
					g.tickets, g.entered, b.windows[id].rcur, b.windows[id].pcur)
				switch m := memberOf(ln, id).(type) {
				case *proc:
					t.Logf("    ring own=%v | pred=%v succ sn=%v crashed=%v pending=%v", m.triple, m.from.triple, m.succ.sn, m.crashed, m.seen.held)
				case *treeProc:
					t.Logf("    tree own=%v ack=%v parent=%v crashed=%v", m.triple, m.ack, m.from.triple, m.crashed)
					for i, k := range m.kid {
						t.Logf("        kid %d live=%v ack=%v", m.kids[i], k.live.triple, k.ack.triple)
					}
				}
			}
		}
	}
	t.Fatalf(format, args...)
}

// memberOf returns member id of lane ln as its scheduler holds it, nil if
// another process hosts it.
func memberOf(ln *lane, id int) member {
	if g := ln.gates[id]; g != nil {
		return g.s.members[id]
	}
	return nil
}
