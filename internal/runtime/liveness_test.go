package runtime

import (
	"fmt"
	goruntime "runtime"
	"testing"
)

// String renders a triple for the state dump below.
func (t triple) String() string { return fmt.Sprintf("(%v %v %d)", t.sn, t.cp, t.ph) }

// StuckFatalf fails a test whose barrier stopped making progress, after
// logging what a diagnosis needs: every involved barrier's counters, all
// goroutine stacks (which scheduler is parked where, which Await is still
// outstanding), and — once the barrier is halted, so the schedulers have
// exited and their state is safe to read — every member's gate and
// protocol state per lane. Exported so the external soak test shares it.
func StuckFatalf(t testing.TB, bs []*Barrier, format string, args ...any) {
	t.Helper()
	for i, b := range bs {
		t.Logf("barrier %d of %d: %+v", i, len(bs), b.Stats())
	}
	buf := make([]byte, 1<<20)
	t.Logf("goroutines at the liveness timeout:\n%s", buf[:goruntime.Stack(buf, true)])
	for i, b := range bs {
		b.Halt()
		b.wg.Wait()
		for li, ln := range b.lanes {
			for id, g := range ln.gates {
				if g == nil {
					continue
				}
				t.Logf("barrier %d lane %d member %d: arrived=%v appWaiting=%v curTicket=%d lastDonePh=%d pendingErr=%v | tickets=%d entered=%v window=[%d,%d)",
					i, li, id, g.arrived, g.appWaiting, g.curTicket, g.lastDonePh, g.pendingErr,
					g.tickets, g.entered, b.windows[id].rcur, b.windows[id].pcur)
				if p := ln.procs[id]; p != nil {
					t.Logf("    ring own=%v | pred=%v succ sn=%v crashed=%v pending=%v", p.triple, p.from.triple, p.succ.sn, p.crashed, p.seen.held)
				}
				if tp := ln.tprocs[id]; tp != nil {
					t.Logf("    tree own=%v ack=%v parent=%v crashed=%v", tp.triple, tp.ack, tp.from.triple, tp.crashed)
					for i, k := range tp.kid {
						t.Logf("        kid %d live=%v ack=%v", tp.kids[i], k.live.triple, k.ack.triple)
					}
				}
			}
		}
	}
	t.Fatalf(format, args...)
}
