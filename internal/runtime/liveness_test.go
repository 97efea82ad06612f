package runtime

import (
	goruntime "runtime"
	"testing"
)

// StuckFatalf fails a test whose barrier stopped making progress, after
// logging what a diagnosis needs: every involved barrier's counters and
// all goroutine stacks (which proc is parked where, which Await is still
// outstanding). Exported so the external soak test shares it.
func StuckFatalf(t testing.TB, bs []*Barrier, format string, args ...any) {
	t.Helper()
	for i, b := range bs {
		t.Logf("barrier %d of %d: %+v", i, len(bs), b.Stats())
	}
	buf := make([]byte, 1<<20)
	t.Logf("goroutines at the liveness timeout:\n%s", buf[:goruntime.Stack(buf, true)])
	t.Fatalf(format, args...)
}
