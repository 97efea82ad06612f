package main

import (
	"fmt"
	"strings"
	"sync"
)

// specOracle is the traced run's strong oracle: the barrier's own
// begin/complete/reset events (Config.EventSink) judged against the
// Section 2 specification. On a fault-free workload every event goes
// straight into one SpecChecker from the initial state — masking means no
// violation, ever. On the faults workload events are recorded and cut
// into segments at each Scramble; the first segment (resets and loss
// only) must satisfy the specification outright, every later one must
// have a suffix that does (stabilization).
//
// One oracle may serve several barriers of one group (a barrier per
// host): the sink serializes them, and lock order respects causality, so
// the merged sequence is a legal linearization of the distributed run.
type specOracle struct {
	mu         sync.Mutex
	n, nPhases int
	segmented  bool

	check  *specChecker
	recent [16]event // ring of the latest events, for the failure report
	seen   int
	fail   string

	events []uint32 // segmented mode: kind<<26 | proc<<16 | phase
	marks  []int    // event index at each scramble
	full   bool
}

// oracleEventCap bounds the recorded events of the faults workload's
// traced run (4 bytes each).
const oracleEventCap = 6 << 20

// newSpecOracle must exist before the barrier does: a barrier emits its
// first begin events from New, before any caller arrives.
func newSpecOracle(n, nPhases int, segmented bool) *specOracle {
	o := &specOracle{n: n, nPhases: nPhases, segmented: segmented}
	if segmented {
		o.events = make([]uint32, 0, oracleEventCap)
	} else {
		o.check = newSpecChecker(n, nPhases)
	}
	return o
}

func packEvent(e event) uint32 {
	return uint32(e.Kind)<<26 | uint32(e.Proc&0x3ff)<<16 | uint32(e.Phase&0xffff)
}

func unpackEvent(x uint32) event {
	return event{Kind: eventKind(x >> 26), Proc: int(x >> 16 & 0x3ff), Phase: int(x & 0xffff)}
}

// observe is the event sink.
func (o *specOracle) observe(e event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recent[o.seen%len(o.recent)] = e
	o.seen++
	if o.segmented {
		if len(o.events) < cap(o.events) {
			o.events = append(o.events, packEvent(e))
		} else {
			o.full = true
		}
		return
	}
	if o.fail != "" {
		return
	}
	o.check.Observe(e)
	if err := o.check.Violation(); err != nil {
		o.fail = fmt.Sprintf("%v; latest events: %s", err, o.recentString())
	}
}

// markScramble opens a new segment: the injector calls it just before
// the Scramble, so the scramble's damage lands in the new segment.
func (o *specOracle) markScramble() {
	o.mu.Lock()
	o.marks = append(o.marks, len(o.events))
	o.mu.Unlock()
}

func (o *specOracle) recentString() string {
	var sb strings.Builder
	n := min(o.seen, len(o.recent))
	for i := o.seen - n; i < o.seen; i++ {
		fmt.Fprintf(&sb, " %v", o.recent[i%len(o.recent)])
	}
	return sb.String()
}

// verdict closes the oracle: "" when the specification held, else what
// broke. successes is how many successful barrier instances it saw.
func (o *specOracle) verdict() (failure string, successes, segments int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.segmented {
		return o.fail, o.check.SuccessfulBarriers(), 1
	}
	cuts := append(append([]int{0}, o.marks...), len(o.events))
	if o.full {
		cuts = cuts[:len(cuts)-1] // the last segment was cut off mid-flight
	}
	seg := make([]event, 0, 1<<16)
	for i := 0; i+1 < len(cuts); i++ {
		seg = seg[:0]
		for _, x := range o.events[cuts[i]:cuts[i+1]] {
			seg = append(seg, unpackEvent(x))
		}
		if msg := checkSegment(seg, o.n, o.nPhases, i == 0); msg != "" {
			return fmt.Sprintf("segment %d (events %d..%d): %s", i, cuts[i], cuts[i+1], msg), successes, segments
		}
		segments++
	}
	return "", successes, segments
}

// checkSegment judges one stretch of events. A masked stretch (no
// scramble before it) must satisfy the specification from its first
// event; a stretch that opens with a scramble must stabilize: some suffix
// satisfies it. A stretch too short to hold two rounds of the phase
// counter is not judged — the run ended inside it.
func checkSegment(seg []event, n, nPhases int, masked bool) string {
	if masked {
		c := newSpecChecker(n, nPhases)
		for i, e := range seg {
			c.Observe(e)
			if err := c.Violation(); err != nil {
				return fmt.Sprintf("masking violated at event %d: %v; events around it:%s", i, err, around(seg, i))
			}
		}
		return ""
	}
	need := 2 * nPhases
	if len(seg) < 4*need*n {
		return ""
	}
	if !suffixSatisfying(seg, n, nPhases, need) {
		return fmt.Sprintf("no suffix of %d events satisfies the specification with %d successes; segment ends:%s",
			len(seg), need, around(seg, len(seg)-1))
	}
	return ""
}

func around(seg []event, i int) string {
	var sb strings.Builder
	for j := max(0, i-8); j <= i && j < len(seg); j++ {
		fmt.Fprintf(&sb, " %v", seg[j])
	}
	return sb.String()
}

// phaseStepOK is the always-on check every caller applies to its own
// Await returns: a successful pass advances the phase by exactly +1 mod
// nPhases (with Depth > 1 the phase is the wave index, same rule).
func phaseStepOK(prev, cur, nPhases int) bool { return cur == (prev+1)%nPhases }
