package conformance

import (
	"testing"
)

// fuzzEngine drives one guarded-engine target with byte-derived schedules.
// Any failing input is reported with its replay string and the shrunk
// minimal counterexample, so the failure reproduces outside the fuzzer:
//
//	go run ./cmd/conformance -replay '<schedule>'
func fuzzEngine(f *testing.F, target string) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{3, 1, 200, 200, 10, 20, 30, 0xB2, 1, 5, 40, 50})
	f.Add(int64(3), []byte{0, 2, 0xB0, 0, 0, 1, 2, 3, 0xB4, 2, 9, 7, 7, 7, 0xB3, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		s := FromBytes(target, seed, data)
		v := Run(s)
		if v.OK {
			return
		}
		m := Shrink(s, func(c Schedule) bool { return !Run(c).OK })
		t.Fatalf("%v\n  schedule: %s\n  shrunk:   %s\n  replay: go run ./cmd/conformance -replay '%s'",
			v, s.String(), m.String(), m.String())
	})
}

func FuzzCB(f *testing.F) { fuzzEngine(f, "cb") }
func FuzzRB(f *testing.F) { fuzzEngine(f, "rb") }
func FuzzTB(f *testing.F) { fuzzEngine(f, "tb") }
func FuzzDT(f *testing.F) { fuzzEngine(f, "dt") }
func FuzzMB(f *testing.F) { fuzzEngine(f, "mb") }

// fuzzLiveBarrier drives the live goroutine barrier over the given
// transport target. Its interleavings are not replayable step-for-step, so
// a failure report includes the schedule but shrinking is left to the CLI
// (re-running a wall-clock schedule thousands of times inside the fuzz
// worker would stall the fuzzer).
func fuzzLiveBarrier(f *testing.F, target string) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 1, 2, 3, 10, 20, 0xB2, 1, 5, 40})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		// Keep per-case wall-clock small: byte-derived runtime schedules are
		// already capped, but drop the per-message fault rates further so the
		// verification tail converges quickly.
		s := FromBytes(target, seed, data)
		if s.Loss > 0.05 {
			s.Loss = 0.05
		}
		if s.Corrupt > 0.05 {
			s.Corrupt = 0.05
		}
		if v := Run(s); !v.OK {
			t.Fatalf("%v\n  schedule: %s\n  replay: go run ./cmd/conformance -replay '%s'",
				v, s.String(), s.String())
		}
	})
}

func FuzzRuntime(f *testing.F) { fuzzLiveBarrier(f, TargetRuntime) }

// FuzzRuntimeTCP runs the identical schedule space over loopback TCP
// links: the protocol result must not depend on the transport, and every
// case additionally exercises framing and the socket-failure→loss mapping.
func FuzzRuntimeTCP(f *testing.F) { fuzzLiveBarrier(f, TargetTCP) }

// FuzzRuntimeTree runs the identical schedule space through the tree
// topology: the protocol result must not depend on whether the barrier is
// the ring or the double-tree refinement, and every case exercises the
// broadcast/convergecast engine under the same fault mix.
func FuzzRuntimeTree(f *testing.F) { fuzzLiveBarrier(f, TargetTree) }

// FuzzRuntimeMux runs the identical schedule space with the scheduled
// barrier multiplexed as one tenant group among several on shared TCP
// connections: the verdict must not depend on the cross-traffic, and
// every case exercises group tagging and per-group demultiplexing.
func FuzzRuntimeMux(f *testing.F) { fuzzLiveBarrier(f, TargetMux) }

// FuzzRuntimeHybrid runs the identical schedule space through the hybrid
// topology — members fused two per host, hosts joined in a tree: the
// verdict must not depend on the fusion, and every case exercises the
// fused scheduler plus the host-root edge remapping under the same fault
// mix.
func FuzzRuntimeHybrid(f *testing.F) { fuzzLiveBarrier(f, TargetHybrid) }

// FuzzRuntimeByz skews the byte-derived schedule space toward the
// Byzantine adversary: every spurious injection becomes a crafted forgery
// and the per-message fault rates drop to zero, so a large fraction of
// cases are byz-only — which arms the runner's exactness oracle
// (barrier_rejected_frames_total must equal the accepted injections) on
// top of the usual tolerance verdict. The seed also picks the topology, so
// the windows of every edge role meet the adversary: the ring's, the
// tree's parent and child edges, and the hybrid's host roots (the three
// corpus seeds cover one each).
func FuzzRuntimeByz(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 1, 2, 3, 10, 20, 0xB2, 1, 5, 40})
	f.Add(int64(3), []byte{2, 2, 0, 1, 2, 3, 0xB3, 1, 6, 9, 9, 9, 0xB3, 2, 8})
	targets := [...]string{TargetRuntime, TargetTree, TargetHybrid}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		s := FromBytes(targets[uint64(seed)%uint64(len(targets))], seed, data)
		s.Loss, s.Corrupt = 0, 0
		for i := range s.Ops {
			if s.Ops[i].Kind == OpSpurious {
				s.Ops[i].Kind = OpByz
			}
		}
		if v := Run(s); !v.OK {
			t.Fatalf("%v\n  schedule: %s\n  replay: go run ./cmd/conformance -replay '%s'",
				v, s.String(), s.String())
		}
	})
}

// FuzzScheduleParse checks that Parse never panics and that accepted inputs
// are fixed points of the String/Parse round trip.
func FuzzScheduleParse(f *testing.F) {
	f.Add("cb:n=4:ph=3:seed=17:sched=random:ops=12s,r2,3s,u1:99,c0,2s,R0,5s")
	f.Add("runtime:n=3:ph=2:seed=-5:sched=random:loss=0.1:corrupt=0.05:ops=p1:42,8s,u0:7")
	f.Add("tcp:n=3:ph=2:seed=9:sched=random:loss=0.05:corrupt=0.05:ops=6s,r1,6s")
	f.Add("mb:n=2:ph=2:seed=0:sched=pick:ops=s:19,s:3")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("rendered schedule rejected: %v (%q -> %q)", err, text, s.String())
		}
		if again.String() != s.String() {
			t.Fatalf("String/Parse not a fixed point: %q -> %q", s.String(), again.String())
		}
	})
}
