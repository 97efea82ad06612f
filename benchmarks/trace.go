package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// maxWrittenSpans bounds a trace file: derived numbers use every span
// recorded in memory, the file holds the run's first passes in full.
const maxWrittenSpans = 20_000

// traceData is what the traced run derives from its spans.
type traceData struct {
	rate float64 // collective passes/s while tracing

	syncUs, arrivalSkewUs, releaseSkewUs []float64 // per analysed pass
	waitShare                            float64
	passes                               int   // passes analysed
	earlyReleases                        int64 // a caller released before the last one arrived
	realigned                            int   // index shifts applied after scrambles (faults workload)
	unaligned                            int   // passes left out because they never lined up

	siblingShiftPct float64
	siblingNote     string

	oracleFail     string
	oracleBarriers int
	oracleSegments int

	file          string
	spansRecorded int
	spansWritten  int
}

// passSpan is one collective pass of one group, derived from its callers'
// await spans.
type passSpan struct {
	group, pass              int
	firstArr, lastArr        int64
	firstRel, lastRel        int64
	waitBefore, awaitedTotal int64
	// spanIdx[i] is member i's span that reaped this pass; kept only for
	// the passes the trace file will hold.
	spanIdx []int32
}

// buildTrace lines the callers' await spans up into passes, derives the
// runtime layer's timings from them, applies the outside-in safety check
// and writes the trace file.
//
// Pass k of a group is every member's k-th successful Await. With Depth
// D the Await that reaps wave k entered it D-1 calls earlier, so wave k's
// arrival is the start of call max(0, k-D+1) and its release the end of
// call k. No caller may be released from a pass before every caller has
// arrived at it: timestamps are taken before the call and after the
// return, so the observed order can only err towards passing.
func (r *loadRun) buildTrace(bounds []boundary) *traceData {
	td := &traceData{}
	if len(bounds) >= 2 {
		first, last := bounds[0], bounds[len(bounds)-1]
		td.rate = float64(last.passes-first.passes) / last.at.Sub(first.at).Seconds()
	}
	if r.oracle != nil {
		td.oracleFail, td.oracleBarriers, td.oracleSegments = r.oracle.verdict()
	}

	members := make([][]*participant, len(r.c.groups))
	for _, p := range r.parts {
		members[p.group] = append(members[p.group], p)
		td.spansRecorded += p.nSpans
	}
	var passes []passSpan
	var waitBefore, awaited int64
	for gi, ms := range members {
		depth := r.c.groups[gi].depth
		offset := make([]int, len(ms)) // realignment after scrambles
		for k := 0; ; k++ {
			ps, ok := r.linePass(gi, k, depth, ms, offset, td)
			if !ok {
				break
			}
			if ps.pass < 0 {
				continue // unaligned, skipped
			}
			passes = append(passes, ps)
			td.syncUs = append(td.syncUs, float64(ps.lastRel-ps.lastArr)/1e3)
			td.arrivalSkewUs = append(td.arrivalSkewUs, float64(ps.lastArr-ps.firstArr)/1e3)
			td.releaseSkewUs = append(td.releaseSkewUs, float64(ps.lastRel-ps.firstRel)/1e3)
			waitBefore += ps.waitBefore
			awaited += ps.awaitedTotal
		}
	}
	td.passes = len(passes)
	if awaited > 0 {
		td.waitShare = float64(waitBefore) / float64(awaited)
	}
	sort.Float64s(td.syncUs)
	sort.Float64s(td.arrivalSkewUs)
	sort.Float64s(td.releaseSkewUs)
	r.siblingShift(td)

	td.file = filepath.Join(r.opts.outDir, "trace-"+r.spec.name+".json")
	if err := r.writeTrace(td, passes, members); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		td.file = ""
	}
	return td
}

// linePass derives pass k of group gi. ok is false once some member has
// no span left; a pass that cannot be lined up returns pass == -1.
func (r *loadRun) linePass(gi, k, depth int, ms []*participant, offset []int, td *traceData) (ps passSpan, ok bool) {
	arrCall := max(0, k-depth+1)
	var sumArr, sumRel int64
	for attempt := 0; ; attempt++ {
		ps = passSpan{group: gi, pass: k, firstArr: 1 << 62, firstRel: 1 << 62}
		sumArr, sumRel = 0, 0
		for i, p := range ms {
			if k+offset[i] >= p.nSpans {
				return ps, false
			}
			arr := p.spanStart[arrCall+offset[i]]
			rel := p.spanStart[k+offset[i]] + int64(p.spanDur[k+offset[i]])
			ps.firstArr, ps.lastArr = min(ps.firstArr, arr), max(ps.lastArr, arr)
			ps.firstRel, ps.lastRel = min(ps.firstRel, rel), max(ps.lastRel, rel)
			sumArr, sumRel = sumArr+arr, sumRel+rel
		}
		if ps.firstRel >= ps.lastArr {
			break
		}
		if r.f == nil {
			td.earlyReleases++
			break
		}
		// A scramble gave some caller a pass more or fewer than the
		// rest: its spans run ahead of the group's. Shift every caller
		// that was released before the last arrival forward by one span
		// and try again.
		if attempt == 8 {
			td.unaligned++
			ps.pass = -1
			return ps, true
		}
		for i, p := range ms {
			if p.spanStart[k+offset[i]]+int64(p.spanDur[k+offset[i]]) < ps.lastArr {
				offset[i]++
			}
		}
		td.realigned++
	}
	// Time spent waiting for stragglers, and time spent in Await at all.
	ps.waitBefore = int64(len(ms))*ps.lastArr - sumArr
	ps.awaitedTotal = sumRel - sumArr
	if (k+1)*(len(ms)+1)*len(r.c.groups) <= maxWrittenSpans {
		for i := range ms {
			ps.spanIdx = append(ps.spanIdx, int32(k+offset[i]))
		}
	}
	return ps, true
}

// siblingShift compares the sibling groups' Await tail inside the group
// restart's interval with the rest of the traced run: a tenant's
// lifecycle must not show in its neighbours' latency.
func (r *loadRun) siblingShift(td *traceData) {
	r.restartMu.Lock()
	from, took := r.restartFrom, r.restartTook
	r.restartMu.Unlock()
	if took == 0 {
		return
	}
	until := from + max(took, int64(20e6))
	var inside, outside []uint32
	for _, p := range r.parts {
		if r.c.groups[p.group].name == restartGroupName {
			continue
		}
		for i := 0; i < p.nSpans; i++ {
			if s := p.spanStart[i]; s >= from && s < until {
				inside = append(inside, p.spanDur[i])
			} else {
				outside = append(outside, p.spanDur[i])
			}
		}
	}
	pct := tailPercentile(min(len(inside), len(outside)))
	in, out := percentile(sortedCopy(inside), pct), percentile(sortedCopy(outside), pct)
	if out > 0 {
		td.siblingShiftPct = (in - out) / out * 100
	}
	td.siblingNote = fmt.Sprintf("p%g of %d sibling awaits inside the restart interval vs %d outside", pct, len(inside), len(outside))
}

// writeTrace writes run -> pass k (per group) -> await (per caller).
// Every span has an id and its parent's id; spans of one pass share the
// pass identifier (group, lane, pass). Times are ns on the run's clock.
func (r *loadRun) writeTrace(td *traceData, passes []passSpan, members [][]*participant) error {
	f, err := os.Create(td.file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var end int64
	for _, ps := range passes {
		end = max(end, ps.lastRel)
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"clock\":\"ns since run start\",\"spans_recorded\":%d,\n\"spans\":[\n",
		r.spec.name, r.opts.seed, td.spansRecorded)
	fmt.Fprintf(w, "{\"id\":1,\"parent\":0,\"name\":\"run\",\"start\":0,\"end\":%d}", end)
	id, written := 1, 1
	// Interleave groups pass by pass so every group's first passes fit.
	byGroup := make([][]passSpan, len(members))
	for _, ps := range passes {
		byGroup[ps.group] = append(byGroup[ps.group], ps)
	}
	for k := 0; ; k++ {
		any := false
		for gi, gps := range byGroup {
			if k >= len(gps) || gps[k].spanIdx == nil {
				continue
			}
			any = true
			ps := gps[k]
			g := r.c.groups[gi]
			id++
			passID := id
			fmt.Fprintf(w, ",\n{\"id\":%d,\"parent\":1,\"name\":\"pass\",\"group\":%q,\"lane\":%d,\"pass\":%d,\"start\":%d,\"end\":%d,\"self\":%d}",
				passID, g.name, ps.pass%g.depth, ps.pass, ps.firstArr, ps.lastRel, ps.lastRel-ps.lastArr)
			written++
			for i, p := range members[gi] {
				// The await span shown under a pass is the call that reaped it.
				si := ps.spanIdx[i]
				id++
				fmt.Fprintf(w, ",\n{\"id\":%d,\"parent\":%d,\"name\":\"await\",\"group\":%q,\"lane\":%d,\"pass\":%d,\"participant\":%d,\"start\":%d,\"end\":%d}",
					id, passID, g.name, ps.pass%g.depth, ps.pass, p.id, p.spanStart[si], p.spanStart[si]+int64(p.spanDur[si]))
				written++
			}
		}
		if !any {
			break
		}
	}
	td.spansWritten = written
	fmt.Fprintf(w, "\n],\n\"spans_written\":%d}\n", written)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
