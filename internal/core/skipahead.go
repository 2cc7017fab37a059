package core

import (
	"specfetch/internal/isa"
	"specfetch/internal/metrics"
)

// This file is the skip-ahead half of the engine: the same machine as the
// reference stepper, advancing time by events instead of by single cycles.
// Three mechanisms compose, each independently bit-identical to the per-cycle
// code it replaces (the differential suite in stepmode_diff_test.go checks
// the composition end to end):
//
//  1. bulkPlains issues whole cycles of plain instructions over
//     array-resident lines without entering stepCycle, replaying the exact
//     lookup, LRU, and counter sequence in closed form.
//  2. chargeStall (chargeStallJump here) accounts a stall's dead cycles as
//     one typed Slots delta per attribution interval instead of per cycle.
//  3. runWindow (windowCyclesSkip here) jumps wrong-path dead stretches —
//     fill waits, decode bubbles, end-of-phase stalls — to the next cycle at
//     which the wrong-path fetch unit can actually do something.
//
// Equivalence rests on one invariant of the reference loops: a skipped cycle
// has no observable effect other than a width-sized Lost/branch-slot
// contribution. Delayed predictor updates and speculation-slot retirements
// are monotone pops whose effects are only observable at predictor queries
// and spec-limit checks, and those happen only inside fetch-cycle code —
// so applying them lazily at the next fetch cycle replays the exact
// update/query interleaving the per-cycle code produces.

// plainBulkMemo is one entry of the bulk-issue residency memo: the effects of
// a previously executed bulkPlains run of `total` instructions starting at
// pc0, proven all-resident under cache epoch `epoch`. While the epoch is
// unchanged the run's lines are necessarily still resident, so a re-execution
// (a loop body re-entered between misses) replays as three counter adds
// instead of a per-line probe walk. Entries are keyed (pc0, total): the same
// record prefix under a different budget or flush cap simply occupies a
// different slot. A zeroed entry can never hit (cache epochs start at 1).
type plainBulkMemo struct {
	pc0   isa.Addr
	epoch uint64
	total int32
	// acc is the cache accesses the run performs; segs its line-segment
	// count (= structural crossings, the first conditional on lastInstLine).
	acc  int32
	segs int32
}

// plainMemoBits sizes the direct-mapped memo table (collisions overwrite).
const plainMemoBits = 12

// plainMemoIdx hashes a memo key to its table slot.
func plainMemoIdx(pc0 isa.Addr, total int) int {
	h := (uint64(pc0)/isa.InstBytes ^ uint64(total)<<40) * 0x9e3779b97f4a7c15
	return int(h >> (64 - plainMemoBits))
}

// bulkPlains issues as many whole fetch cycles of plain instructions as can
// be proven trivial: every line under the run resident in the cache array
// (buffer- or victim-satisfied lookups, misses, branches, budget and flush
// boundaries all end the run and fall back to stepCycle). It returns true
// when it issued at least one full cycle. Callers guarantee !e.done() and
// the fastIssue gate (no event probe, no access callback, no prefetch
// engine). A sample-only probe and a chooser are compatible: boundaries that
// fall inside the bulk delta are segmented out by bulkBoundaries rather than
// ending the run.
func (e *Engine) bulkPlains() bool {
	if !e.haveRec {
		return false
	}
	w := e.cfg.FetchWidth

	// Plain instructions left in the current record (a terminal branch stays
	// for stepCycle, as does any partial final cycle).
	rem := e.cur.N - e.curIdx
	if e.cur.BrKind != isa.Plain {
		rem--
	}
	cyc := e.divW(rem)
	if cyc == 0 {
		return false
	}

	// The reference stepper checks the instruction budget per slot but only
	// ever stops mid-cycle; full cycles are safe while a whole width fits.
	if e.cfg.MaxInsts > 0 {
		if budget := e.divW64(e.cfg.MaxInsts - e.res.Insts); budget < int64(cyc) {
			cyc = int(budget)
		}
	}
	// A context-switch flush fires at the first cycle whose starting
	// instruction count reaches nextFlushAt; that cycle must go through
	// stepCycle. Cycle k of the bulk starts at Insts + k*w.
	if e.cfg.FlushInterval > 0 {
		left := e.nextFlushAt - e.res.Insts
		if left <= 0 {
			return false
		}
		if allowed := e.divW64(left + int64(w) - 1); allowed < int64(cyc) {
			cyc = int(allowed)
		}
	}
	if cyc == 0 {
		return false
	}

	pc0 := e.cur.Start.Plus(e.curIdx)
	total := cyc * w
	ipl := e.geom.InstPerLine()

	// Pre-effect state, captured for bulkBoundaries: a boundary inside the
	// run must report the counters as they stood when its boundary
	// instruction issued, not the run's final totals.
	acc0 := e.res.RightPathAccesses
	lastLine0, haveLast0 := e.lastInstLine, e.haveLastLine

	// Memo fast path: this exact run was executed before and nothing has
	// entered or left the cache array since, so its lines are still resident
	// and its effects are the recorded totals. Recency updates are skipped;
	// sound because the memo is only enabled direct-mapped (see BulkHits).
	if e.plainMemo != nil {
		if m := &e.plainMemo[plainMemoIdx(pc0, total)]; m.pc0 == pc0 &&
			int(m.total) == total && m.epoch == e.ic.Epoch() {
			e.ic.BulkHits(int(m.acc))
			line0 := e.geom.Line(pc0)
			n := int64(m.segs)
			if e.haveLastLine && line0 == e.lastInstLine {
				n--
			}
			e.res.RightPathAccesses += n
			e.lastInstLine = line0 + uint64(m.segs) - 1
			e.haveLastLine = true
			e.bulkBoundaries(pc0, total, acc0, lastLine0, haveLast0)
			e.finishBulk(total, cyc)
			return true
		}
	}

	// Pass 1 (pure): resolve each line segment of the run to its array way,
	// cutting at the first line not resident. Only whole cycles before the
	// cut may issue in bulk; the cycle containing the non-resident crossing
	// needs the full policy machinery. The ways are kept so the effects pass
	// does not look every line up a second time.
	ways := e.wayScratch[:0]
	seg := e.geom.InstsLeftInLine(pc0)
	line := e.geom.Line(pc0)
	for i := 0; i < total; i, seg, line = i+seg, ipl, line+1 {
		h := e.ic.ProbeWay(line)
		if h == nil {
			cyc = e.divW(i)
			if cyc == 0 {
				e.wayScratch = ways
				return false
			}
			total = cyc * w
			break
		}
		ways = append(ways, h)
	}
	e.wayScratch = ways

	// Pass 2 (effects): replay, per line segment [a, b) of the run, what the
	// reference stepper does. It looks a line up at slot 0 of every cycle
	// and at every in-cycle crossing, so a segment sees one Access per
	// multiple of w in [a, b), plus one more when the segment starts
	// mid-cycle (the crossing itself). All hit; TouchWay applies them in
	// bulk on the way pass 1 resolved. The segment's first instruction is a
	// structural reference unless it continues the line the previous fetch
	// ended on.
	seg = e.geom.InstsLeftInLine(pc0)
	line = e.geom.Line(pc0)
	acc, nsegs := 0, 0
	for a, j := 0, 0; a < total; a, seg, line, j = a+seg, ipl, line+1, j+1 {
		b := a + seg
		if b > total {
			b = total
		}
		n := e.ceilDivW(b) - e.ceilDivW(a)
		if e.modW(a) != 0 {
			n++
		}
		e.ic.TouchWay(ways[j], n)
		acc += n
		nsegs++
		if !e.haveLastLine || line != e.lastInstLine {
			e.res.RightPathAccesses++
			e.lastInstLine = line
			e.haveLastLine = true
		}
	}

	// Record the run for replay while the residency proof holds. Touches do
	// not move the epoch, so the entry is current as of this very state.
	if e.plainMemo != nil {
		e.plainMemo[plainMemoIdx(pc0, total)] = plainBulkMemo{
			pc0: pc0, epoch: e.ic.Epoch(),
			total: int32(total), acc: int32(acc), segs: int32(nsegs),
		}
	}

	e.bulkBoundaries(pc0, total, acc0, lastLine0, haveLast0)
	e.finishBulk(total, cyc)
	return true
}

// bulkBoundaries walks every sample and decision boundary a bulk delta of
// `total` instructions starting at pc0 straddles (with the pre-run access
// counters and last-line state passed in), serving each with exactly the
// snapshot the reference stepper builds right after issuing the boundary
// instruction. Within a bulk run every lookup hits and no stall, miss, bus
// activity, or policy consultation occurs, so only Cycle, Insts, and the
// structural access count move: the boundary instruction k (1-based) issues
// in bulk cycle (k-1)/width, and instructions 1..k reference the lines they
// span, minus the leading segment when it continues the line the previous
// fetch ended on. A decision inside the run therefore governs from the
// run's end exactly as it would mid-stream. Called before finishBulk, while
// e.cy and e.res.Insts still hold the run's starting values.
func (e *Engine) bulkBoundaries(pc0 isa.Addr, total int, acc0 int64, lastLine0 uint64, haveLast0 bool) {
	insts0 := e.res.Insts
	end := insts0 + int64(total)
	if end < e.nextBoundary {
		return
	}
	line0 := e.geom.Line(pc0)
	for e.nextBoundary <= end {
		k := e.nextBoundary - insts0
		segs := int64(e.geom.Line(pc0.Plus(int(k-1))) - line0 + 1)
		if haveLast0 && line0 == lastLine0 {
			segs--
		}
		e.boundary(e.snapshot(e.cy+Cycles(e.divW64(k-1)), e.nextBoundary, acc0+segs))
	}
}

// finishBulk is the shared tail of a bulk issue: advance the instruction
// count, the trace cursor, and the clock past `cyc` whole fetch cycles.
func (e *Engine) finishBulk(total, cyc int) {
	e.res.Insts += int64(total)
	e.curIdx += total
	e.cy += Cycles(cyc)
	e.lastIssueCy = e.cy - 1
	if e.curIdx >= e.cur.N {
		// Exactly consumed an all-plain record: the reference stepper loads
		// the next record from the last consumeInst of the final cycle.
		e.loadRecord()
	}
}

// divW divides by the fetch width, as a shift when the width is a power of
// two (the common case; a variable-divisor divide costs tens of cycles and
// the bulk path needs several per record).
func (e *Engine) divW(x int) int {
	if e.wPow2 {
		return x >> e.wShift
	}
	return x / e.cfg.FetchWidth
}

// divW64 is divW for instruction-count arithmetic.
func (e *Engine) divW64(x int64) int64 {
	if e.wPow2 {
		return x >> e.wShift
	}
	return x / int64(e.cfg.FetchWidth)
}

// ceilDivW rounds up to whole fetch cycles.
func (e *Engine) ceilDivW(x int) int { return e.divW(x + e.cfg.FetchWidth - 1) }

// modW reduces a slot index modulo the fetch width.
func (e *Engine) modW(x int) int {
	if e.wPow2 {
		return x & e.wMask
	}
	return x % e.cfg.FetchWidth
}

// chargeStallJump is chargeStall without the per-cycle loop: each attribution
// interval contributes one bulk Slots delta, and probe segments are merged on
// equal components exactly as emitStallSegments does. A cycle belongs to the
// first phase whose `until` exceeds it, trailing cycles to the last phase —
// so phase i covers the interval from the previous phases' high-water mark to
// its own until, clamped to resumeAt.
func (e *Engine) chargeStallJump(slotsIssued int, phases []chargePhase, resumeAt Cycles) {
	w := e.cfg.FetchWidth
	first := e.cy
	cur := first
	segStart := first
	var segComp metrics.Component
	var segSlots Slots
	haveSeg := false
	for i := 0; i <= len(phases); i++ {
		var until Cycles
		var comp metrics.Component
		if i < len(phases) {
			until = phases[i].until
			comp = phases[i].comp
		} else {
			until = resumeAt
			comp = phases[len(phases)-1].comp
		}
		if until > resumeAt {
			until = resumeAt
		}
		if until <= cur {
			continue
		}
		lost := (until - cur).Slots(w)
		if cur == first {
			lost -= Slots(slotsIssued)
		}
		e.res.Lost.Add(comp, lost)
		if e.probe != nil {
			if haveSeg && comp != segComp {
				e.probe.Stall(segStart, cur, segComp, segSlots)
				segStart, segSlots = cur, 0
			}
			segComp, haveSeg = comp, true
			segSlots += lost
		}
		cur = until
	}
	if e.probe != nil && haveSeg {
		e.probe.Stall(segStart, resumeAt, segComp, segSlots)
	}
	e.cy = resumeAt
}

// windowCyclesSkip is the skip-ahead body of runWindow's cycle loop: dead
// cycles — wrong-path fetch waiting on a fill, a decode bubble, a blocking
// fill, or stalled out for the rest of a phase — contribute nothing but a
// width of branch-window slots each, so the clock jumps straight to the next
// cycle at which fetch can proceed (never past a phase boundary, because the
// redirect at a boundary clears fetch-side stalls). It returns the slots
// charged, mirroring windowCyclesRef.
func (e *Engine) windowCyclesSkip(phases []wpPhase, st *wpState, windowEnd Cycles) Slots {
	width := Slots(e.cfg.FetchWidth)
	var slots Slots
	phaseIdx := -1
	wc := e.cy + 1
	for wc < windowEnd {
		idx := len(phases) - 1
		for i, p := range phases {
			if wc < p.until {
				idx = i
				break
			}
		}
		if idx != phaseIdx {
			phaseIdx = idx
			st.wpc = phases[idx].start
			st.stalled = false
			st.bubbleUntil = 0
			st.haveLastLine = false
		}

		// Next cycle at which this phase can fetch: past every pending
		// completion, clamped to the phase boundary and the window end.
		t := wc
		if st.stalled {
			t = phases[idx].until
		} else {
			if st.blockUntil > t {
				t = st.blockUntil
			}
			if st.fillWaitUntil > t {
				t = st.fillWaitUntil
			}
			if st.bubbleUntil > t {
				t = st.bubbleUntil
			}
			if u := phases[idx].until; t > u {
				t = u
			}
		}
		if t > windowEnd {
			t = windowEnd
		}
		if t > wc {
			// Bulk-account the dead stretch [wc, t): in the reference loop
			// each of these cycles adds one width of branch-window slots and
			// nothing else (updates/retires are applied lazily below).
			lost := (t - wc).Slots(e.cfg.FetchWidth)
			e.res.Lost.Add(metrics.Branch, lost)
			slots += lost
			wc = t
			continue
		}

		e.res.Lost.Add(metrics.Branch, width)
		slots += width
		if e.updatesPending(wc) {
			e.applyUpdates(wc)
		}
		e.retireConds(wc)
		e.prefCandValid = false
		e.targetCandValid = false
		e.wrongPathFetchCycle(wc, phases[phaseIdx], st)
		e.tryPrefetch(wc)
		wc++
	}
	return slots
}
