package core

import (
	"fmt"

	"specfetch/internal/isa"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/program"
)

// wpPhase is one leg of a redirect window: fetch runs from `start` during
// cycles strictly before `until`. A misfetch phase is one whose instructions
// were fetched past an unidentified/targetless branch; they are squashed at
// decode, which is what lets the Decode policy refuse their misses.
type wpPhase struct {
	start    isa.Addr
	until    Cycles
	misfetch bool
}

// wpState is the wrong-path fetch unit state within one window.
type wpState struct {
	wpc           isa.Addr
	stalled       bool   // fetch cannot proceed for the rest of the phase
	bubbleUntil   Cycles // decode bubble from a wrong-path misfetch
	fillWaitUntil Cycles // wrong-path fetch waiting on a fill (Resume / pending)
	blockUntil    Cycles // blocking-cache fill outstanding (also blocks correct path)
	lastLine      uint64
	haveLastLine  bool
}

// runWindow models a misfetch/mispredict redirect: the remainder of the
// current cycle plus the window cycles are lost (charged to the `branch`
// component and the event's Table 3 bucket), the wrong path is fetched
// against the I-cache under the configured policy, and — for blocking
// policies — a wrong-path fill can extend the stall past the redirect point
// (charged to `wrong_icache`). On return, e.cy is the cycle at which
// correct-path fetch resumes.
func (e *Engine) runWindow(slotsIssued int, ev eventClass, phases []wpPhase, resumePC isa.Addr) {
	width := Slots(e.cfg.FetchWidth)
	windowEnd := phases[len(phases)-1].until

	if e.probe != nil {
		e.probe.WindowStart(e.cy, ev.redirectKind(), windowEnd)
	}

	branchSlots := width - Slots(slotsIssued)
	e.res.Lost.Add(metrics.Branch, branchSlots)

	// A prefetch armed earlier in the branch's own cycle still issues.
	e.tryPrefetch(e.cy)

	st := wpState{}
	if e.cfg.StepMode == StepSkipAhead {
		branchSlots += e.windowCyclesSkip(phases, &st, windowEnd)
	} else {
		branchSlots += e.windowCyclesRef(phases, &st, windowEnd)
	}

	resumeAt := windowEnd
	if st.blockUntil > resumeAt {
		// Blocking fill initiated on the wrong path is still outstanding
		// when the machine learns the correct path: Optimistic (and Decode
		// after its gate) pay here.
		overrun := (st.blockUntil - resumeAt).Slots(e.cfg.FetchWidth)
		e.res.Lost.Add(metrics.WrongICache, overrun)
		if e.probe != nil {
			e.probe.Stall(resumeAt, st.blockUntil, metrics.WrongICache, overrun)
		}
		resumeAt = st.blockUntil
	}
	e.wrongConds = 0

	switch ev {
	case evPHTMispredict:
		e.res.Events.PHTMispredicts++
		e.res.Events.PHTMispredictSlots += branchSlots
	case evBTBMisfetch:
		e.res.Events.BTBMisfetches++
		e.res.Events.BTBMisfetchSlots += branchSlots
	case evBTBMispredict:
		e.res.Events.BTBMispredicts++
		e.res.Events.BTBMispredictSlots += branchSlots
	}

	e.cy = resumeAt
	if e.probe != nil {
		e.probe.Redirect(windowEnd, ev.redirectKind(), uint64(resumePC))
		e.probe.WindowEnd(resumeAt)
	}

	// Consistency check: the trace must continue exactly where the redirect
	// says the correct path resumes.
	if e.err == nil && e.haveRec {
		if pk := e.peekInst(); pk.pc != resumePC {
			e.err = fmt.Errorf("core: redirect/trace mismatch: trace continues at %s, redirect resumes at %s",
				pk.pc, resumePC)
		}
	}
}

// windowCyclesRef is the reference per-cycle body of runWindow's loop: every
// window cycle loses a full fetch width to the branch component, and cycles
// not spent waiting on a fill, a decode bubble, or an end-of-phase stall
// fetch down the wrong path. It returns the slots charged.
func (e *Engine) windowCyclesRef(phases []wpPhase, st *wpState, windowEnd Cycles) Slots {
	width := Slots(e.cfg.FetchWidth)
	var slots Slots
	phaseIdx := -1
	for wc := e.cy + 1; wc < windowEnd; wc++ {
		e.res.Lost.Add(metrics.Branch, width)
		slots += width
		e.applyUpdates(wc)
		e.retireConds(wc)

		// Phase transition: the decode-time redirect restarts the wrong-path
		// fetch unit at the new address and clears fetch-side stalls, but an
		// outstanding fill keeps the bus and the (blocking) cache busy.
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

		if wc < st.blockUntil || wc < st.fillWaitUntil || wc < st.bubbleUntil || st.stalled {
			continue
		}
		e.prefCandValid = false
		e.targetCandValid = false
		e.wrongPathFetchCycle(wc, phases[phaseIdx], st)
		e.tryPrefetch(wc)
	}
	return slots
}

// wrongPathFetchCycle fetches up to one issue group down the wrong path at
// cycle wc, touching the I-cache and applying the miss policy.
func (e *Engine) wrongPathFetchCycle(wc Cycles, ph wpPhase, st *wpState) {
	width := e.cfg.FetchWidth
	var groupLine uint64
	groupLineValid := false

	for slot := 0; slot < width; slot++ {
		in, run, ok := e.img.Slot(st.wpc)
		if !ok {
			// Ran off the image (e.g. fall-through past the last function).
			st.stalled = true
			return
		}
		line := e.geom.Line(st.wpc)
		if !groupLineValid || line != groupLine {
			structural := !st.haveLastLine || line != st.lastLine
			kind, readyAt := e.lineLookup(line, wc)
			if structural {
				st.lastLine = line
				st.haveLastLine = true
				e.res.WrongPathAccesses++
				if kind == lookupMiss {
					e.res.WrongPathMisses++
				}
			}
			switch kind {
			case lookupPendingFill:
				st.fillWaitUntil = readyAt
				return
			case lookupMiss:
				e.handleWrongPathMiss(line, wc, ph.misfetch, st)
				return
			case lookupHit:
				// Fall out of the switch to the hit path below.
			}
			if e.cfg.NextLinePrefetch && e.ic.ConsumeFirstRef(line) {
				e.prefCand = line + 1
				e.prefCandValid = true
			}
			groupLine = line
			groupLineValid = true
		}

		// A run of plain instructions on the current line needs none of the
		// machinery below: no predictor query, no speculation slot, no line
		// crossing. Consume the whole stretch at once (bounded by the group,
		// the line, and the run itself); the per-instruction loop this
		// replaces would do exactly one WrongPathInsts++ and a pc.Next() per
		// iteration.
		if run > 0 {
			k := width - slot
			if run < k {
				k = run
			}
			if left := e.geom.InstsLeftInLine(st.wpc); left < k {
				k = left
			}
			e.res.WrongPathInsts += int64(k)
			st.wpc = st.wpc.Plus(k)
			slot += k - 1
			groupLineValid = e.geom.Line(st.wpc) == groupLine
			continue
		}

		if in.Kind.IsConditional() && e.condCount()+e.wrongConds >= e.cfg.MaxUnresolved {
			// Out of speculation slots; wrong-path fetch waits. Slots are
			// only reclaimed by resolutions of pre-window branches or by the
			// squash at window end.
			return
		}
		e.res.WrongPathInsts++

		next, ok := e.wrongPathNext(st.wpc, in, wc, st)
		if !ok {
			st.stalled = true
			return
		}
		st.wpc = next
		groupLineValid = groupLineValid && e.geom.Line(next) == groupLine
		if st.bubbleUntil > wc {
			return // wrong-path misfetch bubble ends this fetch cycle
		}
	}
}

// wrongPathNext decides where wrong-path fetch goes after the instruction
// at pc, using the live predictor exactly as the front end would.
func (e *Engine) wrongPathNext(pc isa.Addr, in program.Inst, wc Cycles, st *wpState) (isa.Addr, bool) {
	decodeAt := wc + Cycles(e.cfg.DecodeLatency)
	switch {
	case in.Kind == isa.Plain:
		return pc.Next(), true

	case in.Kind.IsConditional():
		e.wrongConds++
		if e.cfg.TargetPrefetch {
			e.armTargetPrefetch(in.Target)
		}
		predTaken := e.pred.PredictCond(pc)
		if !predTaken {
			return pc.Next(), true
		}
		e.queueBTB(btbUpdate{at: decodeAt, pc: pc, target: in.Target})
		if t, hit := e.pred.PredictTarget(pc); hit {
			return t, true
		}
		// Predicted taken without a target: decode bubble, then the
		// computed target.
		st.bubbleUntil = wc + 1 + Cycles(e.cfg.DecodeLatency)
		return in.Target, true

	case in.Kind == isa.Jump || in.Kind == isa.Call:
		e.queueBTB(btbUpdate{at: decodeAt, pc: pc, target: in.Target})
		if e.cfg.TargetPrefetch {
			e.armTargetPrefetch(in.Target)
		}
		if e.ras != nil && in.Kind == isa.Call {
			// Speculative push; never undone on squash (no checkpointing).
			e.ras.Push(pc.Next())
		}
		if t, hit := e.pred.PredictTarget(pc); hit {
			return t, true
		}
		st.bubbleUntil = wc + 1 + Cycles(e.cfg.DecodeLatency)
		return in.Target, true

	default:
		// Indirect transfer: only a BTB hit (or, for returns, a RAS entry)
		// gives fetch anywhere to go; otherwise speculative fetch stops.
		if e.ras != nil {
			if in.Kind == isa.IndirectCall {
				e.ras.Push(pc.Next())
			}
			if in.Kind == isa.Return {
				if ret, ok := e.ras.Pop(); ok {
					return ret, true
				}
			}
		}
		if t, hit := e.pred.PredictTarget(pc); hit {
			return t, true
		}
		return 0, false
	}
}

// handleWrongPathMiss applies the configured policy to an I-cache miss on
// the wrong path at cycle wc.
func (e *Engine) handleWrongPathMiss(line uint64, wc Cycles, misfetchPhase bool, st *wpState) {
	if e.probe != nil {
		e.probe.MissStart(wc, line, true)
	}
	switch e.active {
	case Oracle, Pessimistic:
		// Never serviced: Oracle knows the path is wrong; Pessimistic's
		// resolve gate outlives the window, after which the miss is
		// squashed.
		st.stalled = true

	case Decode:
		if misfetchPhase {
			// The decode gate catches the misfetch and squashes the miss.
			st.stalled = true
			return
		}
		// Direction mispredicts pass the decode gate: fill after the
		// previous instructions decode, blocking like Optimistic.
		gate := wc - 1 + Cycles(e.cfg.DecodeLatency)
		if gate < wc {
			gate = wc
		}
		done := e.busStartLine(gate, line, true, obs.FillWrongPath)
		e.commitCompletedBuffers(wc)
		e.ic.Fill(line)
		e.res.Traffic.WrongPathFills++
		if e.probe != nil {
			e.probe.FillComplete(done, line, obs.FillWrongPath)
		}
		st.blockUntil = done

	case Optimistic:
		done := e.busStartLine(wc, line, true, obs.FillWrongPath)
		e.commitCompletedBuffers(wc)
		e.ic.Fill(line)
		e.res.Traffic.WrongPathFills++
		if e.probe != nil {
			e.probe.FillComplete(done, line, obs.FillWrongPath)
		}
		st.blockUntil = done

	case Resume:
		buf := e.freeBuffer(e.resumeBufs, wc)
		if buf == nil {
			// Every resume buffer is occupied by an earlier wrong-path
			// fill; no further fill can be tracked (the paper has one).
			st.stalled = true
			return
		}
		done := e.busStartLine(wc, line, true, obs.FillWrongPath)
		buf.Set(line, done)
		e.res.Traffic.WrongPathFills++
		if e.probe != nil {
			e.probe.FillComplete(done, line, obs.FillWrongPath)
		}
		// The wrong path itself still waits (the line is not there), but
		// the correct path is free to resume at the redirect.
		st.fillWaitUntil = done

	case Adaptive:
		// Unreachable: the engine resolves Adaptive to a static active
		// policy at construction and every boundary.
		panic("core: adaptive meta-policy leaked into wrong-path miss handling")
	}
}
