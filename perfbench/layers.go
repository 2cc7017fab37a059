package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"specfetch/internal/adaptive"
	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/isa"
	"specfetch/internal/obs"
	"specfetch/internal/trace"
)

// detailCells bounds the cells that take the reference-stepper, recording
// and window replays, which keeps the traced run short on paper-tables.
const detailCells = 90

// streamKey names one dynamic stream: a bench walked from one seed.
type streamKey struct {
	bench string
	seed  uint64
}

// collectStream walks a cell's stream to the length the experiments
// executor feeds an engine with an insts budget (insts + insts/4).
func collectStream(c replayCell, insts int64) ([]trace.Record, error) {
	return trace.Collect(trace.NewLimitReader(c.bench.NewWalker(c.seed), insts+insts/4))
}

// runCell runs one cell through core.Run over its pre-collected stream with
// the default predictor, or pred when non-nil. Adaptive cells get their
// chooser from ch, or a fresh one built from the cell's strategy.
func runCell(c replayCell, insts int64, recs []trace.Record, pred bpred.Predictor, ch core.Chooser) (core.Result, error) {
	cfg := c.cfg
	cfg.MaxInsts = insts
	if cfg.Policy == core.Adaptive {
		if ch == nil {
			var err error
			if ch, err = adaptive.New(cfg.AdaptStrategy, cfg.AdaptSeed); err != nil {
				return core.Result{}, err
			}
		}
		cfg.Chooser = ch
	}
	if pred == nil {
		pred = bpred.NewDefaultDecoupled()
	}
	return core.Run(cfg, c.bench.Image(), trace.NewSliceReader(recs), pred)
}

// layerSums accumulates the replays' counts and times.
type layerSums struct {
	walkInsts int64
	walkTime  time.Duration

	polInsts          map[string]int64
	coreTime          time.Duration
	polTime           map[string]time.Duration
	skipTime, refTime time.Duration

	cycles, wpInsts, insts int64
	condBranches, phtMiss  int64
	accesses, misses       int64
	demand, transfers      uint64

	bpOps    int64
	bpTime   time.Duration
	lines    int64
	lineTime time.Duration

	decisions, switches int64
	decide              []float64

	winTime, noWinTime time.Duration
}

// replayLayers runs the work-list's cells again, one layer at a time, on
// the benchmark's goroutine:
//   - synth: the walker alone, collecting each distinct stream;
//   - core: core.Run over the collected stream, per policy, then again with
//     the reference stepper for the skip-ahead speedup;
//   - bpred and cache: a recording run captures the predictor calls and the
//     right-path line stream, which are replayed in isolation through
//     bpred.NewDefaultDecoupled and cache.New;
//   - adaptive: a timing core.Chooser wrapper on the Adaptive cells;
//   - obs: static cells with a window series attached, where the work-list
//     captures windows.
//
// Every cell runs through core.Run; the other replays run on every
// stride-th cell, so that at most detailCells cells take them (the stride
// is coprime to the five policies on paper-tables, so every policy is
// sampled). Every core.Run result is checked against the expected results,
// and the reference stepper's against skip-ahead's.
// wall is the untraced pass wall time, the base of core.busy_frac.
func replayLayers(cells []replayCell, insts int64, exp *expectedFile, tr *tracer, wall float64, log io.Writer) (map[string]float64, tally, error) {
	var s layerSums
	s.polInsts, s.polTime = map[string]int64{}, map[string]time.Duration{}
	var t tally
	windows := captureWindows(cells)
	replay := tr.start("bench", "layer replays", "", 0, 0)
	defer replay.end()
	root := replay.id()

	streams := map[streamKey][]trace.Record{}
	for _, c := range cells {
		k := streamKey{c.bench.Profile().Name, c.seed}
		if _, ok := streams[k]; ok {
			continue
		}
		sp := tr.start("synth", "Walker.Next", fmt.Sprintf("%s/s%d", k.bench, k.seed), root, 0)
		recs, err := collectStream(c, insts)
		s.walkTime += sp.end()
		if err != nil {
			return nil, t, fmt.Errorf("walking %s: %w", c.id, err)
		}
		for _, r := range recs {
			s.walkInsts += int64(r.N)
		}
		streams[k] = recs
	}

	stride := (len(cells) + detailCells - 1) / detailCells
	for i, c := range cells {
		recs := streams[streamKey{c.bench.Profile().Name, c.seed}]
		pol := c.cfg.Policy.String()

		var ch *timedChooser
		var chooser core.Chooser
		sp := tr.start("core", "core.Run", c.id, root, 0)
		if c.cfg.Policy == core.Adaptive {
			inner, err := adaptive.New(c.cfg.AdaptStrategy, c.cfg.AdaptSeed)
			if err != nil {
				return nil, t, err
			}
			ch = &timedChooser{inner: inner, tr: tr, cell: c.id, parent: sp.id()}
			chooser = ch
		}
		res, err := runCell(c, insts, recs, nil, chooser)
		d := sp.end()
		t.attempted++
		if err != nil {
			return nil, t, fmt.Errorf("%s: %w", c.id, err)
		}
		if got, want := fromResult(c.id, res), exp.byID[c.id]; !sameCell(got, want) {
			t.failed++
			fmt.Fprintf(log, "perfbench: replay of %s differs from its expected result\n", c.id)
		}
		s.coreTime += d
		s.polTime[pol] += d
		s.polInsts[pol] += res.Insts
		s.cycles += res.Cycles.Int64()
		s.insts += res.Insts
		s.wpInsts += res.WrongPathInsts
		s.condBranches += res.CondBranches
		s.phtMiss += res.Events.PHTMispredicts
		s.accesses += res.RightPathAccesses + res.WrongPathAccesses
		s.misses += res.RightPathMisses + res.WrongPathMisses
		s.demand += res.Traffic.DemandFills
		s.transfers += res.Traffic.Total()
		if ch != nil {
			s.decisions += ch.decisions
			s.switches += ch.switches
			s.decide = append(s.decide, ch.durs...)
		}

		if i%stride != 0 {
			continue
		}
		ref := c
		ref.cfg.StepMode = core.StepReference
		sp = tr.start("core", "core.Run(reference)", c.id, root, 0)
		refRes, err := runCell(ref, insts, recs, nil, nil)
		s.refTime += sp.end()
		if err != nil {
			return nil, t, fmt.Errorf("%s reference: %w", c.id, err)
		}
		t.attempted++
		if !reflect.DeepEqual(refRes, res) {
			t.failed++
			fmt.Fprintf(log, "perfbench: the reference stepper's %s differs from skip-ahead's\n", c.id)
		}
		s.skipTime += d

		if err := replayBpredCache(&s, c, insts, recs, tr, root); err != nil {
			return nil, t, err
		}

		if windows && c.cfg.Policy.IsStatic() {
			wc := c
			wc.cfg.SampleInterval = windowInsts
			wc.cfg.Probe = obs.NewWindowSeries()
			sp = tr.start("obs", "core.Run+WindowSeries", c.id, root, 0)
			if _, err := runCell(wc, insts, recs, nil, nil); err != nil {
				return nil, t, fmt.Errorf("%s windows: %w", c.id, err)
			}
			s.winTime += sp.end()
			s.noWinTime += d
		}
	}
	return s.metrics(wall), t, nil
}

// captureWindows reports whether the work-list's static cells capture
// window series: only the adaptive study's do.
func captureWindows(cells []replayCell) bool {
	for _, c := range cells {
		if c.cfg.Policy == core.Adaptive {
			return true
		}
	}
	return false
}

// replayBpredCache records one cell's predictor calls and right-path line
// stream, then replays each in isolation.
func replayBpredCache(s *layerSums, c replayCell, insts int64, recs []trace.Record, tr *tracer, root int) error {
	rec := &recordingPredictor{inner: bpred.NewDefaultDecoupled()}
	var lines []uint64
	rc := c
	rc.cfg.OnRightPathAccess = func(_ int64, line uint64, _ bool) { lines = append(lines, line) }
	if _, err := runCell(rc, insts, recs, rec, nil); err != nil {
		return fmt.Errorf("%s recording: %w", c.id, err)
	}

	p := bpred.NewDefaultDecoupled()
	sp := tr.start("bpred", "Decoupled replay", c.id, root, 0)
	for _, op := range rec.ops {
		switch op.kind {
		case opPredictCond:
			p.PredictCond(op.pc)
		case opPredictTarget:
			p.PredictTarget(op.pc)
		case opDecodeTaken:
			p.DecodeTaken(op.pc, op.target)
		case opResolveCond:
			p.ResolveCond(op.pc, op.taken)
		case opResolveIndirect:
			p.ResolveIndirect(op.pc, op.target)
		}
	}
	s.bpTime += sp.end()
	s.bpOps += int64(len(rec.ops))

	ic, err := cache.New(c.cfg.ICache)
	if err != nil {
		return err
	}
	sp = tr.start("cache", "ICache replay", c.id, root, 0)
	for _, l := range lines {
		if !ic.Access(l) {
			ic.Fill(l)
		}
	}
	s.lineTime += sp.end()
	s.lines += int64(len(lines))
	return nil
}

func (s *layerSums) metrics(wall float64) map[string]float64 {
	m := map[string]float64{
		"synth.minsts_per_s":      rate(s.walkInsts, s.walkTime),
		"core.minsts_per_s":       rate(s.insts, s.coreTime),
		"core.skipahead_speedup":  ratio(s.refTime, s.skipTime),
		"core.busy_frac":          s.coreTime.Seconds() / (poolWorkers * wall),
		"core.wrong_path_ratio":   frac(s.wpInsts, s.insts),
		"core.sim_cycles":         float64(s.cycles),
		"bpred.mops_per_s":        rate(s.bpOps, s.bpTime),
		"bpred.ops":               float64(s.bpOps),
		"bpred.pht_accuracy":      1 - frac(s.phtMiss, s.condBranches),
		"cache.maccesses_per_s":   rate(s.lines, s.lineTime),
		"cache.accesses":          float64(s.accesses),
		"cache.miss_ratio":        frac(s.misses, s.accesses),
		"cache.bus_transfers":     float64(s.transfers),
		"cache.bus_useful_frac":   frac(int64(s.demand), int64(s.transfers)),
		"adaptive.decisions":      float64(s.decisions),
		"adaptive.switches":       float64(s.switches),
		"adaptive.decide_us_p50":  median(s.decide),
		"obs.window_overhead_pct": 0,
	}
	if s.noWinTime > 0 {
		m["obs.window_overhead_pct"] = 100 * (ratio(s.winTime, s.noWinTime) - 1)
	}
	for _, pol := range append(core.Policies(), core.Adaptive) {
		m["core.minsts_per_s."+pol.String()] = rate(s.polInsts[pol.String()], s.polTime[pol.String()])
	}
	return m
}

// rate is n per second of d, in millions.
func rate(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / 1e6
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ---- bpred recording -----------------------------------------------------

const (
	opPredictCond uint8 = iota
	opPredictTarget
	opDecodeTaken
	opResolveCond
	opResolveIndirect
)

// bpOp is one predictor call.
type bpOp struct {
	kind       uint8
	taken      bool
	pc, target isa.Addr
}

// recordingPredictor forwards to inner and records every call.
type recordingPredictor struct {
	inner bpred.Predictor
	ops   []bpOp
}

func (r *recordingPredictor) PredictCond(pc isa.Addr) bool {
	r.ops = append(r.ops, bpOp{kind: opPredictCond, pc: pc})
	return r.inner.PredictCond(pc)
}

func (r *recordingPredictor) PredictTarget(pc isa.Addr) (isa.Addr, bool) {
	r.ops = append(r.ops, bpOp{kind: opPredictTarget, pc: pc})
	return r.inner.PredictTarget(pc)
}

func (r *recordingPredictor) DecodeTaken(pc, target isa.Addr) {
	r.ops = append(r.ops, bpOp{kind: opDecodeTaken, pc: pc, target: target})
	r.inner.DecodeTaken(pc, target)
}

func (r *recordingPredictor) ResolveCond(pc isa.Addr, taken bool) {
	r.ops = append(r.ops, bpOp{kind: opResolveCond, pc: pc, taken: taken})
	r.inner.ResolveCond(pc, taken)
}

func (r *recordingPredictor) ResolveIndirect(pc, target isa.Addr) {
	r.ops = append(r.ops, bpOp{kind: opResolveIndirect, pc: pc, target: target})
	r.inner.ResolveIndirect(pc, target)
}

// ---- adaptive timing -----------------------------------------------------

// timedChooser times and counts each Decide of the chooser it wraps, one
// span per call under the cell's core.Run span.
type timedChooser struct {
	inner  core.Chooser
	tr     *tracer
	cell   string
	parent int

	last                core.Policy
	decisions, switches int64
	durs                []float64 // microseconds
}

func (c *timedChooser) First() core.Policy {
	c.last = c.inner.First()
	return c.last
}

func (c *timedChooser) Decide(w core.AdaptWindow) core.Policy {
	sp := c.tr.start("adaptive", "Chooser.Decide", c.cell, c.parent, 0)
	p := c.inner.Decide(w)
	c.durs = append(c.durs, us(sp.end()))
	c.decisions++
	if p != c.last {
		c.switches++
	}
	c.last = p
	return p
}
