package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/experiments"
	"specfetch/internal/isa"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
)

// paperStreamSeed is the stream seed every experiments table and study replays
// (experiments' unexported defaultStreamSeed); the layer replays need it to
// walk the same streams. The replay results are checked against the
// work-list's, so a drift here shows as failed cells.
const paperStreamSeed = 0x5eed

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// insts is the default per-cell correct-path instruction budget.
	insts int64
	open  func(o options) workload
}

// workload is one run's instance of a workload definition.
type workload interface {
	// setup builds the work-list's inputs. A run calls it several times and
	// keeps the last; it returns the time spent in synth.Build.
	setup(tr *tracer) (time.Duration, error)
	// pass runs the work-list once to completion.
	pass(tr *tracer, parent int) (passOut, error)
	// cells lists the work-list's cells, for the layer replays.
	cells() []replayCell
	// reference computes the results the expected file holds.
	reference() ([]cellResult, error)
	close()
}

// verifier is a workload with a check beyond the expected file, made once
// per run after the timed passes. It returns how many cells failed it.
type verifier interface {
	verify() (failed int64, err error)
}

// passOut is what one pass over the work-list yields.
type passOut struct {
	// insts sums Result.Insts over the pass's cells.
	insts int64
	// cells are the observed per-cell results and groups their unordered
	// (insts, cycles) sets; see check.
	cells  []cellResult
	groups []countGroup
	// windows counts the obs.WindowRecords the work-list captured.
	windows int64
	// paperErr and capture are the model-accuracy figures, where the
	// work-list yields them.
	paperErr, capture float64
	// cellDurs are the pass's cell spans (traced passes only).
	cellDurs []time.Duration
	// fleet holds the distsweep figures of a traced fleet pass.
	fleet *fleetPass
}

// replayCell is one work-list cell as the layer replays run it.
type replayCell struct {
	id    string
	bench *synth.Bench
	seed  uint64
	cfg   core.Config
}

var workloadDefs = []workloadDef{
	{name: "paper-tables", insts: 200_000, open: func(o options) workload {
		return &paperTables{insts: o.insts}
	}},
	{name: "adaptive-flush", insts: 2_000_000, open: func(o options) workload {
		return &adaptiveFlush{insts: o.insts}
	}},
	{name: "fleet-seeds", insts: 1_000_000, open: func(o options) workload {
		return newFleetSeeds(o)
	}},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadDefs {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// buildProfiles runs synth.Build over profiles, one span each, and returns
// the benches and the total build time.
func buildProfiles(tr *tracer, parent int, profiles []synth.Profile) ([]*synth.Bench, time.Duration, error) {
	var total time.Duration
	out := make([]*synth.Bench, len(profiles))
	for i, p := range profiles {
		sp := tr.start("synth", "synth.Build", p.Name, parent, 0)
		b, err := synth.Build(p)
		total += sp.end()
		if err != nil {
			return nil, 0, fmt.Errorf("building %s: %w", p.Name, err)
		}
		out[i] = b
	}
	return out, total, nil
}

// progressLog collects the experiments.Options.Progress lines of a pass:
// the only per-cell insts and cycles the experiments table functions expose. Lines
// arrive from pool workers concurrently.
type progressLog struct {
	mu    sync.Mutex
	pairs map[string][][2]int64 // "bench/policy" -> (insts, cycles) per cell
	insts int64
}

// add parses one "bench/policy: N insts, C cycles, ISPI x" line. A line
// that does not parse is kept under its raw text, so the cells it belonged
// to fail their check.
func (p *progressLog) add(msg string) {
	key, rest, _ := strings.Cut(msg, ": ")
	var insts, cycles int64
	if _, err := fmt.Sscanf(rest, "%d insts, %d cycles", &insts, &cycles); err != nil {
		key = msg
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pairs == nil {
		p.pairs = map[string][][2]int64{}
	}
	p.pairs[key] = append(p.pairs[key], [2]int64{insts, cycles})
	p.insts += insts
}

// take returns the lines collected since the last take and resets the log.
func (p *progressLog) take() (map[string][][2]int64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pairs, insts := p.pairs, p.insts
	p.pairs, p.insts = nil, 0
	return pairs, insts
}

// spanCells converts an experiments span tracer's cell spans into trace
// spans and returns their durations. Each span's section holds the ID of
// the experiments call it ran under, its parent; the tracer's epoch is placed
// at epochAt on tr's clock.
func spanCells(tr *tracer, st *obs.SpanTracer, epochAt time.Duration) []time.Duration {
	var durs []time.Duration
	for _, s := range st.Spans() {
		durs = append(durs, s.Dur)
		parent, _ := strconv.Atoi(s.Section) // set from an int by the caller
		tr.add(spanRec{Layer: "experiments", Name: "cell", Cell: s.Name, Parent: parent,
			Tid: 1 + s.Worker, Start: epochAt + s.Start, Dur: s.Dur})
	}
	return durs
}

// ---- paper-tables --------------------------------------------------------

// paperTables runs the experiments.Table5Data and Table6Data work-lists:
// 13 benches x depth {1,2,4} x 5 policies at 8K, then 13 x 5 at 32K.
type paperTables struct {
	insts   int64
	benches []*synth.Bench
	prog    progressLog
}

func (w *paperTables) setup(tr *tracer) (time.Duration, error) {
	b, d, err := buildProfiles(tr, 0, synth.Profiles())
	w.benches = b
	return d, err
}

func (w *paperTables) close() {}

func (w *paperTables) pass(tr *tracer, parent int) (passOut, error) {
	opt := experiments.Options{Insts: w.insts, Workers: poolWorkers, Progress: w.prog.add}
	var epochAt time.Duration
	if tr != nil {
		opt.Spans = obs.NewSpanTracer()
		epochAt = tr.now()
	}
	w.prog.take()
	sp := tr.start("experiments", "experiments.Table5Data", "", parent, 0)
	opt.Spans.SetSection(strconv.Itoa(sp.id()))
	t5, err := experiments.Table5Data(opt)
	sp.end()
	if err != nil {
		return passOut{}, err
	}
	t5prog, i5 := w.prog.take()
	sp6 := tr.start("experiments", "experiments.Table6Data", "", parent, 0)
	opt.Spans.SetSection(strconv.Itoa(sp6.id()))
	t6, err := experiments.Table6Data(opt)
	sp6.end()
	if err != nil {
		return passOut{}, err
	}
	t6prog, i6 := w.prog.take()

	out := passOut{insts: i5 + i6}
	for _, r := range t5 {
		for _, pol := range core.Policies() {
			g := countGroup{pairs: t5prog[r.Bench+"/"+pol.String()]}
			for _, d := range experiments.Table5Depths {
				id := table5ID(r.Bench, d, pol)
				out.cells = append(out.cells, cellResult{ID: id, ISPI: r.ISPI[d][pol]})
				g.ids = append(g.ids, id)
			}
			out.groups = append(out.groups, g)
		}
	}
	for _, r := range t6 {
		for _, pol := range core.Policies() {
			id := table6ID(r.Bench, pol)
			out.cells = append(out.cells, cellResult{ID: id, ISPI: r.ISPI[pol]})
			out.groups = append(out.groups, countGroup{ids: []string{id}, pairs: t6prog[r.Bench+"/"+pol.String()]})
		}
	}
	out.paperErr = paperError(t5, t6)
	if tr != nil {
		out.cellDurs = spanCells(tr, opt.Spans, epochAt)
	}
	return out, nil
}

func table5ID(bench string, depth int, pol core.Policy) string {
	return fmt.Sprintf("t5/%s/d%d/%s", bench, depth, pol)
}

func table6ID(bench string, pol core.Policy) string {
	return fmt.Sprintf("t6/%s/%s", bench, pol)
}

// cells rebuilds the Table5Data and Table6Data configurations: the paper's baseline
// machine at each depth, then the 32K direct-mapped cache at depth 4.
func (w *paperTables) cells() []replayCell {
	var out []replayCell
	for _, b := range w.benches {
		for _, d := range experiments.Table5Depths {
			for _, pol := range core.Policies() {
				cfg := core.DefaultConfig()
				cfg.Policy = pol
				cfg.MaxUnresolved = d
				out = append(out, replayCell{id: table5ID(b.Profile().Name, d, pol), bench: b, seed: paperStreamSeed, cfg: cfg})
			}
		}
	}
	for _, b := range w.benches {
		for _, pol := range core.Policies() {
			cfg := core.DefaultConfig()
			cfg.Policy = pol
			cfg.ICache = cache.Config{SizeBytes: 32 * 1024, LineBytes: isa.DefaultLineBytes, Assoc: 1}
			out = append(out, replayCell{id: table6ID(b.Profile().Name, pol), bench: b, seed: paperStreamSeed, cfg: cfg})
		}
	}
	return out
}

func (w *paperTables) reference() ([]cellResult, error) {
	return replayReference(w.cells(), w.insts)
}

// ---- adaptive-flush ------------------------------------------------------

// The adaptive study's headline set-up: porky with the I-cache flushed
// every flushInterval insts, windows of windowInsts, the phase:6 chooser.
const (
	flushInterval = 15_000
	windowInsts   = 2_500
	chooserName   = "phase:6"
	chooserSeed   = 0
)

var adaptivePenalties = []int{5, 20}

// adaptiveFlush runs experiments.AdaptiveStudyData on porky: 10
// window-capturing static cells and 2 Adaptive cells.
type adaptiveFlush struct {
	insts int64
	bench *synth.Bench
	prog  progressLog
}

func (w *adaptiveFlush) setup(tr *tracer) (time.Duration, error) {
	b, d, err := buildProfiles(tr, 0, []synth.Profile{synth.Porky()})
	if err == nil {
		w.bench = b[0]
	}
	return d, err
}

func (w *adaptiveFlush) close() {}

func adaptiveID(pen int, pol core.Policy) string {
	return fmt.Sprintf("porky/p%d/%s", pen, pol)
}

func (w *adaptiveFlush) pass(tr *tracer, parent int) (passOut, error) {
	opt := experiments.Options{
		Insts: w.insts, Workers: poolWorkers, Benchmarks: []string{"porky"},
		FlushInterval: flushInterval, Progress: w.prog.add,
	}
	var epochAt time.Duration
	if tr != nil {
		opt.Spans = obs.NewSpanTracer()
		epochAt = tr.now()
	}
	w.prog.take()
	sp := tr.start("experiments", "experiments.AdaptiveStudyData", "", parent, 0)
	opt.Spans.SetSection(strconv.Itoa(sp.id()))
	d, err := experiments.AdaptiveStudyData(opt, chooserName, chooserSeed, windowInsts, adaptivePenalties)
	sp.end()
	if err != nil {
		return passOut{}, err
	}
	prog, insts := w.prog.take()
	out := passOut{insts: insts}
	ag := countGroup{pairs: prog["porky/adaptive"]}
	for i, row := range d.Oracle.Rows {
		for _, pol := range core.Policies() {
			ws := row.Series[pol]
			out.windows += int64(len(ws))
			out.cells = append(out.cells, cellFromWindows(adaptiveID(row.Penalty, pol), ws))
		}
		r := d.Rows[i]
		id := adaptiveID(r.Penalty, core.Adaptive)
		out.cells = append(out.cells, cellResult{ID: id, ISPI: r.ISPI, Switches: r.Switches})
		ag.ids = append(ag.ids, id)
		if r.Penalty == 20 {
			// Capture is undefined when the oracle finds no headroom; that
			// reads as 0, as it does on the workloads without the study.
			out.capture, _ = d.Capture(i)
		}
	}
	out.groups = append(out.groups, ag)
	if tr != nil {
		out.cellDurs = spanCells(tr, opt.Spans, epochAt)
	}
	return out, nil
}

// cells rebuilds the study's configurations: per penalty the five static
// policies (the window capture is observe-only, so the replay runs without
// it), then the Adaptive cell.
func (w *adaptiveFlush) cells() []replayCell {
	var out []replayCell
	for _, pen := range adaptivePenalties {
		for _, pol := range core.Policies() {
			cfg := core.DefaultConfig()
			cfg.Policy = pol
			cfg.MissPenalty = pen
			cfg.FlushInterval = flushInterval
			out = append(out, replayCell{id: adaptiveID(pen, pol), bench: w.bench, seed: paperStreamSeed, cfg: cfg})
		}
		cfg := core.DefaultConfig()
		cfg.Policy = core.Adaptive
		cfg.MissPenalty = pen
		cfg.FlushInterval = flushInterval
		cfg.AdaptStrategy = chooserName
		cfg.AdaptInterval = windowInsts
		cfg.AdaptSeed = chooserSeed
		out = append(out, replayCell{id: adaptiveID(pen, core.Adaptive), bench: w.bench, seed: paperStreamSeed, cfg: cfg})
	}
	return out
}

func (w *adaptiveFlush) reference() ([]cellResult, error) {
	return replayReference(w.cells(), w.insts)
}

// paperError is the mean |sim - paper| / paper, in percent, over the 15
// Table 5 and 5 Table 6 average ISPIs.
func paperError(t5 []experiments.Table5Row, t6 []experiments.Table6Row) float64 {
	var sum float64
	n := 0
	for _, ref := range paperAverages {
		var s float64
		if ref.depth > 0 {
			for _, r := range t5 {
				s += r.ISPI[ref.depth][ref.policy]
			}
			s /= float64(len(t5))
		} else {
			for _, r := range t6 {
				s += r.ISPI[ref.policy]
			}
			s /= float64(len(t6))
		}
		d := s - ref.ispi
		if d < 0 {
			d = -d
		}
		sum += d / ref.ispi
		n++
	}
	return 100 * sum / float64(n)
}
