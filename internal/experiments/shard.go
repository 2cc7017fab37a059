package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"specfetch/internal/adaptive"
	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// The sweep executor. Every table, figure, and study in this package is the
// same shape: an explicit work-list of independent cells (one benchmark
// simulated under one configuration), executed on a bounded worker pool, then
// reduced serially in work-list order. Because cell i's result lands in slot
// i and the reduction never looks at completion order, rendered artifacts are
// byte-identical to a serial run regardless of scheduling.

// workers resolves Options.Workers: 0 means GOMAXPROCS, anything below 1
// after that means serial.
func (opt Options) workers() int {
	w := opt.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// cellFailure records the lowest-indexed cell that errored or panicked.
type cellFailure struct {
	idx     int
	err     error
	payload any
	isPanic bool
}

// pool runs fn(worker, i) for i in [0,n) on up to opt.workers() goroutines;
// worker is the 0-based index of the goroutine running the cell (always 0 on
// the serial path), which the host span tracer uses as its timeline track.
// Cell indexes are dispensed in increasing order; after a cell fails, no new
// cell is started, already-running cells finish, and the pool drains before
// reporting. The failure surfaced is the one with the smallest index — and
// that is deterministic: indexes are handed out in order, so the smallest
// failing index is always dispatched (and therefore observed) no matter how
// the scheduler interleaves the workers. A panicking cell (e.g. an
// *obs.AuditError from a sampled audit) is re-panicked on the caller's
// goroutine with its original value once the pool has drained.
func pool(opt Options, n int, fn func(worker, i int) error) error {
	workers := opt.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		stop atomic.Bool
		mu   sync.Mutex
		fail *cellFailure
	)
	next.Store(-1)
	record := func(f cellFailure) {
		mu.Lock()
		if fail == nil || f.idx < fail.idx {
			fail = &f
		}
		mu.Unlock()
		stop.Store(true)
	}
	runOne := func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				record(cellFailure{idx: i, payload: r, isPanic: true})
			}
		}()
		if err := fn(w, i); err != nil {
			record(cellFailure{idx: i, err: err})
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				runOne(w, i)
			}
		}(w)
	}
	wg.Wait()
	if fail == nil {
		return nil
	}
	if fail.isPanic {
		panic(fail.payload)
	}
	return fail.err
}

// mapCells runs fn over [0,n) on the pool and returns the index-keyed
// results — the deterministic reduction every builder hangs off. fn's first
// argument is the pool worker index running the cell.
func mapCells[T any](opt Options, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := pool(opt, n, func(w, i int) error {
		v, err := fn(w, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// benchRows evaluates fn once per benchmark on the pool, preserving bench
// order — for per-benchmark work that is not a simulation cell (trace
// scans, miss classification, layout reorders). Each row is wrapped in one
// host span ("<bench>/row").
func benchRows[T any](opt Options, benches []*synth.Bench, fn func(b *synth.Bench) (T, error)) ([]T, error) {
	return mapCells(opt, len(benches), func(w, i int) (T, error) {
		sp := spanStart(opt, benches[i].Profile().Name+"/row", w)
		v, err := fn(benches[i])
		spanEnd(opt, sp)
		return v, err
	})
}

// runCell is one independent unit of sweep work: one benchmark simulated
// under one configuration over one dynamic stream.
type runCell struct {
	bench *synth.Bench
	cfg   core.Config
	seed  uint64
	// pred names the predictor kind from bpred.ByName ("" = default
	// decoupled); a name rather than a constructor so cells stay
	// serializable for the distributed executor. Used by the
	// branch-architecture ablation.
	pred string
}

// newCell builds a cell on the experiments' shared stream seed.
func newCell(b *synth.Bench, cfg core.Config) runCell {
	return runCell{bench: b, cfg: cfg, seed: defaultStreamSeed}
}

// cellOut pairs one cell's Result with its captured window series (nil
// unless Options.CaptureWindows was set).
type cellOut struct {
	res     core.Result
	windows []obs.WindowRecord
}

// runCells executes a work-list and returns results keyed by cell index.
// With a remote fleet configured (Options.Dispatch) and every cell
// serializable, the list is dispatched across processes; otherwise — and
// for any batch the fleet cannot complete — it runs on the in-process
// pool. Either way results land at their cell's index, so the caller's
// serial reduction renders identical bytes.
func runCells(opt Options, cells []runCell) ([]core.Result, error) {
	full, err := runCellsFull(opt, cells)
	if err != nil {
		return nil, err
	}
	out := make([]core.Result, len(full))
	for i, c := range full {
		out[i] = c.res
	}
	return out, nil
}

// runCellsFull is runCells keeping each cell's window series alongside its
// Result — the executor entry point for the interval-analytics builders.
func runCellsFull(opt Options, cells []runCell) ([]cellOut, error) {
	if coord := opt.Dispatch; coord != nil {
		if res, ok, err := runCellsRemote(opt, coord, cells); ok {
			return res, err
		}
	}
	return runCellsLocal(opt, cells)
}

// runCellsLocal executes a work-list on the in-process pool. With host
// tracing enabled (Options.Spans), every cell is wrapped in a span named
// "<bench>/<policy>" on the worker that ran it. Two per-pool reuses make the
// steady state cheap without changing a byte of output: dynamic streams read
// by several cells are generated once and replayed (sharedTraces), and each
// pool worker keeps one core.Arena so consecutive cells on it reuse queue
// and cache storage instead of reallocating.
func runCellsLocal(opt Options, cells []runCell) ([]cellOut, error) {
	shared := sharedTraces(opt, cells)
	arenas := make([]*core.Arena, opt.workers())
	return mapCells(opt, len(cells), func(w, i int) (cellOut, error) {
		var sp obs.SpanHandle
		if opt.Spans != nil {
			sp = opt.Spans.Start(
				cells[i].bench.Profile().Name+"/"+cells[i].cfg.Policy.String(), w)
		}
		if arenas[w] == nil {
			arenas[w] = core.NewArena()
		}
		var rd trace.Reader
		if s := shared[cellTraceKey(cells[i], opt)]; s != nil {
			rd = s.reader()
			defer s.release()
		}
		res, wins, err := simulateCell(cells[i], opt, rd, arenas[w])
		spanEnd(opt, sp)
		if err != nil {
			return cellOut{}, fmt.Errorf("%s/%s: %w",
				cells[i].bench.Profile().Name, cells[i].cfg.Policy, err)
		}
		return cellOut{res: res, windows: wins}, nil
	})
}

// spanStart opens a host span when tracing is enabled (nil tracers return
// an inert handle).
func spanStart(opt Options, name string, worker int) obs.SpanHandle {
	return opt.Spans.Start(name, worker)
}

// spanEnd completes a host span and feeds its latency into the campaign
// metrics histogram. Host timing is observe-only: nothing here touches
// simulated state, so sweep bytes are identical with tracing on or off.
func spanEnd(opt Options, sp obs.SpanHandle) {
	span, ok := sp.End()
	if !ok {
		return
	}
	if opt.Metrics != nil {
		opt.Metrics.Histogram("specfetch_cell_seconds",
			"Host wall time per sweep work unit (simulation cell or per-benchmark row).").
			Observe(span.Dur.Seconds())
	}
}

// simulateCell runs one cell with a fresh engine, cache, and predictor — on
// an in-process pool worker or, through JobRunner, on a fleet worker. With
// Options.AuditSample > 0 it attaches a sampled obs.AuditProbe to the run:
// stream violations panic (the pool re-surfaces them), and the final
// accounting identities are verified before the result is accepted. rd,
// when non-nil, is a replay cursor over the cell's shared stream;
// arena, when non-nil, donates storage from earlier cells on the same
// worker. Both are behaviour-neutral. With Options.CaptureWindows set
// (which requires a positive sample interval) the run carries an
// obs.WindowSeries and the records come back as the second return; a
// sample-only series attached alone keeps the engine's bulk path enabled,
// so capture costs the interpolated samples and nothing else.
func simulateCell(c runCell, opt Options, rd trace.Reader, arena *core.Arena) (core.Result, []obs.WindowRecord, error) {
	cfg := c.cfg
	cfg.MaxInsts = opt.Insts
	cfg.StepMode = opt.stepMode()
	cfg.Arena = arena
	if cfg.Policy == core.Adaptive && cfg.Chooser == nil {
		// Cells travel chooser-free (the chooser is in-process-only state, so
		// a cell that carried one could not go to the fleet); the chooser is
		// built here, just in time, from the serializable strategy name and
		// seed — the same code path on a pool worker and a remote daemon.
		ch, cerr := adaptive.New(cfg.AdaptStrategy, cfg.AdaptSeed)
		if cerr != nil {
			return core.Result{}, nil, cerr
		}
		cfg.Chooser = ch
	}
	if opt.SampleInterval > 0 {
		cfg.SampleInterval = opt.SampleInterval
	}
	var win *obs.WindowSeries
	if opt.CaptureWindows {
		if cfg.SampleInterval <= 0 {
			return core.Result{}, nil, fmt.Errorf("experiments: CaptureWindows requires a positive SampleInterval")
		}
		win = obs.NewWindowSeries()
		if cfg.Probe != nil {
			cfg.Probe = obs.Multi(cfg.Probe, win)
		} else {
			cfg.Probe = win
		}
	}
	var aud *obs.AuditProbe
	if opt.AuditSample > 0 {
		aud = obs.NewAuditProbe(obs.AuditOptions{
			Width:           cfg.FetchWidth,
			AllowBusOverlap: cfg.PipelinedMemory,
			SampleEvery:     opt.AuditSample,
		})
		if cfg.Probe != nil {
			cfg.Probe = obs.Multi(cfg.Probe, aud)
		} else {
			cfg.Probe = aud
		}
	}
	mk, err := bpred.ByName(c.pred)
	if err != nil {
		return core.Result{}, nil, err
	}
	pred := mk()
	if rd == nil {
		rd = trace.NewLimitReader(c.bench.NewWalker(c.seed), traceLimit(opt.Insts))
	}
	res, err := core.Run(cfg, c.bench.Image(), rd, pred)
	if err != nil {
		return res, nil, err
	}
	if aud != nil {
		if verr := aud.Verify(res.AuditFinal()); verr != nil {
			return res, nil, verr
		}
	}
	opt.observe(c.bench.Profile().Name, cfg.Policy, res)
	var wins []obs.WindowRecord
	if win != nil {
		wins = win.Records()
	}
	return res, wins, nil
}
