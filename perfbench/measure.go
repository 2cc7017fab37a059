package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"specfetch/internal/hosttime"
)

const (
	// setupRepeats set-ups are timed per run; setup_s is their median.
	setupRepeats = 21
	// minPasses passes run even when --seconds is shorter than that.
	minPasses = 3
)

// tally counts the cells a run attempted and the ones that failed.
type tally struct {
	attempted, failed int64
}

// record checks one pass against the expected results.
func (t *tally) record(o options, exp *expectedFile, out passOut) {
	bad := exp.check(out.cells, out.groups)
	t.attempted += int64(len(out.cells))
	t.failed += int64(len(bad))
	for id := range bad {
		fmt.Fprintf(o.log, "perfbench: cell %s differs from its expected result\n", id)
	}
}

// lose counts a pass that errored or panicked: every cell failed.
func (t *tally) lose(o options, n int, err error) {
	fmt.Fprintf(o.log, "perfbench: pass failed: %v\n", err)
	t.attempted += int64(n)
	t.failed += int64(n)
}

// safePass runs one pass, turning a panic into an error.
func safePass(w workload, tr *tracer, parent int) (out passOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.pass(tr, parent)
}

// setups times setupRepeats set-ups and returns their durations and the
// synth.Build time within each.
func setups(w workload, tr *tracer) (setup, build []float64, err error) {
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		sp := tr.start("bench", "setup", "", 0, 0)
		b, err := w.setup(tr)
		d := sp.end()
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, d.Seconds())
		build = append(build, b.Seconds())
	}
	return setup, build, nil
}

// passStat is one timed pass.
type passStat struct {
	wall, cpu float64
	insts     int64
	out       passOut
	// allocMB and gcs are runtime.MemStats deltas (traced passes only).
	allocMB, gcs float64
}

// timedPass runs one pass after a collection, so each pass starts from the
// same heap, and times it. A traced pass also reads the MemStats deltas.
func timedPass(w workload, tr *tracer) (passStat, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := cpuSeconds()
	sp := tr.start("bench", "pass", "", 0, 0)
	out, err := safePass(w, tr, sp.id())
	wall := sp.end()
	st := passStat{wall: wall.Seconds(), cpu: cpuSeconds() - cpu0, insts: out.insts, out: out}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		st.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		st.gcs = float64(m1.NumGC - m0.NumGC)
	}
	return st, err
}

// runUntraced measures the end-to-end metrics: set-up, then passes over the
// work-list until --seconds have gone by.
func runUntraced(wd workloadDef, o options, exp *expectedFile) (result, error) {
	w := wd.open(o)
	defer w.close()
	setup, _, err := setups(w, nil)
	if err != nil {
		return result{}, err
	}
	var t tally
	var passes []passStat
	ncells := len(w.cells())
	start := hosttime.Now()
	for n := 0; n < minPasses || hosttime.Since(start).Seconds()+median(walls(passes)) <= o.seconds; n++ {
		st, err := timedPass(w, nil)
		if err != nil {
			t.lose(o, ncells, err)
			continue
		}
		t.record(o, exp, st.out)
		passes = append(passes, st)
		fmt.Fprintf(o.log, "pass %d: wall %.4f s, cpu %.4f s\n", len(passes), st.wall, st.cpu)
	}
	if err := verify(w, &t); err != nil {
		return result{}, err
	}
	var rates, cpus []float64
	for _, p := range passes {
		rates = append(rates, float64(p.insts)/p.wall/1e6)
		cpus = append(cpus, p.cpu)
	}
	m, err := withUnits(endToEnd, map[string]float64{
		"setup_s":          median(setup),
		"wall_s":           median(walls(passes)),
		"sim_minsts_per_s": median(rates),
		"cpu_s":            median(cpus),
		"peak_rss_mb":      peakRSSMB(),
	})
	if err != nil {
		return result{}, err
	}
	printReport(o.log, fmt.Sprintf("%s: %d passes, %d cells attempted, %d failed", wd.name, len(passes), t.attempted, t.failed), endToEnd, m)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// verify runs the workload's extra post-run check, if it has one.
func verify(w workload, t *tally) error {
	v, ok := w.(verifier)
	if !ok {
		return nil
	}
	failed, err := v.verify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	t.failed += failed
	return nil
}

// runTraced measures the per-layer metrics. It times set-ups, alternates
// untraced and traced passes for --seconds (their difference is the
// tracing overhead), then replays the work-list's cells layer by layer.
func runTraced(wd workloadDef, o options, exp *expectedFile) (result, error) {
	w := wd.open(o)
	defer w.close()
	tr := newTracer()
	_, build, err := setups(w, tr)
	if err != nil {
		return result{}, err
	}
	var t tally
	var plain, traced []passStat
	ncells := len(w.cells())
	start := hosttime.Now()
	for n := 0; n < minPasses || hosttime.Since(start).Seconds()+median(walls(plain))+median(walls(traced)) <= o.seconds; n++ {
		for _, withTrace := range []bool{false, true} {
			var ptr *tracer
			if withTrace {
				ptr = tr
			}
			st, err := timedPass(w, ptr)
			if err != nil {
				t.lose(o, ncells, err)
				continue
			}
			t.record(o, exp, st.out)
			if withTrace {
				traced = append(traced, st)
			} else {
				plain = append(plain, st)
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return result{}, fmt.Errorf("every pass failed")
	}
	if err := verify(w, &t); err != nil {
		return result{}, err
	}
	wall := median(walls(plain))
	m := map[string]float64{
		"synth.build_s":        median(build),
		"obs.windows":          float64(traced[0].out.windows),
		"paper_err_pct":        traced[0].out.paperErr,
		"adaptive_capture_pct": traced[0].out.capture,
		"tracing.overhead_pct": 100 * (median(walls(traced))/wall - 1),
	}
	passLayers(m, traced)

	lm, lt, err := replayLayers(w.cells(), o.insts, exp, tr, wall, o.log)
	if err != nil {
		return result{}, err
	}
	for k, v := range lm {
		m[k] = v
	}
	t.attempted += lt.attempted
	t.failed += lt.failed
	m["failed_frac"] = float64(t.failed) / float64(t.attempted)

	path := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.json", wd.name, o.seed))
	if err := tr.writeChrome(path); err != nil {
		return result{}, err
	}
	out, err := withUnits(perLayer, m)
	if err != nil {
		return result{}, err
	}
	printReport(o.log, fmt.Sprintf("%s traced: %d+%d passes, %d cells attempted, %d failed; spans in %s",
		wd.name, len(plain), len(traced), t.attempted, t.failed, path), perLayer, out)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out}, nil
}

// passLayers fills the metrics the traced passes give: cell spans, pool
// occupancy, allocation and the distsweep wire.
func passLayers(m map[string]float64, traced []passStat) {
	var cells, busy, alloc, gcs []float64
	var batches, retries, locals []float64
	var rtt, exec, over []float64
	var wire, nb float64
	for _, p := range traced {
		var sum time.Duration
		for _, d := range p.out.cellDurs {
			cells = append(cells, d.Seconds())
			sum += d
		}
		busy = append(busy, sum.Seconds()/(poolWorkers*p.wall))
		alloc = append(alloc, p.allocMB)
		gcs = append(gcs, p.gcs)
		f := p.out.fleet
		if f == nil {
			f = &fleetPass{}
		}
		batches = append(batches, float64(len(f.rtt)))
		retries = append(retries, float64(f.retries))
		locals = append(locals, float64(f.locals))
		for i := range f.rtt {
			rtt = append(rtt, ms(f.rtt[i]))
			exec = append(exec, ms(f.exec[i]))
			over = append(over, ms(f.rtt[i]-f.exec[i]))
		}
		wire += float64(f.wireBytes)
		nb += float64(len(f.rtt))
	}
	m["experiments.cell_s_p50"] = median(cells)
	m["experiments.cell_s_p95"] = quantile(cells, 0.95)
	m["experiments.pool_busy_frac"] = median(busy)
	m["go.alloc_mb"] = median(alloc)
	m["go.gc_cycles"] = median(gcs)
	m["distsweep.batches"] = median(batches)
	m["distsweep.retries"] = median(retries)
	m["distsweep.local_fallbacks"] = median(locals)
	m["distsweep.batch_rtt_ms_p50"] = median(rtt)
	m["distsweep.batch_exec_ms_p50"] = median(exec)
	m["distsweep.overhead_ms_p50"] = median(over)
	m["distsweep.wire_kb_per_batch"] = 0
	if nb > 0 {
		m["distsweep.wire_kb_per_batch"] = wire / nb / 1024
	}
}

func walls(ps []passStat) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

// median returns the middle value (mean of the two middle ones), or 0 for
// no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile, or 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the process's user+sys time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
