package experiments

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
	"specfetch/internal/sweeplog"
	"specfetch/internal/synth"
)

// Options selects what and how much to simulate.
type Options struct {
	// Insts is the per-benchmark correct-path instruction budget.
	Insts int64
	// Benchmarks restricts the run to these profile names (nil = all 13).
	Benchmarks []string
	// Workers bounds the sweep executor's worker pool: 0 means GOMAXPROCS,
	// 1 runs every cell serially on the calling goroutine. Rendered tables
	// and figures are byte-identical at every worker count; see shard.go.
	Workers int
	// AuditSample, when positive, attaches a sampled obs.AuditProbe to every
	// simulation in the sweep (SampleEvery = AuditSample; 1 audits every
	// region). Stream violations panic with a cycle-stamped *obs.AuditError,
	// and each run's final accounting identities are verified.
	AuditSample int
	// Progress, if non-nil, receives a one-line message after each completed
	// simulation. Runs execute on worker goroutines, so it may be called
	// concurrently.
	Progress func(msg string)
	// Metrics, if non-nil, accumulates campaign counters
	// (specfetch_simulations_total, specfetch_simulated_insts_total) and,
	// when Spans is also set, the specfetch_cell_seconds latency histogram.
	Metrics *obs.Registry
	// Spans, if non-nil, records one host-side span per sweep work unit
	// (simulation cell or ablation row): wall time, pool worker, and heap
	// allocations. Tracing is observe-only — rendered sweep bytes are
	// byte-identical with it on or off (asserted by the differential
	// harness in shard_test.go).
	Spans *obs.SpanTracer
	// SweepLog, if non-nil, receives the structured scheduling decisions of
	// Remote dispatch (retries, backoffs, evictions, local fallbacks). Like
	// Spans, it is observe-only and never touches rendered bytes. It only
	// takes effect when this Options builds the coordinator (Dispatch nil);
	// an explicit Dispatch carries its own logger.
	SweepLog *sweeplog.Logger
	// Remote lists sweepworker base URLs ("http://host:8477"). When
	// non-empty, every serializable sweep cell is dispatched to these
	// workers in batches over the distsweep protocol instead of running on
	// the in-process pool; cells that carry in-process-only state (probes,
	// access callbacks), and any batch the fleet cannot complete, fall
	// back to the local executor. Reduction order is unchanged, so
	// rendered bytes are invariant in process count exactly as they are in
	// worker count.
	Remote []string
	// Dispatch, when non-nil, is the coordinator used for Remote dispatch,
	// letting one coordinator's retry/backoff/eviction state span many
	// builders. Nil with Remote set uses a process-wide coordinator shared
	// by every Options naming the same worker list.
	Dispatch *distsweep.Coordinator
	// SampleInterval, when positive, stamps Config.SampleInterval onto every
	// cell so attached samplers (and CaptureWindows) see fixed
	// instruction-count boundaries. Like AuditSample it is observe-only:
	// simulated results are bit-identical with it on or off.
	SampleInterval int64
	// FlushInterval, when positive, stamps Config.FlushInterval onto the
	// cells of the studies that honor it (the oracle selector and the
	// adaptive study): the I-cache is invalidated every FlushInterval
	// correct-path instructions, modeling periodic context switches. Unlike
	// SampleInterval this is NOT observe-only — it changes simulated
	// results — which is why it only applies to the studies whose question
	// ("does adaptation pay under phased behavior?") it defines. Zero keeps
	// every cache warm for the whole run, the historical behavior.
	FlushInterval int64
	// CaptureWindows returns each cell's per-interval window series
	// (obs.WindowRecord) alongside its Result — the raw material of the
	// interval-analytics builders. Requires a positive SampleInterval. The
	// capture crosses the distsweep wire as a flag on the JobSpec, so
	// window-carrying sweeps still dispatch to remote fleets.
	CaptureWindows bool
	// StepMode selects the engine's time-advance strategy for every cell:
	// the skip-ahead event core (the zero value) or the cycle-by-cycle
	// reference stepper. The two produce bit-identical results (see
	// core/stepmode_diff_test.go); the knob exists so sweeps can be pinned
	// or cross-checked. When unset, the SPECFETCH_STEPMODE environment
	// variable ("skipahead"/"reference") applies — the CI matrix uses it to
	// run the golden suite under both cores without code changes.
	StepMode core.StepMode
}

// envStepMode resolves SPECFETCH_STEPMODE once; an unparsable value panics
// (silently ignoring a typo would quietly un-pin a CI matrix leg).
var envStepMode = sync.OnceValue(func() core.StepMode {
	v := os.Getenv("SPECFETCH_STEPMODE")
	if v == "" {
		return core.StepSkipAhead
	}
	m, err := core.ParseStepMode(v)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad SPECFETCH_STEPMODE: %v", err))
	}
	return m
})

// ParseStepMode re-exports core.ParseStepMode so command-line layers that
// already depend on experiments need no direct core import for the flag.
func ParseStepMode(s string) (core.StepMode, error) { return core.ParseStepMode(s) }

// stepMode resolves the effective engine mode for this Options.
func (opt Options) stepMode() core.StepMode {
	if opt.StepMode != core.StepSkipAhead {
		return opt.StepMode
	}
	return envStepMode()
}

// observe reports one finished simulation to the optional progress and
// metrics sinks.
func (opt Options) observe(bench string, pol core.Policy, res core.Result) {
	if opt.Metrics != nil {
		opt.Metrics.Counter("specfetch_simulations_total",
			"Completed simulation runs.").Inc()
		opt.Metrics.Counter("specfetch_simulated_insts_total",
			"Correct-path instructions simulated.").Add(res.Insts)
	}
	if opt.Progress != nil {
		opt.Progress(fmt.Sprintf("%s/%s: %d insts, %d cycles, ISPI %.3f",
			bench, pol, res.Insts, res.Cycles, res.TotalISPI()))
	}
}

// QuickOptions is used by tests: fewer instructions, representative subset.
func QuickOptions() Options {
	return Options{Insts: 300_000, Benchmarks: []string{"doduc", "gcc", "groff"}}
}

// selected returns the benchmark profiles the options name, in paper order.
func selected(opt Options) ([]synth.Profile, error) {
	all := synth.Profiles()
	if opt.Benchmarks == nil {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range opt.Benchmarks {
		want[n] = true
	}
	var out []synth.Profile
	for _, p := range all {
		if want[p.Name] {
			out = append(out, p)
			delete(want, p.Name)
		}
	}
	if len(want) > 0 {
		var missing []string
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("experiments: unknown benchmarks %v", missing)
	}
	return out, nil
}

// buildAll generates the selected benchmarks.
func buildAll(opt Options) ([]*synth.Bench, error) {
	profs, err := selected(opt)
	if err != nil {
		return nil, err
	}
	return mapCells(opt, len(profs), func(_, i int) (*synth.Bench, error) {
		return synth.Build(profs[i])
	})
}

// mean computes the arithmetic mean the paper's "Average" rows use.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// buildAllFromProfile generates one benchmark (test helper).
func buildAllFromProfile(p synth.Profile) (*synth.Bench, error) { return synth.Build(p) }
