// Command perfbench is specfetch's repository benchmark. It runs one of three
// closed-loop workloads — fixed work-lists run to completion, over and over
// for the requested number of seconds — on the in-process pool with two
// workers, checks every simulated cell against the committed expected
// results, and prints the end-to-end metrics as one JSON line. With
// --trace 1 it instead times and counts the calls into each layer (synth,
// core, bpred, cache, adaptive, obs, experiments, distsweep), writes the
// spans as a Chrome trace, and prints the per-layer metrics.
//
// Run it through perfbench/run.sh from the root of the repository, which
// builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
)

// poolWorkers is the pool width every workload runs at: the benchmark's
// reference machine has two CPUs.
const poolWorkers = 2

// metricDef names one reported metric. base, when set, is the quantity a
// share or ratio is taken of; the report prints it beside the value.
type metricDef struct {
	name, unit, base string
}

// endToEnd are the metrics a user of a sweep sees, reported with tracing
// off. The names and units must match BENCHMARK.json (main_test.go checks).
var endToEnd = []metricDef{
	{"setup_s", "s", "median of the set-ups made in the run"},
	{"wall_s", "s", "median host time of one pass over the work-list"},
	{"sim_minsts_per_s", "Minsts/s", "sum of Result.Insts of a pass / wall_s"},
	{"cpu_s", "s", "median process user+sys time of one pass"},
	{"peak_rss_mb", "MB", "process max RSS"},
}

// perLayer are the traced run's metrics, one group per module.
var perLayer = []metricDef{
	{"synth.build_s", "s", "median synth.Build time of the workload's profiles"},
	{"synth.minsts_per_s", "Minsts/s", "walker alone over the workload's streams"},
	{"core.minsts_per_s", "Minsts/s", "core.Run over pre-collected trace.SliceReader streams"},
	{"core.minsts_per_s.oracle", "Minsts/s", ""},
	{"core.minsts_per_s.optimistic", "Minsts/s", ""},
	{"core.minsts_per_s.resume", "Minsts/s", ""},
	{"core.minsts_per_s.pessimistic", "Minsts/s", ""},
	{"core.minsts_per_s.decode", "Minsts/s", ""},
	{"core.minsts_per_s.adaptive", "Minsts/s", ""},
	{"core.skipahead_speedup", "x", "reference-stepper time / skip-ahead time, sampled cells"},
	{"core.busy_frac", "frac", "sum of core.Run replay time of 2 x wall_s"},
	{"core.wrong_path_ratio", "frac", "WrongPathInsts of Insts"},
	{"core.sim_cycles", "cycles", "sum of Result.Cycles over the work-list"},
	{"bpred.mops_per_s", "Mops/s", "isolated replay of the recorded predictor calls, sampled cells"},
	{"bpred.ops", "count", "predictor calls, sampled cells"},
	{"bpred.pht_accuracy", "frac", "1 - PHTMispredicts of CondBranches"},
	{"cache.maccesses_per_s", "Maccesses/s", "isolated replay of the right-path line stream, sampled cells"},
	{"cache.accesses", "count", "right- and wrong-path line references"},
	{"cache.miss_ratio", "frac", "misses of cache.accesses"},
	{"cache.bus_transfers", "count", "line transfers over the bus"},
	{"cache.bus_useful_frac", "frac", "demand fills of cache.bus_transfers"},
	{"adaptive.decisions", "count", "Chooser.Decide calls"},
	{"adaptive.switches", "count", "decisions that changed the active policy"},
	{"adaptive.decide_us_p50", "us", "median Chooser.Decide time"},
	{"obs.windows", "count", "window records captured by the work-list"},
	{"obs.window_overhead_pct", "%", "core.Run time with a window series of the time without, sampled static cells"},
	{"experiments.cell_s_p50", "s", "median cell span"},
	{"experiments.cell_s_p95", "s", "95th-percentile cell span"},
	{"experiments.pool_busy_frac", "frac", "sum of cell spans of 2 x pass wall"},
	{"distsweep.batches", "count", "remote batches per pass"},
	{"distsweep.batch_rtt_ms_p50", "ms", "median POST /v1/run round trip"},
	{"distsweep.batch_exec_ms_p50", "ms", "median time the worker's Runner spent on a batch"},
	{"distsweep.overhead_ms_p50", "ms", "median rtt - exec per batch"},
	{"distsweep.wire_kb_per_batch", "KB", "request + response bytes per batch"},
	{"distsweep.retries", "count", "Coordinator.Status retries per pass"},
	{"distsweep.local_fallbacks", "count", "Coordinator.Status local batches per pass"},
	{"go.alloc_mb", "MB", "runtime.MemStats TotalAlloc delta per pass"},
	{"go.gc_cycles", "count", "runtime.MemStats NumGC delta per pass"},
	{"failed_frac", "frac", "failed cells of attempted cells, traced run"},
	{"paper_err_pct", "%", "mean |sim - paper| / paper over the 20 Table 5/6 average ISPIs (paper-tables only)"},
	{"adaptive_capture_pct", "%", "AdaptiveData.Capture at the 20-cycle cell (adaptive-flush only)"},
	{"tracing.overhead_pct", "%", "median traced pass wall of median untraced pass wall"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// insts overrides the workload's per-cell instruction budget (0 keeps it).
	insts int64
	// traceOut is the directory the traced run writes its Chrome trace to.
	traceOut string
	// expected holds the committed results the run is checked against.
	expected map[string]*expectedFile
	log      io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, embeddedExpected))
}

// run parses args, runs the workload, checking it against the expected
// results in expected, and prints the result line; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer, expected fs.FS) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var o options
	var traced int
	flags.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	o.seed = 1
	flags.Func("seed", "workload seed, any 64-bit integer (fleet-seeds derives its stream seeds from it; default 1)", func(s string) error {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			o.seed = v
			return nil
		}
		v, err := strconv.ParseInt(s, 10, 64)
		o.seed = uint64(v)
		return err
	})
	flags.Float64Var(&o.seconds, "seconds", 10, "how long to keep repeating the work-list")
	flags.IntVar(&traced, "trace", 0, "1 runs the traced per-layer measurement instead")
	flags.Int64Var(&o.insts, "insts", 0, "per-cell instruction budget (0 = the workload's default)")
	flags.StringVar(&o.traceOut, "trace-out", ".bench_build/trace", "directory for the traced run's Chrome trace")
	regen := flags.String("regen", "", "recompute the workload's expected results into this directory and exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if traced != 0 && traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traced)
		return 2
	}
	o.traced = traced == 1
	o.log = stderr
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.insts == 0 {
		o.insts = w.insts
	}
	if *regen != "" {
		if err := regenerate(w, o, *regen); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	exp, err := loadExpected(expected)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o.expected = exp
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload dispatches to the untraced or traced measurement.
func runWorkload(w workloadDef, o options) (result, error) {
	exp, ok := o.expected[w.name]
	if !ok {
		return result{}, fmt.Errorf("no expected results for workload %s", w.name)
	}
	if exp.Insts != o.insts {
		return result{}, fmt.Errorf("expected results for %s are at %d insts/cell, the run is at %d",
			w.name, exp.Insts, o.insts)
	}
	if o.traced {
		return runTraced(w, o, exp)
	}
	return runUntraced(w, o, exp)
}

// withUnits attaches each def's unit to its measured value; every def must
// have been measured.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

// printReport writes the metrics, each with its base, to the log.
func printReport(log io.Writer, title string, defs []metricDef, m map[string]metric) {
	fmt.Fprintf(log, "%s\n", title)
	names := make([]string, 0, len(defs))
	base := map[string]string{}
	for _, d := range defs {
		names = append(names, d.name)
		base[d.name] = d.base
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		if b := base[n]; b != "" {
			fmt.Fprintf(log, "  %-32s %14.6g %-12s (%s)\n", n, v.Value, v.Unit, b)
		} else {
			fmt.Fprintf(log, "  %-32s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
}
