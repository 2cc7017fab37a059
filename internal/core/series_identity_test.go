package core

import (
	"reflect"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// The series-identity suite: interval sampling is part of the machine's
// observable behaviour, so the skip-ahead core must emit the exact snapshot
// sequence the reference stepper does — including snapshots interpolated at
// sample boundaries that fall inside a bulk plain-issue delta. These tests
// hold WindowSeries records to element-wise identity across both step modes, and prove a sample-only probe leaves the
// run's Result untouched (the disabled-path neutrality the layer promises).

// runSampled executes one cell in the given mode with probe attached via
// Config.Probe, returning the Result.
func runSampled(t *testing.T, cfg Config, bench *synth.Bench, seed uint64,
	mode StepMode, probe obs.Probe, insts int64) Result {
	t.Helper()
	cfg.StepMode = mode
	cfg.MaxInsts = insts
	cfg.Probe = probe
	rd := trace.NewLimitReader(bench.NewWalker(seed), insts+insts/4)
	pred, err := bpred.ByName("")
	if err != nil {
		t.Fatalf("predictor: %v", err)
	}
	res, err := Run(cfg, bench.Image(), rd, pred())
	if err != nil {
		t.Fatalf("%s policy %v mode %v: %v", bench.Profile().Name, cfg.Policy, mode, err)
	}
	return res
}

// TestSeriesIdentityAcrossStepModes pins the interval series to step-mode
// identity on one profile across every policy, both paper miss penalties,
// and sample intervals chosen to land boundaries mid-bulk (prime), mid-cycle
// (not a width multiple), and on cycle edges (width multiple).
func TestSeriesIdentityAcrossStepModes(t *testing.T) {
	t.Parallel()
	const insts = 30_000
	bench := synth.MustBuild(synth.GCC())
	for _, pen := range []int{5, 20} {
		for _, interval := range []int64{257, 1000, 4096} {
			for _, pol := range Policies() {
				cfg := DefaultConfig()
				cfg.Policy = pol
				cfg.MissPenalty = pen
				cfg.SampleInterval = interval

				winRef := obs.NewWindowSeries()
				winFast := obs.NewWindowSeries()
				resRef := runSampled(t, cfg, bench, 0x5eed, StepReference, winRef, insts)
				resFast := runSampled(t, cfg, bench, 0x5eed, StepSkipAhead, winFast, insts)
				if !reflect.DeepEqual(resRef, resFast) {
					t.Fatalf("pen %d interval %d policy %v: Results differ between modes", pen, interval, pol)
				}
				rr, fr := winRef.Records(), winFast.Records()
				if !reflect.DeepEqual(rr, fr) {
					n := min(len(rr), len(fr))
					for i := 0; i < n; i++ {
						if rr[i] != fr[i] {
							t.Fatalf("pen %d interval %d policy %v: window %d differs\nreference: %+v\nskipahead: %+v",
								pen, interval, pol, i, rr[i], fr[i])
						}
					}
					t.Fatalf("pen %d interval %d policy %v: window count differs: reference %d, skipahead %d",
						pen, interval, pol, len(rr), len(fr))
				}

				// A sample-only probe must not perturb the run: the Result
				// equals a probe-free run's bit for bit.
				bare := runSampled(t, cfg, bench, 0x5eed, StepSkipAhead, nil, insts)
				if !reflect.DeepEqual(bare, resFast) {
					t.Fatalf("pen %d interval %d policy %v: sample-only probe changed the Result", pen, interval, pol)
				}
			}
		}
	}
}

// TestSampleOnlyProbeKeepsFastIssue pins the gate decision: a window series
// attached alone keeps the bulk path enabled, while
// an event-consuming probe (or a Multi composite, which might hide one)
// disables it.
func TestSampleOnlyProbeKeepsFastIssue(t *testing.T) {
	t.Parallel()
	bench := synth.MustBuild(synth.GCC())
	mk := func(probe obs.Probe) *Engine {
		cfg := DefaultConfig()
		cfg.SampleInterval = 1000
		cfg.MaxInsts = 1000
		cfg.Probe = probe
		rd := trace.NewLimitReader(bench.NewWalker(1), 2000)
		pred, _ := bpred.ByName("")
		e, err := NewEngine(cfg, bench.Image(), rd, pred())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if e := mk(obs.NewWindowSeries()); !e.fastIssue || e.sampler == nil || e.probe != nil {
		t.Errorf("WindowSeries: fastIssue=%v sampler=%v probe=%v; want true/set/nil",
			e.fastIssue, e.sampler != nil, e.probe != nil)
	}
	if e := mk(obs.NewEventRecorder(16)); e.fastIssue {
		t.Error("event recorder left fastIssue enabled")
	}
	if e := mk(obs.Multi(obs.NewWindowSeries(), obs.NewWindowSeries())); e.fastIssue {
		t.Error("Multi composite left fastIssue enabled (it cannot prove all parts sample-only)")
	}
}

// TestMidSkipBudgetStopSeriesMerge is the run-end merge regression: with the
// instruction budget a multiple of the sample interval and the final
// stretch of the run issued by the bulk path, the boundary sample for the
// last instruction is emitted from inside the bulk delta and the engine's
// run-end sample then arrives with the same instruction count but a later
// cycle (the trailing cycles the clock jumped over). That trailing sample
// must merge into the last window — never drop, never append a duplicate —
// in both step modes, leaving cumulative values equal to the Result's.
func TestMidSkipBudgetStopSeriesMerge(t *testing.T) {
	t.Parallel()
	// A plain-heavy stand-in maximises the chance the budget boundary lands
	// inside a bulk region (long basic blocks, fat loop bodies).
	p := synth.Su2cor()
	p.Name = "bulkmerge"
	p.MeanBlockLen *= 2
	bench := synth.MustBuild(p)

	const interval, insts = 5_000, 30_000
	for _, pol := range []Policy{Oracle, Resume} {
		for _, mode := range []StepMode{StepReference, StepSkipAhead} {
			cfg := DefaultConfig()
			cfg.Policy = pol
			cfg.SampleInterval = interval

			win := obs.NewWindowSeries()
			res := runSampled(t, cfg, bench, 7, mode, win, insts)

			recs := win.Records()
			if want := insts / interval; len(recs) != int(want) {
				t.Fatalf("%v/%v: %d windows, want %d (trailing sample must merge, not append or drop)",
					pol, mode, len(recs), want)
			}
			wlast := recs[len(recs)-1]
			if wlast.EndInsts != insts || wlast.EndCycle != res.Cycles.Int64() {
				t.Errorf("%v/%v: last window ends at %d insts / cycle %d, want %d / %d",
					pol, mode, wlast.EndInsts, wlast.EndCycle, int64(insts), res.Cycles.Int64())
			}
			var lostSum int64
			for _, r := range recs {
				lostSum += r.TotalLost()
			}
			var resLost int64
			for _, c := range res.Lost {
				resLost += c.Int64()
			}
			if lostSum != resLost {
				t.Errorf("%v/%v: windows carry %d lost slots, run total %d (double count or drop)",
					pol, mode, lostSum, resLost)
			}
		}
	}
}
