package core

import (
	"reflect"
	"sync"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// FuzzStepModeEquivalence is the property-based arm of the differential
// suite: the fuzzer drives the full Config knob space (non-power-of-two
// fetch widths, minimal latencies, tiny caches, every extension, the
// Adaptive meta-policy, window sampling) plus the walker seed, and every
// input must yield bit-identical final Results, window records, and chooser
// inputs from the skip-ahead core and the reference stepper. `go test` runs the seeded
// corpus below as regular unit cases; `go test -fuzz=FuzzStepModeEquivalence
// ./internal/core` explores beyond it.

// fuzzBenches builds one synthetic benchmark per stock profile, once per
// process (fuzz workers reuse the process, so this amortizes).
var fuzzBenches = sync.OnceValue(func() []*synth.Bench {
	ps := synth.Profiles()
	bs := make([]*synth.Bench, len(ps))
	for i, p := range ps {
		bs[i] = synth.MustBuild(p)
	}
	return bs
})

// fuzzChooser is a deterministic digest-driven strategy: every decision is a
// hash of the whole window it was shown, so any digest difference between
// the step modes also diverges the run that follows.
type fuzzChooser struct{ h uint64 }

func (c *fuzzChooser) First() Policy { return Policies()[0] }
func (c *fuzzChooser) Decide(w AdaptWindow) Policy {
	for _, v := range []int64{w.Index, w.EndInsts, w.EndCycle.Int64(), w.Lost.Total().Int64(),
		w.Accesses, w.Misses, int64(w.BusTransfers), w.BusBusy.Int64(), int64(w.Active)} {
		c.h = (c.h ^ uint64(v)) * 0x100000001b3
	}
	return Policies()[c.h%uint64(len(Policies()))]
}

// fuzzConfig decodes a 64-bit knob word into a Config. Fields are consumed
// in a fixed order so corpus entries stay interpretable; every decoded value
// lands in (or is clamped to) its legal range, and Validate is still run on
// the result as a belt-and-braces skip.
func fuzzConfig(bits uint64) Config {
	take := func(n uint) uint64 {
		v := bits & (1<<n - 1)
		bits >>= n
		return v
	}
	cfg := DefaultConfig()
	cfg.Policy = Policies()[take(3)%uint64(len(Policies()))]
	cfg.FetchWidth = int(take(3)) + 1    // 1..8, non-powers of two included
	cfg.MaxUnresolved = int(take(2)) + 1 // 1..4
	cfg.MissPenalty = int(take(5)) + 1   // 1..32
	cfg.DecodeLatency = int(take(2)) + 1 // 1..4
	cfg.ResolveLatency = cfg.DecodeLatency + int(take(2))
	cfg.ICache.SizeBytes = 1024 << take(2) // 1K..8K
	cfg.ICache.LineBytes = 16 << take(1)   // 16 or 32
	cfg.ICache.Assoc = 1 << take(1)        // 1 or 2
	cfg.ICache.VictimLines = int(take(2))  // 0..3
	cfg.MSHRs = int(take(2))               // 0..3
	cfg.RASDepth = int(take(2)) * 4        // 0, 4, 8, 12
	cfg.NextLinePrefetch = take(1) == 1
	if take(1) == 1 {
		cfg.NextLinePrefetch = true
		cfg.TargetPrefetch = true
	}
	cfg.StreamDepth = int(take(2)) // 0..3
	if cfg.StreamDepth > 0 {
		cfg.NextLinePrefetch = true
	}
	cfg.PipelinedMemory = take(1) == 1
	if take(1) == 1 {
		l2 := cache.Config{SizeBytes: 16 * 1024, LineBytes: cfg.ICache.LineBytes, Assoc: 2}
		cfg.L2 = &l2
		cfg.L2Latency = 1 + int(take(2))
		if cfg.L2Latency > cfg.MissPenalty {
			cfg.L2Latency = cfg.MissPenalty
		}
	} else {
		take(2)
	}
	if take(1) == 1 {
		cfg.FlushInterval = 500 + int64(take(10))
	} else {
		take(10)
	}
	// The window plane: an Adaptive run (the chooser is attached per run)
	// and a sample interval, drawn equal to the adapt interval or
	// independently; the step-3 and step-5 grids hit every residue modulo
	// any fetch width, so boundaries land at every in-cycle slot.
	if take(1) == 1 {
		cfg.Policy = Adaptive
	}
	cfg.AdaptInterval = 1 + 3*int64(take(8)) // 1..766
	if take(1) == 1 {
		cfg.SampleInterval = cfg.AdaptInterval
	} else {
		cfg.SampleInterval = 1 + 5*int64(take(7)) // 1..636
	}
	return cfg
}

func FuzzStepModeEquivalence(f *testing.F) {
	// The seeded corpus covers each structural regime at least once: the
	// paper baseline, minimal latencies, narrow and wide fetch, every
	// extension knob, and a few dense words that set many at a time.
	f.Add(uint64(0), uint64(1), uint8(0)) // near-baseline, policy 0
	f.Add(uint64(0x0000_0000_0000_0001), uint64(2), uint8(1))
	f.Add(uint64(0x0000_0000_0000_ffff), uint64(3), uint8(2))  // min penalty regime
	f.Add(uint64(0x0000_0000_ffff_0000), uint64(4), uint8(3))  // cache geometry bits
	f.Add(uint64(0x0000_3fff_0000_0000), uint64(5), uint8(4))  // prefetch + L2 bits
	f.Add(uint64(0x0000_3ff8_0000_0000), uint64(6), uint8(5))  // flush bits
	f.Add(uint64(0x1234_5678_9abc_def0), uint64(7), uint8(6))  // dense mixed
	f.Add(uint64(0xfedc_ba98_7654_3210), uint64(8), uint8(9))  // dense mixed
	f.Add(uint64(0xaaaa_aaaa_aaaa_aaaa), uint64(9), uint8(11)) // alternating
	f.Add(uint64(0x5555_5555_5555_5555), uint64(10), uint8(12))
	// Window-plane regimes (bits 46..63: adaptive, adapt interval, equal
	// intervals, sample interval).
	f.Add(uint64(1<<46|1<<55), uint64(11), uint8(3))                               // adaptive, intervals 1 / 1
	f.Add(uint64(1<<46|255<<47|1<<55), uint64(12), uint8(7))                       // adaptive, equal 766
	f.Add(uint64(0x0000_3ff8_0000_0000|1<<46|166<<47|1<<55), uint64(13), uint8(8)) // adaptive + flush, equal 499
	f.Add(uint64(0x5|1<<46|100<<47|17<<56), uint64(14), uint8(5))                  // width 1, adapt 301, sample 86
	f.Add(uint64(0x30|33<<47|63<<56), uint64(15), uint8(2))                        // static, width 7, sampled 316

	f.Fuzz(func(t *testing.T, bits, seed uint64, profileIdx uint8) {
		cfg := fuzzConfig(bits)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		benches := fuzzBenches()
		bench := benches[int(profileIdx)%len(benches)]

		const insts = 6_000
		cfg.MaxInsts = insts
		type run struct {
			res     Result
			err     error
			windows []obs.WindowRecord
			digests []AdaptWindow
		}
		runMode := func(mode StepMode, arena *Arena) run {
			c := cfg
			c.StepMode = mode
			c.Arena = arena
			rec := &recordingChooser{inner: &fuzzChooser{}}
			if c.Policy == Adaptive {
				c.Chooser = rec
			}
			series := obs.NewWindowSeries()
			c.Probe = series
			rd := trace.NewLimitReader(bench.NewWalker(seed), insts+insts/4)
			res, err := Run(c, bench.Image(), rd, bpred.NewDefaultDecoupled())
			return run{res, err, series.Records(), rec.windows}
		}
		r, f := runMode(StepReference, nil), runMode(StepSkipAhead, NewArena())
		ref, refErr, fast, fastErr := r.res, r.err, f.res, f.err
		switch {
		case (refErr == nil) != (fastErr == nil):
			t.Fatalf("error mismatch: reference %v, skipahead %v\ncfg: %+v", refErr, fastErr, cfg)
		case refErr != nil:
			if refErr.Error() != fastErr.Error() {
				t.Fatalf("errors differ: reference %q, skipahead %q\ncfg: %+v", refErr, fastErr, cfg)
			}
		case !reflect.DeepEqual(ref, fast):
			t.Fatalf("Results differ (profile %s, seed %d)\ncfg: %+v\nreference: %+v\nskipahead: %+v",
				bench.Profile().Name, seed, cfg, ref, fast)
		case !reflect.DeepEqual(r.windows, f.windows):
			t.Fatalf("window records differ (profile %s, seed %d)\ncfg: %+v", bench.Profile().Name, seed, cfg)
		case !reflect.DeepEqual(r.digests, f.digests):
			t.Fatalf("chooser inputs differ (profile %s, seed %d)\ncfg: %+v", bench.Profile().Name, seed, cfg)
		}
	})
}
