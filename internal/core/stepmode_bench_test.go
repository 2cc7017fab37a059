package core

import (
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// BenchmarkStepMode measures whole-run throughput in both step modes on the
// lowest-miss-rate stock profile (su2cor, ~5% at 8K) — the profile where
// skip-ahead has the most room — plus the highest-miss-rate one (fpppp) as
// the adversarial floor. Report interpretation: ns/op is one full
// 200k-instruction cell.
func BenchmarkStepMode(b *testing.B) {
	const insts = 200_000
	for _, prof := range []synth.Profile{synth.Su2cor(), synth.Fpppp()} {
		bench := synth.MustBuild(prof)
		for _, mode := range []StepMode{StepSkipAhead, StepReference} {
			b.Run(prof.Name+"/"+mode.String(), func(b *testing.B) {
				arena := NewArena()
				cfg := DefaultConfig()
				cfg.Policy = Resume
				cfg.StepMode = mode
				cfg.MaxInsts = insts
				cfg.Arena = arena
				mk, err := bpred.ByName("")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rd := trace.NewLimitReader(bench.NewWalker(prof.Seed), insts+insts/4)
					if _, err := Run(cfg, bench.Image(), rd, mk()); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(0)
				b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsts/s")
			})
		}
	}
}
