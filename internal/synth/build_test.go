package synth

import (
	"runtime"
	"testing"
)

// buildProfiles builds every stock profile once.
func buildProfiles(tb testing.TB) []*Bench {
	var out []*Bench
	for _, p := range Profiles() {
		b, err := Build(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestBuildAllocBound bounds what building the 13 stock profiles
// allocates. Staging each image as one 4-byte word per instruction keeps
// it near 11 MB; a 16-byte instruction slice grown by append, plus a
// separate plain-run table, allocated ~30 MB.
func TestBuildAllocBound(t *testing.T) {
	const bound = 14 << 20
	buildProfiles(t) // warm any lazily built tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	benches := buildProfiles(t)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	insts := 0
	for _, b := range benches {
		insts += b.Image().NumInsts()
	}
	t.Logf("built %d instructions, allocated %.2f MB (%.1f B/inst)",
		insts, float64(got)/1e6, float64(got)/float64(insts))
	if got > bound {
		t.Errorf("building the stock profiles allocated %d bytes, want <= %d", got, bound)
	}
}

// BenchmarkBuild times synth.Build over the 13 stock profiles, the set-up
// every experiment runs before its first cell.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildProfiles(b)
	}
}
