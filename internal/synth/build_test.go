package synth

import (
	"errors"
	"io"
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
// allocates. Staging each image as one 4-byte word per instruction and
// keeping the sites in slices keeps it near 9.3 MB; address-keyed site maps
// took it to 11.1 MB, and a 16-byte instruction slice grown by append, plus
// a separate plain-run table, to ~30 MB.
func TestBuildAllocBound(t *testing.T) {
	const bound = 10 << 20
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

// TestBuildRetainedBound bounds the live heap the 13 stock profiles hold
// once built: about 2 MB with 4-byte image slots and dense site tables,
// against 3.35 MB when the sites lived in address-keyed maps.
func TestBuildRetainedBound(t *testing.T) {
	const bound = 2_500_000
	buildProfiles(t) // warm any lazily built tables
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	benches := buildProfiles(t)
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	insts := 0
	for _, b := range benches {
		insts += b.Image().NumInsts()
	}
	runtime.KeepAlive(benches)
	t.Logf("built %d instructions, retained %.2f MB (%.2f B/inst)",
		insts, float64(got)/1e6, float64(got)/float64(insts))
	if got > bound {
		t.Errorf("the built stock profiles retain %d bytes, want <= %d", got, bound)
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

// BenchmarkWalk times the walker over each stock profile's first 1M
// correct-path instructions, the stream every uncached cell consumes.
func BenchmarkWalk(b *testing.B) {
	const insts = 1_000_000
	for _, bench := range buildProfiles(b) {
		bench := bench
		b.Run(bench.Profile().Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rd := bench.NewReader(1, insts)
				for {
					rec, err := rd.Next()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					walkSink += rec.N
				}
			}
			b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsts/s")
		})
	}
}

var walkSink int
