package experiments

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// renderAblations renders every registered ablation, in sorted name order,
// into one string.
func renderAblations(t *testing.T, opt Options) string {
	t.Helper()
	reg := Ablations()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		tab, err := reg[name](opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sb.WriteString("== " + name + "\n" + tab.String() + "\n")
	}
	return sb.String()
}

// TestAblationsGoldenPinned pins the rendered bytes of all eleven ablation
// tables (gcc and groff, 50k instructions) at one and at seven pool
// workers. Regenerate with -update only for a change that is meant to alter
// an ablation's numbers.
func TestAblationsGoldenPinned(t *testing.T) {
	golden := filepath.Join("testdata", "ablations.golden")
	for _, workers := range []int{1, 7} {
		opt := Options{Insts: 50_000, Benchmarks: []string{"gcc", "groff"}, Workers: workers}
		got := renderAblations(t, opt)
		if *update && workers == 1 {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("Workers=%d: ablation bytes differ from the pinned golden\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}
