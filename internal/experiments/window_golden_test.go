package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"specfetch/internal/adaptive"
	"specfetch/internal/core"
	"specfetch/internal/obs"
)

// recordingChooser forwards to a real strategy and logs every window digest
// it is handed, so the exact (Index, Active, LostPerInst) sequence the engine
// produces can be pinned.
type recordingChooser struct {
	inner core.Chooser
	log   bytes.Buffer
}

func (c *recordingChooser) First() core.Policy { return c.inner.First() }

func (c *recordingChooser) Decide(w core.AdaptWindow) core.Policy {
	fmt.Fprintf(&c.log, "%d %s %s\n", w.Index, w.Active,
		strconv.FormatFloat(w.LostPerInst(), 'g', -1, 64))
	return c.inner.Decide(w)
}

// windowPlaneOpt is the golden's geometry: the shipped adaptive study cell
// (porky, flush every 15000 instructions, 2500-instruction windows, phase:6)
// cut to a 200k-instruction budget.
func windowPlaneOpt(mode core.StepMode) Options {
	return Options{
		Insts:         200_000,
		Benchmarks:    []string{"porky"},
		FlushInterval: 15_000,
		Workers:       1,
		StepMode:      mode,
	}
}

// renderWindowPlane runs one adaptive cell under a sample-only probe and a
// recording chooser and returns the chooser log.
func renderWindowPlane(t *testing.T, opt Options, probe obs.Probe) string {
	t.Helper()
	benches, err := buildAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := adaptive.New("phase:6", 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingChooser{inner: inner}
	cfg := baseConfig(core.Adaptive)
	cfg.MissPenalty = 20
	cfg.FlushInterval = opt.FlushInterval
	cfg.AdaptStrategy = "phase:6"
	cfg.AdaptInterval = 2_500
	cfg.Chooser = rec
	cfg.SampleInterval = 2_500
	cfg.Probe = probe
	if _, _, err := simulateCell(newCell(benches[0], cfg), opt, nil, nil); err != nil {
		t.Fatal(err)
	}
	return rec.log.String()
}

// windowPlaneBytes flattens every consumer of the per-window digest into
// one byte string: the series table's CSV (the section name predates it),
// the window series' records, the chooser's decision inputs, and the
// adaptive study render.
func windowPlaneBytes(t *testing.T, mode core.StepMode) string {
	t.Helper()
	opt := windowPlaneOpt(mode)
	var b bytes.Buffer

	series := obs.NewWindowSeries()
	decisions := renderWindowPlane(t, opt, series)
	b.WriteString("== interval sampler csv\n")
	if err := SeriesTable(series.Records()).RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("== window series records\n")
	recs, err := json.Marshal(series.Records())
	if err != nil {
		t.Fatal(err)
	}
	b.Write(recs)
	b.WriteString("\n== chooser decisions (index active lost/inst)\n")
	b.WriteString(decisions)

	d, err := AdaptiveStudyData(opt, "phase:6", 0, 2_500, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== adaptive study\n")
	if err := d.CrossoverTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(d.WinnerMap())
	return b.String()
}

// TestWindowPlaneGoldenPinned pins every window-plane consumer's bytes to a
// golden captured before the engine's two boundary schedules and the three
// per-window digest types were merged into one. Both step modes must
// reproduce it exactly. Regenerate with -update only for a change that is
// meant to alter window outputs.
func TestWindowPlaneGoldenPinned(t *testing.T) {
	golden := filepath.Join("testdata", "window_plane.golden")
	for _, mode := range []core.StepMode{core.StepSkipAhead, core.StepReference} {
		got := windowPlaneBytes(t, mode)
		if *update && mode == core.StepSkipAhead {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("%v: window-plane bytes differ from the pinned golden", mode)
		}
	}
}
