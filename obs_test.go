// Integration tests for the observability layer through the public facade:
// a probed run must reproduce the unprobed Result exactly, the window
// series table must end on the run's own cumulative ISPI, and the exported
// timeline must be valid Chrome trace-event JSON.
package specfetch_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"specfetch"
	"specfetch/internal/experiments"
)

// lastSeriesRow renders the window series as experiments.SeriesTable CSV
// and returns its last row's insts, cycle and cum_ispi columns.
func lastSeriesRow(t *testing.T, win *specfetch.WindowSeries) (insts, cycle int64, cumISPI float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := experiments.SeriesTable(win.Records()).RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(rows) < 2 {
		t.Fatal("no series rows")
	}
	cols := strings.Split(rows[len(rows)-1], ",")
	insts, errI := strconv.ParseInt(cols[0], 10, 64)
	cycle, errC := strconv.ParseInt(cols[1], 10, 64)
	cumISPI, errF := strconv.ParseFloat(cols[4], 64)
	if err := errors.Join(errI, errC, errF); err != nil {
		t.Fatalf("last series row %q: %v", rows[len(rows)-1], err)
	}
	return insts, cycle, cumISPI
}

func TestObservedRunMatchesResult(t *testing.T) {
	bench, err := specfetch.BuildBenchmark(specfetch.GCC())
	if err != nil {
		t.Fatal(err)
	}
	const insts = 150_000
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Resume
	cfg.NextLinePrefetch = true

	base, err := specfetch.RunBenchmark(bench, cfg, insts, 1)
	if err != nil {
		t.Fatal(err)
	}

	rec := specfetch.NewEventRecorder(1 << 20)
	win := specfetch.NewWindowSeries()
	cfg.Probe = specfetch.MultiProbe(rec, win)
	cfg.SampleInterval = 10_000
	res, err := specfetch.RunBenchmark(bench, cfg, insts, 1)
	if err != nil {
		t.Fatal(err)
	}

	if res != base {
		t.Errorf("probed run diverged from base run:\nprobed %+v\n  base %+v", res, base)
	}

	// The acceptance bar: the series' final cumulative ISPI equals the
	// run's own TotalISPI.
	lastInsts, lastCycle, cum := lastSeriesRow(t, win)
	if got, want := cum, res.TotalISPI(); math.Abs(got-want) > 1e-9 {
		t.Errorf("final cum_ispi = %.12f, want %.12f (run TotalISPI)", got, want)
	}
	if lastInsts != res.Insts || lastCycle != res.Cycles.Int64() {
		t.Errorf("final row at %d insts / %d cycles, run ended at %d / %d",
			lastInsts, lastCycle, res.Insts, res.Cycles)
	}

	if rec.Total() == 0 {
		t.Error("recorder saw no events")
	}

	// The timeline export must be well-formed trace-event JSON.
	var buf bytes.Buffer
	if err := (specfetch.CombinedTrace{Events: rec.Events()}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("timeline has no events")
	}
}

func TestRunWithProbe(t *testing.T) {
	bench, err := specfetch.BuildBenchmark(specfetch.Groff())
	if err != nil {
		t.Fatal(err)
	}
	const insts = 50_000
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Optimistic
	cfg.MaxInsts = insts

	win := specfetch.NewWindowSeries()
	cfg.Probe = win
	cfg.SampleInterval = 5_000
	res, err := specfetch.Run(cfg, bench.Image(), bench.NewReader(7, insts*2), specfetch.NewPredictor())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, cum := lastSeriesRow(t, win); math.Abs(cum-res.TotalISPI()) > 1e-9 {
		t.Errorf("final cum_ispi = %.12f, want %.12f", cum, res.TotalISPI())
	}
}
