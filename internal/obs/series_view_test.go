package obs_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"specfetch/internal/experiments"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
)

// These tests cover interval sampling end to end: snapshots sampled at
// interval edges by a WindowSeries, read back per window and through the
// series view that fetchsim -series files render to.

// seriesRows renders the series view of s as CSV and returns its data
// rows split into cells, header dropped.
func seriesRows(t *testing.T, s *obs.WindowSeries) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := experiments.SeriesTable(s.Records()).RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rows [][]string
	for _, l := range lines[1:] {
		rows = append(rows, strings.Split(l, ","))
	}
	return rows
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestIntervalSamplerPoints(t *testing.T) {
	s := obs.NewWindowSeries()
	// One 10-cycle bus transfer inside the first interval, carried by the
	// snapshot's cumulative BusBusy counter.
	var lost1 metrics.Breakdown
	lost1[metrics.RTICache] = 40
	s.Sample(obs.Snapshot{Cycle: 100, Insts: 200, Lost: lost1,
		RightPathAccesses: 50, RightPathMisses: 5, BusTransfers: 1, BusBusy: 10})

	var lost2 metrics.Breakdown
	lost2[metrics.RTICache] = 40
	lost2[metrics.Branch] = 60
	s.Sample(obs.Snapshot{Cycle: 150, Insts: 300, Lost: lost2,
		RightPathAccesses: 70, RightPathMisses: 5, BusTransfers: 1, BusBusy: 10})

	recs := s.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d windows, want 2", len(recs))
	}
	r0 := recs[0]
	if r0.EndInsts != 200 || r0.EndCycle != 100 {
		t.Errorf("r0 position = %d/%d", r0.EndInsts, r0.EndCycle)
	}
	if got, want := float64(r0.Insts())/float64(r0.Cycles()), 200.0/100.0; got != want {
		t.Errorf("r0 IPC = %v, want %v", got, want)
	}
	if want := 40.0 / 200.0; r0.ISPI() != want || r0.CompISPI(metrics.RTICache) != want {
		t.Errorf("r0 ISPI = %v comp %v, want %v", r0.ISPI(), r0.CompISPI(metrics.RTICache), want)
	}
	if want := 100 * 5.0 / 50.0; r0.MissPct() != want {
		t.Errorf("r0 MissPct = %v, want %v", r0.MissPct(), want)
	}
	if want := 100 * 10.0 / 100.0; r0.BusOccupancyPct() != want {
		t.Errorf("r0 BusOccupancyPct = %v, want %v", r0.BusOccupancyPct(), want)
	}

	r1 := recs[1]
	if want := 60.0 / 100.0; r1.ISPI() != want || r1.CompISPI(metrics.Branch) != want {
		t.Errorf("r1 ISPI = %v, want %v", r1.ISPI(), want)
	}
	if r1.MissPct() != 0 {
		t.Errorf("r1 MissPct = %v, want 0 (no new accesses)", r1.MissPct())
	}
	rows := seriesRows(t, s)
	if got, want := rows[1][4], fmtFloat(lost2.TotalISPI(300)); got != want {
		t.Errorf("r1 cum_ispi = %s, want %s", got, want)
	}
}

// TestIntervalSamplerRunEndMerge covers the run ending exactly on a sample
// boundary: the final engine sample adds stall slots but no instructions and
// must fold into the last window so cum_ispi matches the run's total.
func TestIntervalSamplerRunEndMerge(t *testing.T) {
	s := obs.NewWindowSeries()
	var lost1 metrics.Breakdown
	lost1[metrics.Branch] = 10
	s.Sample(obs.Snapshot{Cycle: 100, Insts: 100, Lost: lost1})
	var lost2 metrics.Breakdown
	lost2[metrics.Branch] = 10
	lost2[metrics.WrongICache] = 20
	s.Sample(obs.Snapshot{Cycle: 110, Insts: 100, Lost: lost2}) // run-end, zero new insts

	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d windows, want 1 (merged)", len(recs))
	}
	r := recs[0]
	if r.EndCycle != 110 {
		t.Errorf("merged window cycle = %d, want 110", r.EndCycle)
	}
	if want := 30.0 / 100.0; r.ISPI() != want {
		t.Errorf("ISPI = %v, want %v", r.ISPI(), want)
	}
	rows := seriesRows(t, s)
	if got, want := rows[0][4], fmtFloat(lost2.TotalISPI(100)); got != want {
		t.Errorf("cum_ispi = %s, want %s", got, want)
	}

	// An identical snapshot (nothing advanced) must not change anything.
	s.Sample(obs.Snapshot{Cycle: 110, Insts: 100, Lost: lost2})
	if got := s.Records(); len(got) != 1 || got[0] != r {
		t.Errorf("no-op sample changed the series: %+v", got)
	}
}

func TestIntervalSamplerCSV(t *testing.T) {
	s := obs.NewWindowSeries()
	var lost metrics.Breakdown
	lost[metrics.RTICache] = 50
	s.Sample(obs.Snapshot{Cycle: 75, Insts: 100, Lost: lost, RightPathAccesses: 25, RightPathMisses: 1})

	var buf bytes.Buffer
	if err := experiments.SeriesTable(s.Records()).RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	wantHeader := "insts,cycle,ipc,ispi,cum_ispi,ispi_branch_full,ispi_branch,ispi_force_resolve,ispi_bus,ispi_rt_icache,ispi_wrong_icache,miss_pct,bus_occupancy_pct"
	if lines[0] != wantHeader {
		t.Errorf("header = %q\nwant     %q", lines[0], wantHeader)
	}
	cols := strings.Split(lines[1], ",")
	if len(cols) != len(strings.Split(wantHeader, ",")) {
		t.Fatalf("row has %d columns, header %d", len(cols), len(strings.Split(wantHeader, ",")))
	}
	if cols[0] != "100" || cols[1] != "75" {
		t.Errorf("row position = %s,%s", cols[0], cols[1])
	}
}
