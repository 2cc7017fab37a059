package experiments

import (
	"bytes"
	"strings"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
)

// TestSeriesTable pins the series view's columns and rates on a hand-built
// run: two windows, the second re-closed by a run-end sample that adds
// stall slots but no instructions, so the last row's cum_ispi must cover
// the merged slots.
func TestSeriesTable(t *testing.T) {
	s := obs.NewWindowSeries()
	var lost metrics.Breakdown
	lost[metrics.RTICache] = 40
	s.Sample(obs.Snapshot{Cycle: 100, Insts: 200, Lost: lost,
		RightPathAccesses: 50, RightPathMisses: 5, BusTransfers: 1, BusBusy: 10})
	lost[metrics.Branch] = 60
	s.Sample(obs.Snapshot{Cycle: 150, Insts: 300, Lost: lost,
		RightPathAccesses: 70, RightPathMisses: 5, BusTransfers: 1, BusBusy: 10})
	lost[metrics.WrongICache] = 30
	s.Sample(obs.Snapshot{Cycle: 160, Insts: 300, Lost: lost,
		RightPathAccesses: 70, RightPathMisses: 5, BusTransfers: 1, BusBusy: 10})

	var b bytes.Buffer
	if err := SeriesTable(s.Records()).RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"insts,cycle,ipc,ispi,cum_ispi,ispi_branch_full,ispi_branch,ispi_force_resolve,ispi_bus,ispi_rt_icache,ispi_wrong_icache,miss_pct,bus_occupancy_pct",
		"200,100,2,0.2,0.2,0,0,0,0,0.2,0,10,10",
		"300,160,1.6666666666666667,0.9,0.43333333333333335,0,0.6,0,0,0,0.3,0,0",
		"",
	}, "\n")
	if b.String() != want {
		t.Errorf("series CSV:\n%s\nwant:\n%s", b.String(), want)
	}
	if got := SeriesTable(nil).String(); !strings.HasPrefix(got, "insts") || strings.Count(got, "\n") != 2 {
		t.Errorf("empty series renders %q, want the header and rule only", got)
	}
}

// TestIntervalLineRoundTrip: a single-run line (the fetchsim -series form,
// policy adaptive included) survives the writer and the line parser.
func TestIntervalLineRoundTrip(t *testing.T) {
	in := IntervalLine{Bench: "gcc (C)", Penalty: 20, Policy: core.Adaptive, Interval: 2500,
		Windows: []obs.WindowRecord{win(0, 0, 2500, 7), win(1, 2500, 5000, 9)}}
	var b bytes.Buffer
	if err := WriteIntervalLines(&b, in); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), `{"v":1,"bench":"gcc (C)","penalty":20,"policy":5,"interval":2500,"windows":[`) {
		t.Errorf("line = %s", b.String())
	}
	out, err := ReadIntervalLines(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Bench != in.Bench || out[0].Penalty != in.Penalty ||
		out[0].Policy != in.Policy || out[0].Interval != in.Interval || len(out[0].Windows) != 2 ||
		out[0].Windows[1] != in.Windows[1] || out[0].V != 1 {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}
