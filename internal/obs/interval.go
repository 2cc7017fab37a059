package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"specfetch/internal/metrics"
)

// SeriesPoint is one row of the -series export: one Window rendered as
// rates. Rate fields describe the window; CumISPI is cumulative
// since run start, so the last point's CumISPI equals the run's final
// Result.TotalISPI exactly.
type SeriesPoint struct {
	// Insts / Cycle locate the sample (cumulative instruction count and
	// cycle at the sample point).
	Insts int64 `json:"insts"`
	Cycle int64 `json:"cycle"`
	// IPC is useful instructions per cycle over the interval.
	IPC float64 `json:"ipc"`
	// ISPI is total issue slots lost per instruction over the interval.
	ISPI float64 `json:"ispi"`
	// CumISPI is total ISPI from run start through this sample.
	CumISPI float64 `json:"cum_ispi"`
	// CompISPI is the interval ISPI per penalty component, indexed in the
	// paper's stacking order (metrics.Components()).
	CompISPI [metrics.NumComponents]float64 `json:"comp_ispi"`
	// MissPct is right-path misses per structural line reference over the
	// interval, as a percentage.
	MissPct float64 `json:"miss_pct"`
	// BusOccupancyPct is the fraction of interval cycles the memory bus was
	// occupied, as a percentage (can exceed 100 with pipelined memory).
	BusOccupancyPct float64 `json:"bus_occupancy_pct"`
}

// IntervalSampler renders a WindowSeries as a SeriesPoint time series (the
// -series export). It is a sample-only probe: every input it needs —
// including bus occupancy — arrives in the Snapshot, so attaching it via
// Config.Probe (with a positive Config.SampleInterval) keeps the skip-ahead
// bulk issue path enabled.
type IntervalSampler struct {
	WindowSeries
}

// NewIntervalSampler builds an empty sampler.
func NewIntervalSampler() *IntervalSampler { return &IntervalSampler{} }

// Points returns the series, oldest first. Each point covers one window;
// CumISPI comes from a running sum of the windows' lost slots, which tile
// the run from its start.
func (s *IntervalSampler) Points() []SeriesPoint {
	if len(s.windows) == 0 {
		return nil
	}
	pts := make([]SeriesPoint, len(s.windows))
	var cum metrics.Breakdown
	for i, w := range s.windows {
		cum.AddAll(w.Lost)
		pts[i] = point(w, cum)
	}
	return pts
}

// point renders one window as a series point; cum is the cumulative lost
// breakdown through the window's end.
func point(w Window, cum metrics.Breakdown) SeriesPoint {
	n := w.Insts()
	p := SeriesPoint{Insts: w.EndInsts, Cycle: w.EndCycle.Int64()}
	for i, l := range w.Lost {
		p.CompISPI[i] = float64(l) / float64(n)
	}
	p.ISPI = w.LostPerInst()
	p.CumISPI = cum.TotalISPI(w.EndInsts)
	if dCycles := w.EndCycle - w.StartCycle; dCycles > 0 {
		p.IPC = float64(n) / float64(dCycles)
		p.BusOccupancyPct = 100 * float64(w.BusBusy) / float64(dCycles)
	}
	if w.Accesses > 0 {
		p.MissPct = 100 * float64(w.Misses) / float64(w.Accesses)
	}
	return p
}

// WriteCSV writes the series with a header row; component columns follow
// the paper's stacking order, prefixed "ispi_".
func (s *IntervalSampler) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("insts,cycle,ipc,ispi,cum_ispi"); err != nil {
		return err
	}
	for _, c := range metrics.Components() {
		fmt.Fprintf(bw, ",ispi_%s", c)
	}
	if _, err := bw.WriteString(",miss_pct,bus_occupancy_pct\n"); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, p := range s.Points() {
		fmt.Fprintf(bw, "%d,%d,%s,%s,%s", p.Insts, p.Cycle, f(p.IPC), f(p.ISPI), f(p.CumISPI))
		for _, v := range p.CompISPI {
			fmt.Fprintf(bw, ",%s", f(v))
		}
		fmt.Fprintf(bw, ",%s,%s\n", f(p.MissPct), f(p.BusOccupancyPct))
	}
	return bw.Flush()
}

// WriteJSON writes the series as a JSON array of points.
func (s *IntervalSampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	pts := s.Points()
	if pts == nil {
		pts = []SeriesPoint{}
	}
	return enc.Encode(pts)
}
