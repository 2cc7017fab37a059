package obs

import (
	"specfetch/internal/metrics"
)

// Window is one closed instruction-count window of a run in the typed
// Cycles/Slots domain: the difference of two cumulative Snapshots. It is the
// one per-window digest of the window plane. WindowSeries stores it and
// converts it to WindowRecords at the wire boundary (every window export
// reads those), and the Adaptive chooser's core.AdaptWindow embeds it.
type Window struct {
	// StartInsts/EndInsts bound the window in cumulative correct-path
	// instructions.
	StartInsts, EndInsts int64
	// StartCycle/EndCycle bound the window on the simulated clock.
	StartCycle, EndCycle metrics.Cycles
	// Lost is the window's lost-slot breakdown, in the paper's stacking
	// order (metrics.Components()).
	Lost metrics.Breakdown
	// Accesses/Misses count the window's structural right-path line
	// references and their misses.
	Accesses, Misses int64
	// BusTransfers counts line movements over the memory bus in the window;
	// BusBusy is the cycles the bus spent transferring.
	BusTransfers uint64
	BusBusy      metrics.Cycles
}

// Between differences two cumulative snapshots into the window from..to.
func Between(from, to Snapshot) Window {
	w := Window{
		StartInsts:   from.Insts,
		EndInsts:     to.Insts,
		StartCycle:   from.Cycle,
		EndCycle:     to.Cycle,
		Accesses:     to.RightPathAccesses - from.RightPathAccesses,
		Misses:       to.RightPathMisses - from.RightPathMisses,
		BusTransfers: to.BusTransfers - from.BusTransfers,
		BusBusy:      to.BusBusy - from.BusBusy,
	}
	for i := range w.Lost {
		w.Lost[i] = to.Lost[i] - from.Lost[i]
	}
	return w
}

// Insts returns the number of instructions issued in the window.
func (w Window) Insts() int64 { return w.EndInsts - w.StartInsts }

// LostPerInst returns the window's issue slots lost per instruction — the
// per-window ISPI.
func (w Window) LostPerInst() float64 { return w.Lost.TotalISPI(w.Insts()) }

// WindowRecord is the wire/export form of a Window, the unit the
// interval-analytics layer aligns across policies. Every quantity is a raw
// int64 (unit conversions happen once, at Records), so the JSON encoding is
// stable and language-neutral. Start values are the cumulative counters at
// the window's opening edge, so consecutive records tile the run: record
// i+1's StartInsts equals record i's EndInsts.
type WindowRecord struct {
	// Index is the window's position in the series, from 0.
	Index int `json:"index"`
	// StartInsts/EndInsts bound the window in cumulative correct-path
	// instructions; series from different policies over the same trace
	// align on these.
	StartInsts int64 `json:"start_insts"`
	EndInsts   int64 `json:"end_insts"`
	// StartCycle/EndCycle bound the window on the simulated clock.
	StartCycle int64 `json:"start_cycle"`
	EndCycle   int64 `json:"end_cycle"`
	// Lost is the window's lost issue slots per penalty component, in the
	// paper's stacking order (metrics.Components()).
	Lost [metrics.NumComponents]int64 `json:"lost"`
	// Accesses/Misses count the window's structural right-path line
	// references and their misses.
	Accesses int64 `json:"accesses"`
	Misses   int64 `json:"misses"`
	// BusTransfers counts line movements over the memory bus in the window;
	// BusBusy is the cycles the bus spent transferring.
	BusTransfers int64 `json:"bus_transfers"`
	BusBusy      int64 `json:"bus_busy"`
}

// Insts returns the number of instructions issued in the window.
func (r WindowRecord) Insts() int64 { return r.EndInsts - r.StartInsts }

// Cycles returns the number of cycles the window spans.
func (r WindowRecord) Cycles() int64 { return r.EndCycle - r.StartCycle }

// TotalLost returns the window's lost slots summed over components.
func (r WindowRecord) TotalLost() int64 {
	var t int64
	for _, l := range r.Lost {
		t += l
	}
	return t
}

// ISPI returns the window's issue slots lost per instruction.
func (r WindowRecord) ISPI() float64 {
	if n := r.Insts(); n > 0 {
		return float64(r.TotalLost()) / float64(n)
	}
	return 0
}

// CompISPI returns the window's ISPI for one penalty component.
func (r WindowRecord) CompISPI(c metrics.Component) float64 {
	if n := r.Insts(); n > 0 {
		return float64(r.Lost[c]) / float64(n)
	}
	return 0
}

// MissPct returns right-path misses per structural reference in the window,
// as a percentage.
func (r WindowRecord) MissPct() float64 {
	if r.Accesses > 0 {
		return 100 * float64(r.Misses) / float64(r.Accesses)
	}
	return 0
}

// BusOccupancyPct returns the fraction of window cycles the bus was
// transferring, as a percentage (can exceed 100 with pipelined memory).
func (r WindowRecord) BusOccupancyPct() float64 {
	if c := r.Cycles(); c > 0 {
		return 100 * float64(r.BusBusy) / float64(c)
	}
	return 0
}

// WindowSeries captures one Window per engine sample interval. It is a
// sample-only probe: attach it via Config.Probe with a positive
// Config.SampleInterval and the engine's skip-ahead bulk path stays enabled,
// emitting interpolated snapshots at window boundaries that fall inside a
// bulk delta.
type WindowSeries struct {
	NopProbe

	windows []Window

	// base holds the counters at the open edge of the window under
	// construction; prevBase the open edge of the last closed window, so a
	// run-end sample that adds no instructions (trailing stall cycles, e.g.
	// a budget stop inside a bulk region) merges into the last window by
	// rebuilding it from prevBase.
	base     Snapshot
	prevBase Snapshot
}

// NewWindowSeries builds an empty window store.
func NewWindowSeries() *WindowSeries { return &WindowSeries{} }

// SampleOnlyProbe marks the series as observing via Sample alone.
func (s *WindowSeries) SampleOnlyProbe() {}

// Sample closes one window at snap, or — for a snapshot that adds no
// instructions but does advance other counters — re-closes the last window
// on the new edge (see the base/prevBase comment), so the windows always
// tile the run up to the latest snapshot and nothing is dropped or
// double-counted.
func (s *WindowSeries) Sample(snap Snapshot) {
	if snap.Insts > s.base.Insts {
		s.windows = append(s.windows, Between(s.base, snap))
		s.prevBase = s.base
		s.base = snap
		return
	}
	if len(s.windows) > 0 && snap != s.base {
		s.windows[len(s.windows)-1] = Between(s.prevBase, snap)
		s.base = snap
	}
}

// Len returns the number of closed windows.
func (s *WindowSeries) Len() int { return len(s.windows) }

// Records converts the series to its wire form — the one place window
// quantities leave the typed domain.
func (s *WindowSeries) Records() []WindowRecord {
	if len(s.windows) == 0 {
		return nil
	}
	out := make([]WindowRecord, len(s.windows))
	for i, w := range s.windows {
		r := WindowRecord{
			Index:        i,
			StartInsts:   w.StartInsts,
			EndInsts:     w.EndInsts,
			StartCycle:   w.StartCycle.Int64(),
			EndCycle:     w.EndCycle.Int64(),
			Accesses:     w.Accesses,
			Misses:       w.Misses,
			BusTransfers: int64(w.BusTransfers),
			BusBusy:      w.BusBusy.Int64(),
		}
		for c, l := range w.Lost {
			r.Lost[c] = l.Int64()
		}
		out[i] = r
	}
	return out
}
