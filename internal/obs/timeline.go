package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"specfetch/internal/metrics"
)

// traceEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// the JSON Perfetto and chrome://tracing load directly. Timestamps are in
// "microseconds"; the exporter maps one simulated cycle to one microsecond.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Timeline track (thread) ids: one track per modelled resource.
const (
	tidFetch    = 1 // fetch unit: stalls, windows, redirects, demand misses
	tidBus      = 2 // memory bus: one span per line transfer
	tidResume   = 3 // resume buffer: wrong-path fills in flight
	tidPrefetch = 4 // prefetch buffer: prefetches in flight
	tidBranch   = 5 // branch unit: resolve/mispredict instants
	tidCounters = 6 // interval counters: per-window ISPI, miss %, bus occupancy
)

// Trace process ids: the simulated machine and the host-side simulator
// render as two processes in one Perfetto view. Remote worker processes in
// a distributed sweep take pids from fleetPidBase upward, one per process.
const (
	tracePid     = 1
	hostPid      = 2
	fleetPidBase = 3
)

// traceEmitter streams trace events as one Chrome trace-event JSON
// document; the machine and host exporters share it so a combined trace is
// a single well-formed file.
type traceEmitter struct {
	bw    *bufio.Writer
	first bool
}

func newTraceEmitter(w io.Writer) (*traceEmitter, error) {
	e := &traceEmitter{bw: bufio.NewWriter(w), first: true}
	if _, err := e.bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *traceEmitter) emit(ev traceEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if !e.first {
		if _, err := e.bw.WriteString(",\n"); err != nil {
			return err
		}
	}
	e.first = false
	_, err = e.bw.Write(b)
	return err
}

func (e *traceEmitter) close() error {
	if _, err := e.bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return e.bw.Flush()
}

// ProcessSpans is one remote process's worth of host spans for a fleet
// trace: the coordinator collects per-cell span timings from each worker
// daemon over the wire, re-anchors them onto its own hosttime axis, and
// groups them by (worker URL, pid).
type ProcessSpans struct {
	// Name labels the process track, e.g. "worker http://host:port (pid 1234)".
	Name string
	// Spans are the process's completed spans, already re-anchored so Start
	// is an offset on the coordinator's span-tracer axis.
	Spans []HostSpan
}

// CombinedTrace bundles every part of one Perfetto trace file — the
// package's one trace writer: the simulated-machine event stream (pid 1,
// one track per modelled resource — fetch unit, bus, resume buffer,
// prefetch buffer, branches — plus an "issued" counter series), per-window
// counter tracks from an interval series (pid 1, its own track), host-side
// spans (pid 2, one track per pool worker, each span labelled with its work
// unit and allocation count), and remote fleet processes (pids 3+). Any
// part may be nil. Machine timestamps — events and counters both — are
// simulated cycles mapped to microseconds; host and fleet timestamps are
// real microseconds on the coordinator's span-tracer axis. The machine and
// the host share a file, not a clock. Load the output in
// https://ui.perfetto.dev or chrome://tracing.
//
// Events may carry future timestamps and need not be sorted; the viewers
// sort by ts. Span pairing (bus acquire/release, wrong-path miss/fill)
// tolerates pairs truncated by the recorder's ring buffer.
type CombinedTrace struct {
	Events []Event
	// Counters renders each WindowRecord as Perfetto counter samples at the
	// window's closing cycle: ISPI, miss rate, bus occupancy, and one
	// multi-series stall counter split by penalty component.
	Counters []WindowRecord
	Spans    []HostSpan
	Fleet    []ProcessSpans
}

// Write renders the trace as one well-formed Chrome trace-event document.
func (t CombinedTrace) Write(w io.Writer) error {
	e, err := newTraceEmitter(w)
	if err != nil {
		return err
	}
	if t.Events != nil {
		if err := emitMachineEvents(e, t.Events); err != nil {
			return err
		}
	}
	if t.Counters != nil {
		if err := emitCounterTracks(e, t.Counters, t.Events == nil); err != nil {
			return err
		}
	}
	if t.Spans != nil {
		if err := emitHostSpans(e, hostPid, "host", t.Spans); err != nil {
			return err
		}
	}
	for i, p := range t.Fleet {
		if err := emitHostSpans(e, fleetPidBase+i, p.Name, p.Spans); err != nil {
			return err
		}
	}
	return e.close()
}

// emitMachineEvents writes the simulated-machine process: metadata plus the
// recorded event stream, with span pairing for bus transfers and wrong-path
// fills.
func emitMachineEvents(e *traceEmitter, events []Event) error {
	emit := e.emit

	meta := func(name string, tid int, args map[string]any) traceEvent {
		return traceEvent{Name: name, Ph: "M", Pid: tracePid, Tid: tid, Args: args}
	}
	metas := []traceEvent{
		meta("process_name", 0, map[string]any{"name": "specfetch"}),
		meta("thread_name", tidFetch, map[string]any{"name": "fetch unit"}),
		meta("thread_name", tidBus, map[string]any{"name": "bus"}),
		meta("thread_name", tidResume, map[string]any{"name": "resume buffer"}),
		meta("thread_name", tidPrefetch, map[string]any{"name": "prefetch buffer"}),
		meta("thread_name", tidBranch, map[string]any{"name": "branches"}),
	}
	for _, m := range metas {
		if err := emit(m); err != nil {
			return err
		}
	}

	// Pairing state for span reconstruction.
	var busStart int64
	var busLine uint64
	var busKind string
	busOpen := false
	wpMiss := map[uint64]int64{} // wrong-path miss line -> start cycle

	for _, ev := range events {
		var out traceEvent
		switch ev.Type {
		case EvFetchCycle:
			out = traceEvent{Name: "issued", Ph: "C", Ts: ev.Cy, Pid: tracePid, Tid: tidFetch,
				Args: map[string]any{"issued": ev.Issued}}

		case EvStall:
			out = traceEvent{Name: "stall:" + ev.Comp, Ph: "X", Ts: ev.Cy, Dur: ev.Until - ev.Cy,
				Pid: tracePid, Tid: tidFetch, Args: map[string]any{"slots": ev.Slots}}

		case EvWindowStart:
			out = traceEvent{Name: "window:" + ev.Kind, Ph: "X", Ts: ev.Cy, Dur: ev.Until - ev.Cy,
				Pid: tracePid, Tid: tidFetch}

		case EvWindowEnd:
			out = traceEvent{Name: "resume", Ph: "i", Ts: ev.Cy, Pid: tracePid, Tid: tidFetch, S: "t"}

		case EvRedirect:
			out = traceEvent{Name: "redirect:" + ev.Kind, Ph: "i", Ts: ev.Cy,
				Pid: tracePid, Tid: tidFetch, S: "t", Args: map[string]any{"resume_pc": ev.PC}}

		case EvMissStart:
			if ev.Kind == fillKindNames[FillWrongPath] {
				wpMiss[ev.Line] = ev.Cy
				continue
			}
			out = traceEvent{Name: "miss", Ph: "i", Ts: ev.Cy, Pid: tracePid, Tid: tidFetch,
				S: "t", Args: map[string]any{"line": ev.Line}}

		case EvFillComplete:
			if ev.Kind != fillKindNames[FillWrongPath] {
				continue // demand fills show as bus spans, prefetches below
			}
			start, ok := wpMiss[ev.Line]
			if !ok {
				start = ev.Cy // ring truncated the matching miss_start
			}
			delete(wpMiss, ev.Line)
			out = traceEvent{Name: "wp fill", Ph: "X", Ts: start, Dur: ev.Cy - start,
				Pid: tracePid, Tid: tidResume, Args: map[string]any{"line": ev.Line}}

		case EvBusAcquire:
			busStart, busLine, busKind, busOpen = ev.Cy, ev.Line, ev.Kind, true
			continue

		case EvBusRelease:
			if !busOpen {
				continue // ring truncated the matching bus_acquire
			}
			busOpen = false
			out = traceEvent{Name: "xfer:" + busKind, Ph: "X", Ts: busStart, Dur: ev.Cy - busStart,
				Pid: tracePid, Tid: tidBus, Args: map[string]any{"line": busLine}}

		case EvPrefetch:
			out = traceEvent{Name: "prefetch", Ph: "X", Ts: ev.Cy, Dur: ev.Until - ev.Cy,
				Pid: tracePid, Tid: tidPrefetch, Args: map[string]any{"line": ev.Line}}

		case EvBranchResolve:
			name := "resolve"
			if ev.Mispredict {
				name = "mispredict"
			}
			out = traceEvent{Name: name, Ph: "i", Ts: ev.Cy, Pid: tracePid, Tid: tidBranch,
				S: "t", Args: map[string]any{"pc": ev.PC, "taken": ev.Taken}}

		default:
			continue
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

// emitCounterTracks writes the interval-counter track on the machine
// process: per window, one sample per counter series at the window's
// closing cycle. Stall attribution goes out as a single multi-series
// counter keyed by component name, which Perfetto stacks the way the
// paper's ISPI figures do. withProcMeta adds the machine process_name when
// no event stream already emitted it.
func emitCounterTracks(e *traceEmitter, windows []WindowRecord, withProcMeta bool) error {
	if withProcMeta {
		if err := e.emit(traceEvent{Name: "process_name", Ph: "M", Pid: tracePid, Tid: 0,
			Args: map[string]any{"name": "specfetch"}}); err != nil {
			return err
		}
	}
	if err := e.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: tidCounters,
		Args: map[string]any{"name": "interval counters"}}); err != nil {
		return err
	}
	for _, win := range windows {
		base := traceEvent{Ph: "C", Ts: win.EndCycle, Pid: tracePid, Tid: tidCounters}
		singles := []struct {
			name string
			val  float64
		}{
			{"ispi", win.ISPI()},
			{"miss %", win.MissPct()},
			{"bus occupancy %", win.BusOccupancyPct()},
		}
		for _, s := range singles {
			ev := base
			ev.Name = s.name
			ev.Args = map[string]any{s.name: s.val}
			if err := e.emit(ev); err != nil {
				return err
			}
		}
		stalls := base
		stalls.Name = "stall ispi"
		stalls.Args = map[string]any{}
		for _, c := range metrics.Components() {
			stalls.Args[c.String()] = win.CompISPI(c)
		}
		if err := e.emit(stalls); err != nil {
			return err
		}
	}
	return nil
}

// emitHostSpans writes one host-side process: a process_name, one
// thread_name per worker seen in the span list, and one complete ("X")
// event per span. The host pool and each remote fleet process render
// through the same path, differing only in pid and label.
func emitHostSpans(e *traceEmitter, pid int, procName string, spans []HostSpan) error {
	if err := e.emit(traceEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": procName}}); err != nil {
		return err
	}
	maxWorker := 0
	for _, s := range spans {
		if s.Worker > maxWorker {
			maxWorker = s.Worker
		}
	}
	for w := 0; w <= maxWorker; w++ {
		if err := e.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: w + 1,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", w)}}); err != nil {
			return err
		}
	}
	for _, s := range spans {
		args := map[string]any{"allocs": s.Allocs}
		if s.Section != "" {
			args["section"] = s.Section
		}
		if err := e.emit(traceEvent{
			Name: s.Name, Ph: "X",
			Ts:  s.Start.Microseconds(),
			Dur: s.Dur.Microseconds(),
			Pid: pid, Tid: s.Worker + 1,
			Args: args,
		}); err != nil {
			return err
		}
	}
	return nil
}
