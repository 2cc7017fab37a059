// Package obs is the simulation observability layer: a typed Probe
// interface the fetch engine invokes at interesting points of a run, plus
// standard collectors — a bounded ring-buffer event recorder with JSONL
// export, a window series of fixed instruction-count windows (exported as
// WindowRecords), a Prometheus-style counters registry with text exposition,
// and a Chrome trace-event (Perfetto / about:tracing) timeline exporter.
//
// The engine holds a nil Probe by default and guards every call site with a
// single nil check, so the disabled path costs one predictable branch per
// hook and no allocation. Collectors compose with Multi, so an event
// recorder and a window series can observe the same run.
package obs

import (
	"fmt"

	"specfetch/internal/metrics"
)

// FillKind labels what initiated a line transfer over the memory bus.
type FillKind uint8

const (
	// FillDemand is a right-path demand miss fill.
	FillDemand FillKind = iota
	// FillWrongPath is a wrong-path miss the policy chose to service.
	FillWrongPath
	// FillPrefetch is a next-line / target / stream prefetch.
	FillPrefetch

	numFillKinds
)

var fillKindNames = [numFillKinds]string{
	FillDemand:    "demand",
	FillWrongPath: "wrong_path",
	FillPrefetch:  "prefetch",
}

// String returns the snake_case name of the fill kind.
func (k FillKind) String() string {
	if k < numFillKinds {
		return fillKindNames[k]
	}
	return fmt.Sprintf("fill(%d)", int(k))
}

// RedirectKind labels a front-end redirect — the paper's Table 3 events.
type RedirectKind uint8

const (
	// RedirectPHTMispredict is a conditional branch whose predicted
	// direction was wrong (resolve-time redirect).
	RedirectPHTMispredict RedirectKind = iota
	// RedirectBTBMisfetch is a branch whose target had to be computed at
	// decode (decode-time redirect).
	RedirectBTBMisfetch
	// RedirectBTBMispredict is an indirect transfer whose BTB target was
	// stale (resolve-time redirect).
	RedirectBTBMispredict

	numRedirectKinds
)

var redirectKindNames = [numRedirectKinds]string{
	RedirectPHTMispredict: "pht_mispredict",
	RedirectBTBMisfetch:   "btb_misfetch",
	RedirectBTBMispredict: "btb_mispredict",
}

// String returns the snake_case name of the redirect kind.
func (k RedirectKind) String() string {
	if k < numRedirectKinds {
		return redirectKindNames[k]
	}
	return fmt.Sprintf("redirect(%d)", int(k))
}

// Probe receives typed instrumentation callbacks from the simulation
// engine. Implementations must not mutate engine state. Cycle arguments may
// lie in the future relative to the callback's emission point: the engine
// reports scheduled completions (fills, bus releases, branch resolves)
// eagerly, at the cycle the event is scheduled rather than the cycle it
// takes effect. Embed NopProbe to implement only a subset.
type Probe interface {
	// FetchCycle fires once per correct-path fetch group with the cycle it
	// started in and how many instructions issued in it (0..width).
	FetchCycle(cy metrics.Cycles, issued int)
	// MissStart fires when a demand lookup misses the I-cache, on either
	// the correct path (wrongPath=false) or a speculative one.
	MissStart(cy metrics.Cycles, line uint64, wrongPath bool)
	// FillComplete fires when a line fill is scheduled, with the cycle the
	// line becomes available.
	FillComplete(cy metrics.Cycles, line uint64, kind FillKind)
	// BusAcquire fires when a transfer occupies the single memory channel,
	// with the cycle the transfer starts.
	BusAcquire(cy metrics.Cycles, line uint64, kind FillKind)
	// BusRelease fires with the completion cycle of the transfer reported
	// by the immediately preceding BusAcquire.
	BusRelease(cy metrics.Cycles)
	// BranchResolve fires when a conditional or indirect correct-path
	// branch is scheduled to resolve.
	BranchResolve(cy metrics.Cycles, pc uint64, taken, mispredicted bool)
	// Redirect fires when the front end redirects back to the correct path
	// after a misfetch/mispredict window.
	Redirect(cy metrics.Cycles, kind RedirectKind, resumePC uint64)
	// Prefetch fires when a prefetch transfer is issued, with its
	// completion cycle.
	Prefetch(cy metrics.Cycles, line uint64, doneAt metrics.Cycles)
	// WindowStart fires when a misfetch/mispredict window opens at the
	// branch's fetch cycle; until is the nominal redirect cycle.
	WindowStart(cy metrics.Cycles, kind RedirectKind, until metrics.Cycles)
	// WindowEnd fires with the cycle correct-path fetch actually resumes
	// (past `until` when a blocking wrong-path fill is outstanding).
	WindowEnd(cy metrics.Cycles)
	// Stall fires for each contiguous run of dead correct-path cycles
	// [cy, until) charged to a single penalty component, with the issue
	// slots lost in the run.
	Stall(cy, until metrics.Cycles, comp metrics.Component, slots metrics.Slots)
}

// NopProbe implements every Probe callback as a no-op; embed it to override
// only the callbacks a collector cares about.
type NopProbe struct{}

func (NopProbe) FetchCycle(metrics.Cycles, int)                                         {}
func (NopProbe) MissStart(metrics.Cycles, uint64, bool)                                 {}
func (NopProbe) FillComplete(metrics.Cycles, uint64, FillKind)                          {}
func (NopProbe) BusAcquire(metrics.Cycles, uint64, FillKind)                            {}
func (NopProbe) BusRelease(metrics.Cycles)                                              {}
func (NopProbe) BranchResolve(metrics.Cycles, uint64, bool, bool)                       {}
func (NopProbe) Redirect(metrics.Cycles, RedirectKind, uint64)                          {}
func (NopProbe) Prefetch(metrics.Cycles, uint64, metrics.Cycles)                        {}
func (NopProbe) WindowStart(metrics.Cycles, RedirectKind, metrics.Cycles)               {}
func (NopProbe) WindowEnd(metrics.Cycles)                                               {}
func (NopProbe) Stall(metrics.Cycles, metrics.Cycles, metrics.Component, metrics.Slots) {}

// Snapshot is a point-in-time copy of the engine's cumulative counters,
// delivered to Samplers. All fields are cumulative since run start;
// interval collectors difference consecutive snapshots.
type Snapshot struct {
	// Cycle is the simulation cycle at the sample point.
	Cycle metrics.Cycles
	// Insts is the number of correct-path instructions issued so far.
	Insts int64
	// Lost is the per-component lost-slot breakdown so far.
	Lost metrics.Breakdown
	// RightPathAccesses / RightPathMisses count structural correct-path
	// line references and their misses so far.
	RightPathAccesses int64
	RightPathMisses   int64
	// BusTransfers counts line movements over the memory bus so far.
	BusTransfers uint64
	// BusBusy is the cumulative number of cycles the memory bus has spent
	// transferring lines. With pipelined memory concurrent transfers each
	// contribute their full latency, so the total can exceed Cycle.
	BusBusy metrics.Cycles
}

// Sampler is an optional Probe extension. When the engine's configuration
// sets a positive SampleInterval and the attached probe implements Sampler,
// the engine calls Sample every SampleInterval correct-path instructions
// and once more at run end with the final counters.
type Sampler interface {
	Sample(s Snapshot)
}

// SampleOnly is an optional Probe marker: implementations promise they
// observe the run exclusively through Sampler snapshots and ignore every
// per-event Probe callback. The engine exploits the promise by not
// delivering events at all and, crucially, by keeping the skip-ahead bulk
// issue path enabled — a sample-only probe costs one boundary check per
// issued instruction instead of disqualifying the fast core. Composites
// (Multi) never carry the marker: any part might be a real event consumer.
type SampleOnly interface {
	SampleOnlyProbe()
}

// IsSampleOnly reports whether p carries the SampleOnly marker.
func IsSampleOnly(p Probe) bool {
	_, ok := p.(SampleOnly)
	return ok
}

// multi fans every callback out to several probes in order.
type multi struct {
	parts    []Probe
	samplers []Sampler
}

// Multi composes several probes into one: every callback is forwarded to
// each part in order, and Sample is forwarded to the parts that implement
// Sampler. Nil parts are skipped; Multi() returns nil and Multi(p) returns
// p unwrapped.
func Multi(ps ...Probe) Probe {
	m := &multi{}
	for _, p := range ps {
		if p == nil {
			continue
		}
		m.parts = append(m.parts, p)
		if s, ok := p.(Sampler); ok {
			m.samplers = append(m.samplers, s)
		}
	}
	switch len(m.parts) {
	case 0:
		return nil
	case 1:
		return m.parts[0]
	}
	return m
}

func (m *multi) FetchCycle(cy metrics.Cycles, issued int) {
	for _, p := range m.parts {
		p.FetchCycle(cy, issued)
	}
}

func (m *multi) MissStart(cy metrics.Cycles, line uint64, wrongPath bool) {
	for _, p := range m.parts {
		p.MissStart(cy, line, wrongPath)
	}
}

func (m *multi) FillComplete(cy metrics.Cycles, line uint64, kind FillKind) {
	for _, p := range m.parts {
		p.FillComplete(cy, line, kind)
	}
}

func (m *multi) BusAcquire(cy metrics.Cycles, line uint64, kind FillKind) {
	for _, p := range m.parts {
		p.BusAcquire(cy, line, kind)
	}
}

func (m *multi) BusRelease(cy metrics.Cycles) {
	for _, p := range m.parts {
		p.BusRelease(cy)
	}
}

func (m *multi) BranchResolve(cy metrics.Cycles, pc uint64, taken, mispredicted bool) {
	for _, p := range m.parts {
		p.BranchResolve(cy, pc, taken, mispredicted)
	}
}

func (m *multi) Redirect(cy metrics.Cycles, kind RedirectKind, resumePC uint64) {
	for _, p := range m.parts {
		p.Redirect(cy, kind, resumePC)
	}
}

func (m *multi) Prefetch(cy metrics.Cycles, line uint64, doneAt metrics.Cycles) {
	for _, p := range m.parts {
		p.Prefetch(cy, line, doneAt)
	}
}

func (m *multi) WindowStart(cy metrics.Cycles, kind RedirectKind, until metrics.Cycles) {
	for _, p := range m.parts {
		p.WindowStart(cy, kind, until)
	}
}

func (m *multi) WindowEnd(cy metrics.Cycles) {
	for _, p := range m.parts {
		p.WindowEnd(cy)
	}
}

func (m *multi) Stall(cy, until metrics.Cycles, comp metrics.Component, slots metrics.Slots) {
	for _, p := range m.parts {
		p.Stall(cy, until, comp, slots)
	}
}

func (m *multi) Sample(s Snapshot) {
	for _, sm := range m.samplers {
		sm.Sample(s)
	}
}
