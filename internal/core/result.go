package core

import (
	"fmt"
	"strings"

	"specfetch/internal/metrics"
	"specfetch/internal/obs"
)

// Result reports everything one simulation run measured.
type Result struct {
	// Policy echoes the policy that produced the result.
	Policy Policy

	// Insts is the number of correct-path instructions issued.
	Insts int64
	// Cycles is the total simulated cycle count.
	Cycles Cycles

	// Lost is the per-component breakdown of lost issue slots.
	Lost metrics.Breakdown
	// Events counts branch-architecture mishaps and their slot costs.
	Events metrics.BranchEvents
	// Traffic counts line transfers over the memory bus.
	Traffic metrics.Traffic

	// RightPathAccesses is the number of structural correct-path line
	// references (policy independent for a given trace).
	RightPathAccesses int64
	// RightPathMisses is how many of those references missed.
	RightPathMisses int64
	// ReentryMisses counts the rare correct-path misses on re-entering a
	// line after a stall (the line was evicted mid-group); they are
	// excluded from the classification stream.
	ReentryMisses int64
	// WrongPathAccesses / WrongPathMisses count wrong-path line references.
	WrongPathAccesses int64
	WrongPathMisses   int64
	// WrongPathInsts counts instructions fetched down wrong paths.
	WrongPathInsts int64
	// CondBranches counts correct-path conditional branches.
	CondBranches int64
	// Branches counts all correct-path branches.
	Branches int64
	// PolicySwitches counts the Adaptive meta-policy's active-policy changes
	// (always 0 for static runs and for choosers that never move).
	PolicySwitches int64
}

// TotalISPI returns the total penalty in issue slots lost per correct-path
// instruction — the paper's primary metric.
func (r Result) TotalISPI() float64 { return r.Lost.TotalISPI(r.Insts) }

// ISPI returns one component's contribution.
func (r Result) ISPI(c metrics.Component) float64 { return r.Lost.ISPI(c, r.Insts) }

// MissRatioPct returns correct-path misses per instruction, as a percentage
// (the paper's "% Cache Miss" in Table 3).
func (r Result) MissRatioPct() float64 {
	if r.Insts == 0 {
		return 0
	}
	return 100 * float64(r.RightPathMisses) / float64(r.Insts)
}

// PHTMispredictISPI returns issue slots lost to conditional-direction
// mispredicts per instruction (Table 3, "PHT Mispredict ISPI").
func (r Result) PHTMispredictISPI() float64 {
	return r.Events.PHTMispredictSlots.PerInst(r.Insts)
}

// BTBMisfetchISPI returns issue slots lost to misfetches per instruction
// (Table 3, "BTB Misfetch ISPI").
func (r Result) BTBMisfetchISPI() float64 {
	return r.Events.BTBMisfetchSlots.PerInst(r.Insts)
}

// BTBMispredictISPI returns issue slots lost to stale BTB targets per
// instruction (Table 3, "BTB Mispredict ISPI").
func (r Result) BTBMispredictISPI() float64 {
	return r.Events.BTBMispredictSlots.PerInst(r.Insts)
}

// AuditFinal restates the counters obs.AuditProbe.Verify cross-checks, so
// every auditor attachment site builds the same subset the same way.
func (r Result) AuditFinal() obs.AuditFinal {
	return obs.AuditFinal{
		Insts:          r.Insts,
		Cycles:         r.Cycles,
		Lost:           r.Lost,
		DemandFills:    r.Traffic.DemandFills,
		WrongPathFills: r.Traffic.WrongPathFills,
		PrefetchFills:  r.Traffic.PrefetchFills,
	}
}

// IPC returns useful instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// String renders a one-run summary for tools and logs.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d insts, %d cycles, IPC %.2f, ISPI %.3f (",
		r.Policy, r.Insts, r.Cycles, r.IPC(), r.TotalISPI())
	for i, c := range metrics.Components() {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s %.3f", c, r.ISPI(c))
	}
	fmt.Fprintf(&b, "), miss %.2f%%, traffic %d", r.MissRatioPct(), r.Traffic.Total())
	return b.String()
}
