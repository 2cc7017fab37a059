package main

import "specfetch/internal/core"

// paperRef is one average ISPI from the paper, the reference paper_err_pct
// is measured against.
//
// Source: Lee, Baer, Calder, Grunwald, "Instruction Cache Fetch Policies
// for Speculative Execution", ISCA 1995 — Table 5 (speculation depth 1, 2
// and 4; 8K direct-mapped cache, 5-cycle miss penalty) and Table 6 (32K
// direct-mapped cache, depth 4), "Average" rows, as quoted in the
// repository's EXPERIMENTS.md. These values are held out: the synthetic
// profiles were calibrated (cmd/calibrate) on the Table 2/3 targets in
// synth.PaperTargets only, so those are deliberately not used here.
type paperRef struct {
	// depth is the Table 5 speculation depth; 0 marks a Table 6 value.
	depth  int
	policy core.Policy
	ispi   float64
}

var paperAverages = []paperRef{
	{1, core.Oracle, 1.80}, {1, core.Optimistic, 1.89}, {1, core.Resume, 1.81}, {1, core.Pessimistic, 2.14}, {1, core.Decode, 2.12},
	{2, core.Oracle, 1.52}, {2, core.Optimistic, 1.63}, {2, core.Resume, 1.52}, {2, core.Pessimistic, 1.86}, {2, core.Decode, 1.84},
	{4, core.Oracle, 1.41}, {4, core.Optimistic, 1.55}, {4, core.Resume, 1.41}, {4, core.Pessimistic, 1.75}, {4, core.Decode, 1.75},
	{0, core.Oracle, 0.87}, {0, core.Optimistic, 0.94}, {0, core.Resume, 0.87}, {0, core.Pessimistic, 0.97}, {0, core.Decode, 0.98},
}
