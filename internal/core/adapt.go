package core

import "specfetch/internal/obs"

// The Adaptive meta-policy's decision plane. The engine slices an adaptive
// run into fixed instruction-count windows (Config.AdaptInterval wide) and,
// at every boundary, hands the window's counter deltas to a Chooser, which
// answers with the static policy to run next. The digest deliberately
// exposes only information a real machine has at runtime — its own lost
// slots, miss counts, and bus occupancy — never oracle knowledge; the
// oracle selector (internal/experiments) stays the unreachable bound the
// chooser is measured against.
//
// Boundaries are defined on the correct-path instruction count, the same
// axis the interval sampler uses: decision boundaries and sample boundaries
// form one engine boundary schedule, so adaptive windows align with
// obs.WindowSeries windows at equal widths, and at a shared instruction the
// sample is taken before the decision. A decision takes effect immediately:
// the instruction that crossed the boundary has issued, and every
// subsequent miss (correct- or wrong-path) is handled under the new policy.
// In the skip-ahead core a boundary can fall inside a bulk-issued region of
// plain cache-resident instructions; no miss handling happens there, so the
// engine interpolates the boundary snapshot at the boundary instruction
// (only cycle, instruction, and access counts move inside such a region) —
// the chooser sees bit-identical inputs in both step modes, which the
// differential suite verifies.

// AdaptWindow is one decision window's digest: the obs.Window of counter
// deltas over the last AdaptInterval correct-path instructions, plus the
// window's ordinal and which policy was active while it accumulated.
type AdaptWindow struct {
	obs.Window
	// Index is the 0-based window ordinal.
	Index int64
	// Active is the static policy that produced these numbers.
	Active Policy
}

// Chooser is the pluggable selection strategy behind the Adaptive policy.
// Implementations live in internal/adaptive (core defines only the
// interface, so the dependency arrow stays adaptive → core).
//
// A Chooser must be deterministic — same seed, same window sequence, same
// decisions — and must not consult wall clocks or global randomness
// (internal/xrand is the sanctioned generator). Both First and Decide must
// return static policies (Policy.IsStatic); the engine treats anything else
// as a programming error.
type Chooser interface {
	// First returns the policy to start the run under, before any window
	// has completed.
	First() Policy
	// Decide consumes one completed window and returns the policy for the
	// next window (possibly the same one). It is called exactly once per
	// boundary, in window order.
	Decide(w AdaptWindow) Policy
}
