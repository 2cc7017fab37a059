// Package distsweep executes sweep work-lists across process boundaries: a
// coordinator partitions serializable job specs into batches, POSTs them to
// long-running sweepworker daemons over HTTP/JSON, and reduces the returned
// results in canonical work-list order, so rendered artifacts are
// byte-identical to an in-process run at any worker and process count.
//
// The package deliberately knows nothing about internal/experiments: it
// ships JobSpecs and runs them through a pluggable Runner, and the
// experiments package supplies both the spec conversion (cells → specs) and
// the Runner (specs → simulate). That keeps the dependency arrow pointing
// one way — experiments imports distsweep, never the reverse.
package distsweep

import (
	"fmt"

	"specfetch/internal/adaptive"
	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
)

// WireVersion is the protocol version stamped on every Batch and
// BatchResult. A worker rejects batches from a different version with HTTP
// 400, and the coordinator rejects mismatched results, so mixed-version
// fleets fail loudly instead of computing subtly different sweeps.
const WireVersion = 1

// WireConfig mirrors core.Config minus the two function-typed fields
// (Probe, OnRightPathAccess) that cannot cross a process boundary, and
// minus MaxInsts, which travels as JobSpec.Insts — the same per-sweep
// instruction budget the in-process executor stamps onto every cell.
// Cells that carry a probe or an access callback are not serializable and
// must run in-process; the coordinator-side conversion enforces that.
type WireConfig struct {
	Policy           core.Policy   `json:"policy"`
	FetchWidth       int           `json:"fetch_width"`
	MaxUnresolved    int           `json:"max_unresolved"`
	MissPenalty      int           `json:"miss_penalty"`
	DecodeLatency    int           `json:"decode_latency"`
	ResolveLatency   int           `json:"resolve_latency"`
	ICache           cache.Config  `json:"icache"`
	NextLinePrefetch bool          `json:"next_line_prefetch,omitempty"`
	TargetPrefetch   bool          `json:"target_prefetch,omitempty"`
	StreamDepth      int           `json:"stream_depth,omitempty"`
	PipelinedMemory  bool          `json:"pipelined_memory,omitempty"`
	L2               *cache.Config `json:"l2,omitempty"`
	L2Latency        int           `json:"l2_latency,omitempty"`
	MSHRs            int           `json:"mshrs,omitempty"`
	RASDepth         int           `json:"ras_depth,omitempty"`
	FlushInterval    int64         `json:"flush_interval,omitempty"`
	SampleInterval   int64         `json:"sample_interval,omitempty"`
	StepMode         core.StepMode `json:"step_mode,omitempty"`

	// AdaptStrategy, AdaptInterval, and AdaptSeed carry the Adaptive
	// meta-policy across the wire, added to wire v1 additively (omitempty;
	// absent fields decode to zero values, so static-policy specs encode
	// exactly as before). The chooser itself never crosses the wire: the
	// worker rebuilds it from the strategy name and seed (internal/adaptive),
	// which is what makes remote adaptive runs byte-identical to local ones.
	AdaptStrategy string `json:"adapt_strategy,omitempty"`
	AdaptInterval int64  `json:"adapt_interval,omitempty"`
	AdaptSeed     uint64 `json:"adapt_seed,omitempty"`
}

// FromConfig flattens a core.Config into its wire mirror. It fails when the
// config carries in-process-only state (a probe or an access callback):
// such cells must not be dispatched remotely, because the callbacks would
// silently not fire on the worker.
func FromConfig(c core.Config) (WireConfig, error) {
	if c.Probe != nil {
		return WireConfig{}, fmt.Errorf("distsweep: config carries a Probe; not serializable")
	}
	if c.OnRightPathAccess != nil {
		return WireConfig{}, fmt.Errorf("distsweep: config carries OnRightPathAccess; not serializable")
	}
	if c.Chooser != nil {
		return WireConfig{}, fmt.Errorf("distsweep: config carries a constructed Chooser; " +
			"ship AdaptStrategy/AdaptSeed and let the worker rebuild it")
	}
	return WireConfig{
		Policy:           c.Policy,
		FetchWidth:       c.FetchWidth,
		MaxUnresolved:    c.MaxUnresolved,
		MissPenalty:      c.MissPenalty,
		DecodeLatency:    c.DecodeLatency,
		ResolveLatency:   c.ResolveLatency,
		ICache:           c.ICache,
		NextLinePrefetch: c.NextLinePrefetch,
		TargetPrefetch:   c.TargetPrefetch,
		StreamDepth:      c.StreamDepth,
		PipelinedMemory:  c.PipelinedMemory,
		L2:               c.L2,
		L2Latency:        c.L2Latency,
		MSHRs:            c.MSHRs,
		RASDepth:         c.RASDepth,
		FlushInterval:    c.FlushInterval,
		SampleInterval:   c.SampleInterval,
		StepMode:         c.StepMode,
		AdaptStrategy:    c.AdaptStrategy,
		AdaptInterval:    c.AdaptInterval,
		AdaptSeed:        c.AdaptSeed,
	}, nil
}

// ToConfig rebuilds the core.Config (probe-free, MaxInsts unset — the
// runner stamps the budget from JobSpec.Insts, mirroring the in-process
// executor).
func (w WireConfig) ToConfig() core.Config {
	return core.Config{
		Policy:           w.Policy,
		FetchWidth:       w.FetchWidth,
		MaxUnresolved:    w.MaxUnresolved,
		MissPenalty:      w.MissPenalty,
		DecodeLatency:    w.DecodeLatency,
		ResolveLatency:   w.ResolveLatency,
		ICache:           w.ICache,
		NextLinePrefetch: w.NextLinePrefetch,
		TargetPrefetch:   w.TargetPrefetch,
		StreamDepth:      w.StreamDepth,
		PipelinedMemory:  w.PipelinedMemory,
		L2:               w.L2,
		L2Latency:        w.L2Latency,
		MSHRs:            w.MSHRs,
		RASDepth:         w.RASDepth,
		FlushInterval:    w.FlushInterval,
		SampleInterval:   w.SampleInterval,
		StepMode:         w.StepMode,
		AdaptStrategy:    w.AdaptStrategy,
		AdaptInterval:    w.AdaptInterval,
		AdaptSeed:        w.AdaptSeed,
	}
}

// JobSpec is one serializable sweep cell: the bench recipe (a synth.Profile
// regenerates the identical program and image on any machine), the machine
// configuration, the dynamic-stream seed, the predictor kind, the
// instruction budget, and the audit sampling rate the worker must attach.
//
// CaptureWindows is the interval-analytics opt-in, added to wire v1
// additively (omitempty; absent decodes to false, so old and new peers
// interoperate): when set, the worker attaches an obs.WindowSeries to the
// run — window capture crosses the wire as this flag rather than as a
// probe, which keeps the cell serializable — and returns the records in
// JobResult.WindowSeries. It requires a positive Config.SampleInterval.
type JobSpec struct {
	Profile        synth.Profile `json:"profile"`
	Config         WireConfig    `json:"config"`
	Seed           uint64        `json:"seed"`
	Insts          int64         `json:"insts"`
	Pred           string        `json:"pred,omitempty"`
	AuditSample    int           `json:"audit_sample,omitempty"`
	CaptureWindows bool          `json:"capture_windows,omitempty"`
}

// The resource envelope: upper bounds on the job fields that size an
// allocation on the worker. Each is at least 16x the largest value any
// in-repo sweep, example or benchmark workload sends (noted per bound), so
// a legitimate job never meets one, while a job that would exhaust the
// worker's memory is a permanent error instead. Only JobSpec.Validate
// checks them; in-process sweeps are not bounded.
const (
	maxCacheBytes  = 4 << 20 // ICache and L2 SizeBytes; largest sent: 64 KiB
	maxVictimLines = 1024    // largest sent: 16
	maxRASDepth    = 1024    // largest sent: 32
	maxMSHRs       = 1024    // largest sent: 4
	maxStreamDepth = 1024    // largest sent: 4
	maxUnresolved  = 1024    // largest sent: 4
	maxFetchWidth  = 1024    // largest sent: 8
	maxNumFuncs    = 1 << 15 // largest sent: 1600 (web)
	maxSegments    = 1024    // SegmentsPerFunc[1]; largest sent: 42 (fpppp)
	maxFanout      = 256     // IndirectFanout; largest sent: 8 (gcc)
	maxDriverSites = 1 << 14 // DriverCallSites; largest sent: 600 (web)
	maxCallDepth   = 256     // largest sent: 6
	maxStaticInsts = 1 << 24 // staticInsts estimate; largest sent: ~871k (web)
	maxWindows     = 1 << 18 // Insts/SampleInterval with capture; largest sent: 8000
)

// staticInsts is a coarse upper estimate of the program a profile builds:
// every segment (and driver call site) at its widest shape — a switch over
// IndirectFanout cases, a loop body scaled by LoopBodyMul, or a five-block
// if/else — of mean-length blocks. The per-field bounds alone do not bound
// the product.
func staticInsts(p synth.Profile) float64 {
	segs := float64(p.NumFuncs)*float64(p.SegmentsPerFunc[1]) + float64(p.DriverCallSites)
	return segs * (p.MeanBlockLen + 1) * max(5, float64(p.IndirectFanout)+2, p.LoopBodyMul+2)
}

// checkEnvelope rejects a spec outside the resource envelope. It runs
// after the profile and config validated, so every value is non-negative.
func (s JobSpec) checkEnvelope() error {
	type bound struct {
		name     string
		val, max int64
	}
	c, p := s.Config, s.Profile
	bounds := []bound{
		{"icache.size_bytes", int64(c.ICache.SizeBytes), maxCacheBytes},
		{"icache.victim_lines", int64(c.ICache.VictimLines), maxVictimLines},
		{"ras_depth", int64(c.RASDepth), maxRASDepth},
		{"mshrs", int64(c.MSHRs), maxMSHRs},
		{"stream_depth", int64(c.StreamDepth), maxStreamDepth},
		{"max_unresolved", int64(c.MaxUnresolved), maxUnresolved},
		{"fetch_width", int64(c.FetchWidth), maxFetchWidth},
		{"profile.NumFuncs", int64(p.NumFuncs), maxNumFuncs},
		{"profile.SegmentsPerFunc[1]", int64(p.SegmentsPerFunc[1]), maxSegments},
		{"profile.IndirectFanout", int64(p.IndirectFanout), maxFanout},
		{"profile.DriverCallSites", int64(p.DriverCallSites), maxDriverSites},
		{"profile.CallDepth", int64(p.CallDepth), maxCallDepth},
	}
	if c.L2 != nil {
		bounds = append(bounds,
			bound{"l2.size_bytes", int64(c.L2.SizeBytes), maxCacheBytes},
			bound{"l2.victim_lines", int64(c.L2.VictimLines), maxVictimLines})
	}
	for _, b := range bounds {
		if b.val > b.max {
			return fmt.Errorf("distsweep: %s %d exceeds the worker limit %d", b.name, b.val, b.max)
		}
	}
	if est := staticInsts(p); est > maxStaticInsts {
		return fmt.Errorf("distsweep: profile %s builds up to ~%.3g static instructions, over the worker limit %d",
			p.Name, est, maxStaticInsts)
	}
	if s.CaptureWindows && s.Insts/c.SampleInterval > maxWindows {
		return fmt.Errorf("distsweep: %d insts at sample_interval %d capture over the worker limit of %d windows",
			s.Insts, c.SampleInterval, maxWindows)
	}
	return nil
}

// Validate rejects specs a worker could not run: bad profiles, bad
// configs, unknown predictor kinds, non-positive budgets, and jobs outside
// the resource envelope. Workers validate before running so malformed
// specs come back as permanent (4xx) errors instead of burning retries.
func (s JobSpec) Validate() error {
	if err := s.Profile.Validate(); err != nil {
		return err
	}
	cfg := s.Config.ToConfig()
	cfg.MaxInsts = s.Insts
	if err := cfg.Validate(); err != nil {
		return err
	}
	if _, err := bpred.ByName(s.Pred); err != nil {
		return err
	}
	if s.Insts <= 0 {
		return fmt.Errorf("distsweep: job has no instruction budget")
	}
	if s.AuditSample < 0 {
		return fmt.Errorf("distsweep: negative audit sample %d", s.AuditSample)
	}
	if s.CaptureWindows && s.Config.SampleInterval <= 0 {
		return fmt.Errorf("distsweep: capture_windows requires a positive sample_interval")
	}
	if err := s.checkEnvelope(); err != nil {
		return err
	}
	if s.Config.Policy == core.Adaptive {
		// The worker will rebuild the chooser from the strategy name, so an
		// unknown name must fail here as a permanent error, not mid-batch.
		if _, err := adaptive.New(s.Config.AdaptStrategy, s.Config.AdaptSeed); err != nil {
			return err
		}
	} else if s.Config.AdaptStrategy != "" {
		return fmt.Errorf("distsweep: adapt_strategy %q on non-adaptive policy %v",
			s.Config.AdaptStrategy, s.Config.Policy)
	}
	return nil
}

// Batch is the unit of dispatch: a contiguous slice of the sweep
// work-list. ID is coordinator-assigned and echoed back so a late response
// from a timed-out attempt can never be mistaken for the retry's.
//
// Campaign and Attempt are the batch's trace/log context, added to wire v1
// additively (omitempty; absent fields decode to zero values, so old and
// new peers interoperate): Campaign names the coordinator run so one
// worker's log can be split by campaign, and Attempt ties worker-side
// records to the coordinator's dispatch attempt counter.
type Batch struct {
	Version  int       `json:"version"`
	ID       uint64    `json:"id"`
	Campaign string    `json:"campaign,omitempty"`
	Attempt  int       `json:"attempt,omitempty"`
	Jobs     []JobSpec `json:"jobs"`
}

// JobResult pairs a simulation result with the worker's audit self-check:
// the AuditFinal its sampled obs.AuditProbe verified against the run. The
// coordinator recomputes Result.AuditFinal() and rejects the batch if the
// two disagree — a worker cannot claim an audit it did not pass.
//
// WindowSeries carries the job's interval window records when the spec set
// CaptureWindows, added to wire v1 additively (omitempty; absent decodes to
// nil): the reducer hands it to the caller untouched, and specs that do not
// capture windows encode exactly as before.
type JobResult struct {
	Result       core.Result        `json:"result"`
	Audit        obs.AuditFinal     `json:"audit"`
	WindowSeries []obs.WindowRecord `json:"window_series,omitempty"`
}

// SelfConsistent reports whether the result's own counters rebuild the
// audit identity the worker claims to have verified.
func (r JobResult) SelfConsistent() bool {
	return r.Result.AuditFinal() == r.Audit
}

// WireSpan is one job's execution timing on the worker's own monotonic
// clock: StartUS is the offset from the start of batch execution, DurUS the
// job's duration, both in microseconds. Offsets rather than absolute times
// cross the wire because the two processes share no clock; the coordinator
// re-anchors each span onto its own hosttime axis using the dispatch
// round-trip (see Coordinator.FleetSpans).
type WireSpan struct {
	Job     int    `json:"job"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// BatchResult echoes the batch ID and carries one JobResult per job, in
// job order.
//
// Pid, ExecUS, and Spans are the worker's telemetry sidecar, added to wire
// v1 additively (omitempty): the worker process id keys fleet trace tracks,
// ExecUS is the total batch execution time on the worker's clock, and Spans
// carries per-job timings. All three are advisory — the reducer never reads
// them, so they cannot perturb rendered artifact bytes.
type BatchResult struct {
	Version int         `json:"version"`
	ID      uint64      `json:"id"`
	Pid     int         `json:"pid,omitempty"`
	ExecUS  int64       `json:"exec_us,omitempty"`
	Spans   []WireSpan  `json:"spans,omitempty"`
	Results []JobResult `json:"results"`
}

// ErrorBody is the JSON body of a non-200 worker response. Job is the
// index of the failing job within the batch (-1 when the batch itself was
// unusable).
type ErrorBody struct {
	Error string `json:"error"`
	Job   int    `json:"job"`
}
