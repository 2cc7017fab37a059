package experiments

import (
	"fmt"

	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
)

// The ablations quantify the design choices DESIGN.md calls out and the
// paper's §2/§6 alternatives: prefetch scheme, BTB coupling, cache
// associativity, fetch width, and a pipelined memory interface.
//
// Each ablation is a list of variants (one simulation setting each) and a
// row reducer. ablate runs every benchmark under every variant as one flat
// work-list through runCells, like every other builder, then reduces one row
// per benchmark in bench order. No cell depends on another cell's result:
// anything relative (the prefetch traffic ratio) is computed at reduction.

// PrefetchScheme names one prefetch configuration for the ablation.
type PrefetchScheme struct {
	Name string
	// Apply sets the scheme's fields on a config.
	Apply func(*core.Config)
}

// PrefetchSchemes lists the compared prefetch engines: the paper's
// next-line policy, Smith & Hsu target prefetching, Pierce & Mudge style
// combined prefetching, and a Jouppi-style sequential stream.
func PrefetchSchemes() []PrefetchScheme {
	return []PrefetchScheme{
		{Name: "none", Apply: func(c *core.Config) {}},
		{Name: "next-line", Apply: func(c *core.Config) { c.NextLinePrefetch = true }},
		{Name: "target", Apply: func(c *core.Config) { c.TargetPrefetch = true }},
		{Name: "combined", Apply: func(c *core.Config) { c.NextLinePrefetch = true; c.TargetPrefetch = true }},
		{Name: "stream-4", Apply: func(c *core.Config) { c.StreamDepth = 4 }},
	}
}

// variant builds one benchmark's cell under one ablation setting.
type variant func(b *synth.Bench) runCell

// configs makes one variant per machine configuration, each on the shared
// stream.
func configs(cfgs []core.Config) []variant {
	vs := make([]variant, len(cfgs))
	for j, cfg := range cfgs {
		vs[j] = func(b *synth.Bench) runCell { return newCell(b, cfg) }
	}
	return vs
}

// ablate runs the bench-major work-list (cell i*len(variants)+j is
// benches[i] under variants[j]) and adds one row per benchmark to t: the
// program name, then the cells row returns for that benchmark's results in
// variant order.
func ablate(opt Options, t *texttable.Table, benches []*synth.Bench, variants []variant,
	row func(res []core.Result) []any) (*texttable.Table, error) {
	cells := make([]runCell, 0, len(benches)*len(variants))
	for _, b := range benches {
		for _, v := range variants {
			cells = append(cells, v(b))
		}
	}
	results, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	n := len(variants)
	for i, b := range benches {
		t.AddRowF(2, append([]any{b.Profile().Name}, row(results[i*n:(i+1)*n])...)...)
	}
	return t, nil
}

// ispi is the row reducer of the ablations that report total ISPI alone.
func ispi(res []core.Result) []any {
	cells := make([]any, 0, len(res))
	for _, r := range res {
		cells = append(cells, r.TotalISPI())
	}
	return cells
}

// ispiMiss reports total ISPI and right-path miss % per variant.
func ispiMiss(res []core.Result) []any {
	cells := make([]any, 0, 2*len(res))
	for _, r := range res {
		cells = append(cells, r.TotalISPI(), r.MissRatioPct())
	}
	return cells
}

// AblationPrefetch compares prefetch schemes under the Resume policy; each
// scheme's traffic is relative to the no-prefetch variant's.
func AblationPrefetch(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	schemes := PrefetchSchemes()
	headers := []string{"Program"}
	cfgs := make([]core.Config, len(schemes))
	for j, s := range schemes {
		headers = append(headers, s.Name+" ISPI", s.Name+" traffic")
		cfgs[j] = baseConfig(core.Resume)
		s.Apply(&cfgs[j])
	}
	t := texttable.New("Ablation: prefetch scheme (Resume policy, 8K, 5-cycle penalty)", headers...)
	return ablate(opt, t, benches, configs(cfgs), func(res []core.Result) []any {
		base := float64(res[0].Traffic.Total())
		cells := make([]any, 0, 2*len(res))
		for _, r := range res {
			ratio := 0.0
			if base > 0 {
				ratio = float64(r.Traffic.Total()) / base
			}
			cells = append(cells, r.TotalISPI(), ratio)
		}
		return cells
	})
}

// AblationBTBCoupling compares the paper's decoupled branch architecture
// against a Pentium-style coupled BTB and a static not-taken predictor.
func AblationBTBCoupling(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: branch architecture (Oracle policy ISPI; decoupled gshare is the paper's baseline)",
		"Program", "Decoupled", "Local PAg", "Coupled", "Static")
	var vs []variant
	for _, kind := range bpred.Kinds() {
		vs = append(vs, func(b *synth.Bench) runCell {
			c := newCell(b, baseConfig(core.Oracle))
			c.pred = kind
			return c
		})
	}
	return ablate(opt, t, benches, vs, ispi)
}

// AblationAssociativity compares direct-mapped (the paper) against 2- and
// 4-way caches of the same capacity.
func AblationAssociativity(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: 8K cache associativity (Resume policy ISPI / right-path miss %)",
		"Program", "DM", "DM miss%", "2-way", "2w miss%", "4-way", "4w miss%")
	var cfgs []core.Config
	for _, assoc := range []int{1, 2, 4} {
		cfg := baseConfig(core.Resume)
		cfg.ICache.Assoc = assoc
		cfgs = append(cfgs, cfg)
	}
	return ablate(opt, t, benches, configs(cfgs), ispiMiss)
}

// AblationFetchWidth sweeps the superscalar width (the paper fixes 4).
func AblationFetchWidth(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: fetch width (Resume policy, IPC)",
		"Program", "2-wide", "4-wide", "8-wide")
	var cfgs []core.Config
	for _, w := range []int{2, 4, 8} {
		cfg := baseConfig(core.Resume)
		cfg.FetchWidth = w
		cfgs = append(cfgs, cfg)
	}
	return ablate(opt, t, benches, configs(cfgs), func(res []core.Result) []any {
		cells := make([]any, 0, len(res))
		for _, r := range res {
			cells = append(cells, r.IPC())
		}
		return cells
	})
}

// AblationPipelinedMemory measures what removing bus contention buys the
// aggressive policies at the long miss latency — the paper's "pipelining
// miss requests" future work.
func AblationPipelinedMemory(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: pipelined memory interface (20-cycle penalty, prefetch on; ISPI)",
		"Program", "Resume", "Resume+pipe", "Pess", "Pess+pipe")
	var cfgs []core.Config
	for _, pol := range []core.Policy{core.Resume, core.Pessimistic} {
		for _, pipe := range []bool{false, true} {
			cfg := baseConfig(pol)
			cfg.MissPenalty = 20
			cfg.NextLinePrefetch = true
			cfg.PipelinedMemory = pipe
			cfgs = append(cfgs, cfg)
		}
	}
	return ablate(opt, t, benches, configs(cfgs), ispi)
}

// AblationRAS compares the paper's BTB-only return prediction against
// return-address stacks of increasing depth.
func AblationRAS(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: return-address stack (Oracle policy; ISPI / BTB target mispredicts per 100k insts)",
		"Program", "no RAS", "mispred", "RAS-8", "mispred", "RAS-32", "mispred")
	var cfgs []core.Config
	for _, depth := range []int{0, 8, 32} {
		cfg := baseConfig(core.Oracle)
		cfg.RASDepth = depth
		cfgs = append(cfgs, cfg)
	}
	return ablate(opt, t, benches, configs(cfgs), func(res []core.Result) []any {
		cells := make([]any, 0, 2*len(res))
		for _, r := range res {
			per100k := 0.0
			if r.Insts > 0 {
				per100k = 100_000 * float64(r.Events.BTBMispredicts) / float64(r.Insts)
			}
			cells = append(cells, r.TotalISPI(), per100k)
		}
		return cells
	})
}

// AblationVictimCache measures what a small fully associative victim buffer
// buys the paper's direct-mapped cache.
func AblationVictimCache(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: victim buffer on the 8K direct-mapped cache (Resume policy; ISPI / right-path miss %)",
		"Program", "none", "miss%", "4 lines", "miss%", "16 lines", "miss%")
	var cfgs []core.Config
	for _, lines := range []int{0, 4, 16} {
		cfg := baseConfig(core.Resume)
		cfg.ICache.VictimLines = lines
		cfgs = append(cfgs, cfg)
	}
	return ablate(opt, t, benches, configs(cfgs), ispiMiss)
}

// AblationMSHR compares the paper's single resume/prefetch buffers against
// multi-entry MSHR files, with and without a pipelined memory interface.
func AblationMSHR(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: non-blocking fill tracking (Resume, 20-cycle penalty, prefetch on; ISPI)",
		"Program", "1 buf", "4 MSHR", "4 MSHR+pipe")
	var cfgs []core.Config
	for _, v := range []struct {
		mshrs int
		pipe  bool
	}{{0, false}, {4, false}, {4, true}} {
		cfg := baseConfig(core.Resume)
		cfg.MissPenalty = 20
		cfg.NextLinePrefetch = true
		cfg.MSHRs = v.mshrs
		cfg.PipelinedMemory = v.pipe
		cfgs = append(cfgs, cfg)
	}
	return ablate(opt, t, benches, configs(cfgs), ispi)
}

// AblationCodeLayout evaluates profile-guided function reordering — the
// paper's "profile driven basic-block reordering" future-work item. Each
// benchmark is profiled on one stream and evaluated (original vs reordered
// layout) on a different stream, so the gain is not an artifact of training
// on the test trace. The reorders are built per benchmark before the
// work-list; a reordered bench cannot be rebuilt from its profile, so its
// cells run in-process even with a fleet configured (see specForCell).
func AblationCodeLayout(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	reordered, err := benchRows(opt, benches, func(b *synth.Bench) (*synth.Bench, error) {
		rb, err := synth.ReorderByProfile(b, opt.Insts, defaultStreamSeed+1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Profile().Name, err)
		}
		return rb, nil
	})
	if err != nil {
		return nil, err
	}
	relaid := make(map[*synth.Bench]*synth.Bench, len(benches))
	for i, b := range benches {
		relaid[b] = reordered[i]
	}
	cfg := baseConfig(core.Resume)
	t := texttable.New("Ablation: profile-guided code layout (Resume policy, 8K; ISPI / right-path miss %)",
		"Program", "original", "miss%", "reordered", "miss%")
	return ablate(opt, t, benches, []variant{
		func(b *synth.Bench) runCell { return newCell(b, cfg) },
		func(b *synth.Bench) runCell { return newCell(relaid[b], cfg) },
	}, ispiMiss)
}

// AblationL2 inserts a unified 64K L2 behind the paper's 8K L1 and varies
// the memory penalty: the hierarchy makes the effective fill latency small
// (the L2-hit case the paper's conclusion calls "an on-chip hierarchy of
// caches"), which should restore the aggressive policies' advantage even at
// a long memory latency.
func AblationL2(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	l2 := cache.Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 4}
	t := texttable.New("Ablation: on-chip L2 (20-cycle memory, 5-cycle L2 hits; ISPI and L2 hit rate)",
		"Program", "Opt noL2", "Pess noL2", "Opt +L2", "Pess +L2", "L2 hit%")
	var cfgs []core.Config
	for _, withL2 := range []bool{false, true} {
		for _, pol := range []core.Policy{core.Optimistic, core.Pessimistic} {
			cfg := baseConfig(pol)
			cfg.MissPenalty = 20
			if withL2 {
				l2c := l2
				cfg.L2 = &l2c
				cfg.L2Latency = 5
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return ablate(opt, t, benches, configs(cfgs), func(res []core.Result) []any {
		// The hit rate is the last L2 variant's with any L2 traffic.
		var hitPct float64
		for _, r := range res[2:] {
			if n := r.Traffic.L2Hits + r.Traffic.L2Misses; n > 0 {
				hitPct = 100 * float64(r.Traffic.L2Hits) / float64(n)
			}
		}
		return append(ispi(res), hitPct)
	})
}

// AblationContextSwitch flushes the I-cache at decreasing intervals
// (modelling OS context switches) and shows how the policy choice holds up:
// flush-induced cold misses are ordinary right-path misses, so the
// conservative policies' force_resolve tax grows with switch rate.
func AblationContextSwitch(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: context-switch flushing (Resume vs Pessimistic ISPI at flush intervals)",
		"Program", "Res inf", "Pess inf", "Res 100k", "Pess 100k", "Res 20k", "Pess 20k")
	var cfgs []core.Config
	for _, iv := range []int64{0, 100_000, 20_000} {
		for _, pol := range []core.Policy{core.Resume, core.Pessimistic} {
			cfg := baseConfig(pol)
			cfg.FlushInterval = iv
			cfgs = append(cfgs, cfg)
		}
	}
	return ablate(opt, t, benches, configs(cfgs), ispi)
}

// Ablations maps names to runners (used by cmd/paperbench -ablation).
func Ablations() map[string]func(Options) (*texttable.Table, error) {
	return map[string]func(Options) (*texttable.Table, error){
		"prefetch":      AblationPrefetch,
		"btb":           AblationBTBCoupling,
		"assoc":         AblationAssociativity,
		"width":         AblationFetchWidth,
		"pipelined-mem": AblationPipelinedMemory,
		"ras":           AblationRAS,
		"victim":        AblationVictimCache,
		"mshr":          AblationMSHR,
		"layout":        AblationCodeLayout,
		"ctxswitch":     AblationContextSwitch,
		"l2":            AblationL2,
	}
}
