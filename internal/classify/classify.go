// Package classify reproduces the paper's Table 4: it runs the Oracle and
// Optimistic policies over the same trace and partitions correct-path
// I-cache misses into the four categories the paper defines, by matching up
// the two runs' structural reference streams (which are policy independent
// for a given trace).
package classify

import (
	"fmt"

	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/program"
	"specfetch/internal/trace"
)

// Categories holds Table 4's columns. The four miss classes are per
// correct-path instruction, as percentages (matching the paper's units):
//
//   - BothMiss: misses in both Oracle and Optimistic.
//   - SpecPollute: misses only in Optimistic on the correct path — pollution
//     caused by wrong-path fills.
//   - SpecPrefetch: misses only in Oracle — prevented in Optimistic by the
//     prefetching effect of wrong-path fills.
//   - WrongPath: misses Optimistic takes on wrong paths (their main cost is
//     memory bandwidth).
type Categories struct {
	BothMiss     float64
	SpecPollute  float64
	SpecPrefetch float64
	WrongPath    float64
	// TrafficRatio is total Optimistic line fetches over Oracle's.
	TrafficRatio float64
	// Insts is the correct-path instruction count both runs retired.
	Insts int64
}

// NewPredictor builds a fresh predictor for one classification run; both
// runs must start from identical predictor state.
type NewPredictor func() bpred.Predictor

// NewReader builds a fresh reader over the same trace; both runs must see
// identical records.
type NewReader func() trace.Reader

// Run classifies misses for the given machine configuration (whose Policy
// field is ignored; Oracle and Optimistic are used).
func Run(cfg core.Config, img *program.Image, newReader NewReader, newPred NewPredictor) (Categories, error) {
	oracleMiss, oracleRes, err := missStream(cfg, core.Oracle, img, newReader(), newPred())
	if err != nil {
		return Categories{}, fmt.Errorf("classify: oracle run: %w", err)
	}
	optMiss, optRes, err := missStream(cfg, core.Optimistic, img, newReader(), newPred())
	if err != nil {
		return Categories{}, fmt.Errorf("classify: optimistic run: %w", err)
	}
	if oracleRes.Insts != optRes.Insts {
		return Categories{}, fmt.Errorf("classify: instruction counts diverge: oracle %d, optimistic %d",
			oracleRes.Insts, optRes.Insts)
	}
	if len(oracleMiss) != len(optMiss) {
		return Categories{}, fmt.Errorf("classify: reference streams diverge: oracle %d refs, optimistic %d",
			len(oracleMiss), len(optMiss))
	}

	var both, pollute, prefetch int64
	for i := range oracleMiss {
		switch {
		case oracleMiss[i] && optMiss[i]:
			both++
		case oracleMiss[i] && !optMiss[i]:
			prefetch++
		case !oracleMiss[i] && optMiss[i]:
			pollute++
		}
	}

	insts := oracleRes.Insts
	pct := func(n int64) float64 {
		if insts == 0 {
			return 0
		}
		return 100 * float64(n) / float64(insts)
	}
	cat := Categories{
		BothMiss:     pct(both),
		SpecPollute:  pct(pollute),
		SpecPrefetch: pct(prefetch),
		WrongPath:    pct(int64(optRes.Traffic.WrongPathFills)),
		Insts:        insts,
	}
	if oracleRes.Traffic.Total() > 0 {
		cat.TrafficRatio = float64(optRes.Traffic.Total()) / float64(oracleRes.Traffic.Total())
	}
	return cat, nil
}

// missStream runs one policy and records the per-reference miss outcomes.
func missStream(cfg core.Config, pol core.Policy, img *program.Image, rd trace.Reader, pred bpred.Predictor) ([]bool, core.Result, error) {
	var misses []bool
	cfg.Policy = pol
	cfg.NextLinePrefetch = false // Table 4 is measured without prefetching
	cfg.OnRightPathAccess = func(seq int64, line uint64, miss bool) {
		if seq != int64(len(misses)) {
			panic(fmt.Sprintf("classify: non-monotone reference sequence %d (have %d)", seq, len(misses)))
		}
		misses = append(misses, miss)
	}
	res, err := core.Run(cfg, img, rd, pred)
	return misses, res, err
}
