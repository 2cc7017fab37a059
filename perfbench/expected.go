package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"specfetch/internal/core"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/trace"
)

// The expected per-cell results of every workload, committed with the
// benchmark and checked on every run. Regenerate them after a change that
// is meant to move simulated results:
//
//	go -C perfbench run . --workload <name> --regen expected
//
//go:embed expected/*.json
var embeddedExpected embed.FS

// cellResult is one cell's simulated outcome. The experiments table functions expose
// only part of a cell's Result: a zero Insts or Cycles and a nil Lost mean
// "not exposed", and check compares only what is.
type cellResult struct {
	ID       string  `json:"id"`
	Insts    int64   `json:"insts"`
	Cycles   int64   `json:"cycles"`
	Lost     []int64 `json:"lost"`
	ISPI     float64 `json:"ispi"`
	Switches int64   `json:"switches"`
}

func fromResult(id string, r core.Result) cellResult {
	lost := make([]int64, metrics.NumComponents)
	for i, s := range r.Lost {
		lost[i] = s.Int64()
	}
	return cellResult{ID: id, Insts: r.Insts, Cycles: r.Cycles.Int64(), Lost: lost,
		ISPI: r.TotalISPI(), Switches: r.PolicySwitches}
}

// cellFromWindows sums one cell's window series, which tiles the run.
func cellFromWindows(id string, ws []obs.WindowRecord) cellResult {
	var b metrics.Breakdown
	c := cellResult{ID: id, Lost: make([]int64, metrics.NumComponents)}
	for _, w := range ws {
		c.Insts += w.Insts()
		c.Cycles += w.Cycles()
		for i, l := range w.Lost {
			c.Lost[i] += l
			b.Add(metrics.Component(i), metrics.Slots(l))
		}
	}
	c.ISPI = b.TotalISPI(c.Insts)
	return c
}

// countGroup holds cells whose (insts, cycles) the work-list reports only
// as an unordered set: the progress lines of one bench/policy pair.
type countGroup struct {
	ids   []string
	pairs [][2]int64
}

// expectedFile is one workload's committed results.
type expectedFile struct {
	Workload string       `json:"workload"`
	Insts    int64        `json:"insts"`
	Cells    []cellResult `json:"cells"`
	byID     map[string]cellResult
}

// loadExpected reads every expected/<workload>.json in fsys.
func loadExpected(fsys fs.FS) (map[string]*expectedFile, error) {
	names, err := fs.Glob(fsys, "expected/*.json")
	if err != nil {
		return nil, err
	}
	out := map[string]*expectedFile{}
	for _, n := range names {
		data, err := fs.ReadFile(fsys, n)
		if err != nil {
			return nil, err
		}
		var e expectedFile
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		e.index()
		out[e.Workload] = &e
	}
	return out, nil
}

func (e *expectedFile) index() {
	e.byID = make(map[string]cellResult, len(e.Cells))
	for _, c := range e.Cells {
		e.byID[c.ID] = c
	}
}

// check compares a pass's observed cells and groups with the expected
// results and returns the IDs of the cells that differ.
func (e *expectedFile) check(cells []cellResult, groups []countGroup) map[string]bool {
	bad := map[string]bool{}
	for _, c := range cells {
		want, ok := e.byID[c.ID]
		if !ok || !sameCell(c, want) {
			bad[c.ID] = true
		}
	}
	for _, g := range groups {
		var want [][2]int64
		for _, id := range g.ids {
			want = append(want, [2]int64{e.byID[id].Insts, e.byID[id].Cycles})
		}
		if !reflect.DeepEqual(sortedPairs(want), sortedPairs(g.pairs)) {
			for _, id := range g.ids {
				bad[id] = true
			}
		}
	}
	return bad
}

// sameCell compares the fields got exposes; ISPI compares exactly.
func sameCell(got, want cellResult) bool {
	switch {
	case got.ISPI != want.ISPI, got.Switches != want.Switches:
		return false
	case got.Insts != 0 && got.Insts != want.Insts:
		return false
	case got.Cycles != 0 && got.Cycles != want.Cycles:
		return false
	case got.Lost != nil && !reflect.DeepEqual(got.Lost, want.Lost):
		return false
	}
	return true
}

// replayReference runs every cell once through core.Run over its
// pre-collected stream and returns the full results.
func replayReference(cells []replayCell, insts int64) ([]cellResult, error) {
	streams := map[streamKey][]trace.Record{}
	var out []cellResult
	for _, c := range cells {
		k := streamKey{c.bench.Profile().Name, c.seed}
		if _, ok := streams[k]; !ok {
			recs, err := collectStream(c, insts)
			if err != nil {
				return nil, err
			}
			streams[k] = recs
		}
		res, err := runCell(c, insts, streams[k], nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.id, err)
		}
		out = append(out, fromResult(c.id, res))
	}
	return out, nil
}

// regenerate recomputes a workload's expected results, checks one pass of
// the work-list against them, and writes dir/<workload>.json.
func regenerate(w workloadDef, o options, dir string) error {
	inst := w.open(o)
	defer inst.close()
	if _, err := inst.setup(nil); err != nil {
		return err
	}
	ref, err := inst.reference()
	if err != nil {
		return err
	}
	e := &expectedFile{Workload: w.name, Insts: o.insts, Cells: ref}
	e.index()
	out, err := inst.pass(nil, 0)
	if err != nil {
		return err
	}
	if bad := e.check(out.cells, out.groups); len(bad) > 0 {
		return fmt.Errorf("the work-list and the reference disagree on %d cells, e.g. %v", len(bad), firstKey(bad))
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, w.name+".json"), append(data, '\n'), 0o644)
}

// sortedPairs returns a sorted copy of pairs.
func sortedPairs(pairs [][2]int64) [][2]int64 {
	out := append([][2]int64(nil), pairs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func firstKey(m map[string]bool) string {
	for k := range m {
		return k
	}
	return ""
}
