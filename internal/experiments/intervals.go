package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"specfetch/internal/core"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/texttable"
)

// IntervalLine is the v1 interval line, the one form in which window data
// leaves a process: one run's window series, labelled by benchmark, miss
// penalty, policy and window width. paperbench -intervals-out writes one
// line per benchmark x penalty x policy of the oracle study, fetchsim
// -series one line for its run, and cmd/intervals renders either.
type IntervalLine struct {
	// V is the schema version; WriteIntervalLines stamps it, and
	// ReadIntervalLines rejects lines from any other version.
	V        int                `json:"v"`
	Bench    string             `json:"bench"`
	Penalty  int                `json:"penalty"`
	Policy   core.Policy        `json:"policy"`
	Interval int64              `json:"interval"`
	Windows  []obs.WindowRecord `json:"windows"`

	// line is the 1-based input line a parsed record came from, so checks
	// made after parsing can still name it.
	line int
}

// intervalLineVersion is the schema version WriteIntervalLines stamps.
const intervalLineVersion = 1

// WriteIntervalLines encodes lines as JSONL, one object per line, each
// stamped with the current schema version.
func WriteIntervalLines(w io.Writer, lines ...IntervalLine) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, l := range lines {
		l.V = intervalLineVersion
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadIntervalLines parses interval JSONL. Every line must carry the
// current schema version, a known policy and a positive window width shared
// by all lines; an error names the first line that does not. Blank lines
// are skipped, and a stream with no records is an error.
func ReadIntervalLines(r io.Reader) ([]IntervalLine, error) {
	var lines []IntervalLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	n := 0
	for sc.Scan() {
		n++
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var l IntervalLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("intervals jsonl line %d: %w", n, err)
		}
		switch {
		case l.V != intervalLineVersion:
			return nil, fmt.Errorf("intervals jsonl line %d: schema v%d, want v%d", n, l.V, intervalLineVersion)
		case l.Interval <= 0:
			return nil, fmt.Errorf("intervals jsonl line %d: interval %d, want > 0", n, l.Interval)
		case len(lines) > 0 && l.Interval != lines[0].Interval:
			return nil, fmt.Errorf("intervals jsonl line %d: mixed intervals %d and %d", n, l.Interval, lines[0].Interval)
		case l.Policy < core.Oracle || l.Policy > core.Adaptive:
			return nil, fmt.Errorf("intervals jsonl line %d: unknown policy %d", n, int(l.Policy))
		}
		l.line = n
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("intervals jsonl: no records")
	}
	return lines, nil
}

// SeriesTable renders one window series as rates, one row per window: the
// window's end point, its IPC and ISPI, the cumulative ISPI since run
// start, its ISPI per penalty component in the paper's stacking order, its
// right-path miss rate and its bus occupancy (which can exceed 100 with
// pipelined memory). cum_ispi comes from a running sum of the windows' lost
// slots, which tile the run from its start, so the last row's cum_ispi
// equals the run's Result.TotalISPI exactly. Values are printed with the
// fewest digits that parse back to the same float64.
func SeriesTable(recs []obs.WindowRecord) *texttable.Table {
	headers := []string{"insts", "cycle", "ipc", "ispi", "cum_ispi"}
	for _, c := range metrics.Components() {
		headers = append(headers, "ispi_"+c.String())
	}
	t := texttable.New("", append(headers, "miss_pct", "bus_occupancy_pct")...)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var cum int64
	for _, r := range recs {
		cum += r.TotalLost()
		ipc := 0.0
		if c := r.Cycles(); c > 0 {
			ipc = float64(r.Insts()) / float64(c)
		}
		row := []string{strconv.FormatInt(r.EndInsts, 10), strconv.FormatInt(r.EndCycle, 10),
			f(ipc), f(r.ISPI()), f(metrics.Slots(cum).PerInst(r.EndInsts))}
		for _, c := range metrics.Components() {
			row = append(row, f(r.CompISPI(c)))
		}
		t.AddRow(append(row, f(r.MissPct()), f(r.BusOccupancyPct()))...)
	}
	return t
}
