// Command intervals renders a file of v1 interval lines: window series
// written by `paperbench -oracle -intervals-out`, by `fetchsim -series`,
// or assembled from distsweep job results with capture_windows set. If
// every benchmark x penalty group holds one line, it prints each line as a
// per-window series table (IPC, ISPI, cumulative ISPI, ISPI per penalty
// component, miss rate, bus occupancy). Otherwise the file is an oracle
// study: it regroups the per-policy series, which must cover all five
// policies, recomputes the per-window winners, and prints the
// oracle-vs-static crossover table plus the per-window winner map — the
// exact bytes the producing sweep rendered.
//
// Usage:
//
//	intervals intervals.jsonl
//	paperbench -oracle -quiet -intervals-out /dev/stdout >/dev/null | intervals
//	intervals -csv intervals.jsonl
//	intervals -winners-only intervals.jsonl
//	fetchsim -bench gcc -series series.jsonl && intervals -csv series.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"specfetch/internal/experiments"
	"specfetch/internal/texttable"
)

func main() {
	csv := flag.Bool("csv", false, "emit the crossover or series tables as CSV instead of aligned text")
	winnersOnly := flag.Bool("winners-only", false, "print only the per-window winner map (oracle studies only)")
	flag.Parse()

	var in io.Reader = os.Stdin
	switch flag.NArg() {
	case 0:
		// read the JSONL from stdin
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer func() { _ = f.Close() }() // read side; nothing to lose on close
		in = f
	default:
		usage()
	}

	lines, err := experiments.ReadIntervalLines(in)
	if err != nil {
		fatal(err)
	}
	if onePerGroup(lines) {
		if *winnersOnly {
			fmt.Fprintln(os.Stderr, "intervals: -winners-only needs an oracle study (five policies per benchmark and penalty)")
			usage()
		}
		// Tables are separated by blank lines; only the text view heads
		// them, so a one-line file renders as a single CSV document.
		for i, l := range lines {
			if i > 0 {
				out("\n")
			}
			if !*csv {
				out("Window series: %s @ %dc, %s (window = %d insts)\n", l.Bench, l.Penalty, l.Policy, l.Interval)
			}
			render(experiments.SeriesTable(l.Windows), *csv)
		}
		return
	}

	d, err := experiments.OracleFromLines(lines)
	if err != nil {
		fatal(err)
	}
	if !*winnersOnly {
		render(d.CrossoverTable(), *csv)
		out("\n")
	}
	out("%s", d.WinnerMap())
}

// onePerGroup reports whether no two lines share a benchmark and penalty,
// which makes the file a set of single-run series, not an oracle study.
func onePerGroup(lines []experiments.IntervalLine) bool {
	type key struct {
		bench string
		pen   int
	}
	seen := map[key]bool{}
	for _, l := range lines {
		k := key{l.Bench, l.Penalty}
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// render prints t to stdout as CSV or as aligned text.
func render(t *texttable.Table, csv bool) {
	var err error
	if csv {
		err = t.RenderCSV(os.Stdout)
	} else {
		err = t.Render(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

// out is a checked Printf to stdout.
func out(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: intervals [-csv] [-winners-only] [file.jsonl]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "intervals: %v\n", err)
	os.Exit(1)
}
