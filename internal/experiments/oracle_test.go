package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
)

func win(idx int, start, end, lost int64) obs.WindowRecord {
	r := obs.WindowRecord{Index: idx, StartInsts: start, EndInsts: end}
	r.Lost[0] = lost
	return r
}

func TestOracleSelect(t *testing.T) {
	pols := core.Policies()
	series := map[core.Policy][]obs.WindowRecord{}
	// Three windows; winners by construction: Optimistic, Pessimistic, then
	// a three-way tie at 5 that must resolve to the earliest policy (Oracle).
	lost := map[core.Policy][3]int64{
		core.Oracle:      {9, 9, 5},
		core.Optimistic:  {3, 9, 5},
		core.Resume:      {9, 9, 9},
		core.Pessimistic: {9, 2, 5},
		core.Decode:      {9, 9, 9},
	}
	for _, pol := range pols {
		for i := 0; i < 3; i++ {
			series[pol] = append(series[pol], win(i, int64(i)*100, int64(i+1)*100, lost[pol][i]))
		}
	}
	winners, err := OracleSelect(series, pols)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Policy{core.Optimistic, core.Pessimistic, core.Oracle}
	if !reflect.DeepEqual(winners, want) {
		t.Errorf("winners = %v, want %v", winners, want)
	}

	// Misaligned boundaries are an error, not a silent argmin over
	// different instructions.
	bad := map[core.Policy][]obs.WindowRecord{}
	for _, pol := range pols {
		bad[pol] = append([]obs.WindowRecord(nil), series[pol]...)
	}
	bad[core.Decode][1].EndInsts += 7
	if _, err := OracleSelect(bad, pols); err == nil {
		t.Error("misaligned window boundaries not rejected")
	}
	short := map[core.Policy][]obs.WindowRecord{}
	for _, pol := range pols {
		short[pol] = series[pol]
	}
	short[core.Resume] = series[core.Resume][:2]
	if _, err := OracleSelect(short, pols); err == nil {
		t.Error("length-mismatched series not rejected")
	}
}

// oracleOpt is the study configuration every identity arm below shares.
func oracleOpt() Options {
	return Options{Insts: 60_000, Benchmarks: []string{"gcc", "groff"}}
}

const oracleTestInterval = 5_000

// renderOracle runs the study and flattens every rendered artifact plus the
// JSONL wire form into one byte string for identity comparison.
func renderOracle(t *testing.T, opt Options) string {
	t.Helper()
	d, err := OracleSelectorData(opt, oracleTestInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := d.CrossoverTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(d.WinnerMap())
	if err := d.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestOracleBytesIdenticalAcrossWorkers: the study renders the same bytes
// serially, on a 4-worker pool, and dispatched to a spawned 2-worker fleet.
func TestOracleBytesIdenticalAcrossWorkers(t *testing.T) {
	serial := oracleOpt()
	serial.Workers = 1
	want := renderOracle(t, serial)

	pooled := oracleOpt()
	pooled.Workers = 4
	if got := renderOracle(t, pooled); got != want {
		t.Error("4-worker pool renders the oracle study differently from serial")
	}

	remote := oracleOpt()
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:   startWorkers(t, 2),
		BatchSize: 4,
	})
	if got := renderOracle(t, remote); got != want {
		t.Error("remote fleet renders the oracle study differently from serial")
	}
}

// readOracle parses interval JSONL and regroups it into an oracle study.
func readOracle(s string) (*OracleData, error) {
	lines, err := ReadIntervalLines(strings.NewReader(s))
	if err != nil {
		return nil, err
	}
	return OracleFromLines(lines)
}

// TestOracleJSONLRoundTrip: the JSONL wire form rebuilds the same rows,
// winners, and rendered report, and malformed or incomplete files are
// rejected.
func TestOracleJSONLRoundTrip(t *testing.T) {
	opt := oracleOpt()
	opt.Workers = 1
	d, err := OracleSelectorData(opt, oracleTestInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := d.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	back, err := readOracle(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Rows, d.Rows) {
		t.Error("JSONL round trip changed the rows")
	}
	if back.Interval != d.Interval || !reflect.DeepEqual(back.Penalties, d.Penalties) {
		t.Errorf("round trip meta: interval %d penalties %v, want %d %v",
			back.Interval, back.Penalties, d.Interval, d.Penalties)
	}
	if back.CrossoverTable().String() != d.CrossoverTable().String() ||
		back.WinnerMap() != d.WinnerMap() {
		t.Error("JSONL round trip changed the rendered report")
	}

	jsonl := strings.SplitAfter(b.String(), "\n")
	line := func(policy int, interval int64) string {
		return fmt.Sprintf(`{"v":1,"bench":"gcc","penalty":5,"policy":%d,"interval":%d,"windows":[]}`+"\n", policy, interval)
	}
	for _, tc := range []struct{ name, in, want string }{
		{"empty", "", "no records"},
		{"future schema", `{"v":99}`, "line 1: schema v99"},
		{"zero first interval", line(0, 0) + line(1, 100) + line(2, 100), "line 1: interval 0"},
		{"mixed intervals", line(0, 100) + line(1, 200), "line 2: mixed intervals"},
		{"unknown policy", line(0, 100) + "\n" + line(42, 100), "line 3: unknown policy 42"},
		{"negative policy", line(-1, 100), "line 1: unknown policy -1"},
		{"missing policy", strings.Join(jsonl[1:], ""), "no series for policy oracle"},
		{"duplicate series", jsonl[0] + jsonl[0], "line 2: duplicate series"},
	} {
		if _, err := readOracle(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestOracleLayerDisabledNeutral: a sweep's Results are bit-identical with
// window capture off (no windows come back) and on (every cell returns
// windows) — capture is observe-only.
func TestOracleLayerDisabledNeutral(t *testing.T) {
	opt := oracleOpt()
	opt.Workers = 1
	benches, err := buildAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	var cells []runCell
	for _, b := range benches {
		for _, pol := range core.Policies() {
			cells = append(cells, newCell(b, baseConfig(pol)))
		}
	}
	plain, err := runCells(opt, cells)
	if err != nil {
		t.Fatal(err)
	}

	for name, iv := range map[string]int64{"plain": 0, "capturing": oracleTestInterval} {
		o := opt
		o.windowInterval = iv
		full, err := runCellsFull(o, cells)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if !reflect.DeepEqual(full[i].res, plain[i]) {
				t.Fatalf("%s run changed cell %d's Result", name, i)
			}
			if captured := len(full[i].windows) > 0; captured != (iv > 0) {
				t.Fatalf("%s run: cell %d returned %d windows", name, i, len(full[i].windows))
			}
		}
	}
}

// TestOracleStepModeIdentity: the full study renders identical bytes under
// the reference stepper and the skip-ahead core — the experiments-level
// face of the core series-identity suite.
func TestOracleStepModeIdentity(t *testing.T) {
	fast := oracleOpt()
	fast.Workers = 1
	fast.StepMode = core.StepSkipAhead
	ref := fast
	ref.StepMode = core.StepReference
	if renderOracle(t, fast) != renderOracle(t, ref) {
		t.Error("oracle study renders differently across step modes")
	}
}
