package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/metrics"
)

func TestKindStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{FillDemand.String(), "demand"},
		{FillWrongPath.String(), "wrong_path"},
		{FillPrefetch.String(), "prefetch"},
		{FillKind(99).String(), "fill(99)"},
		{RedirectPHTMispredict.String(), "pht_mispredict"},
		{RedirectBTBMisfetch.String(), "btb_misfetch"},
		{RedirectBTBMispredict.String(), "btb_mispredict"},
		{RedirectKind(7).String(), "redirect(7)"},
		{EvFetchCycle.String(), "fetch_cycle"},
		{EvStall.String(), "stall"},
		{EventType(200).String(), "event(200)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestEventTypeTextRoundTrip(t *testing.T) {
	for ty := EventType(0); ty < NumEventTypes; ty++ {
		b, err := ty.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back EventType
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%s: %v", ty, err)
		}
		if back != ty {
			t.Errorf("round trip %s -> %s", ty, back)
		}
	}
	var bad EventType
	if err := bad.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("unmarshal of unknown name succeeded")
	}
}

// drive invokes every Probe callback once with distinct arguments.
func drive(p Probe) {
	p.FetchCycle(1, 4)
	p.MissStart(2, 10, false)
	p.MissStart(3, 11, true)
	p.FillComplete(7, 10, FillDemand)
	p.BusAcquire(2, 10, FillDemand)
	p.BusRelease(7)
	p.BranchResolve(8, 0x400, true, true)
	p.Redirect(9, RedirectPHTMispredict, 0x440)
	p.Prefetch(10, 12, 15)
	p.WindowStart(8, RedirectPHTMispredict, 11)
	p.WindowEnd(11)
	p.Stall(12, 14, metrics.RTICache, 8)
}

const driveEvents = 12

func TestRecorderRecordsAllCallbacks(t *testing.T) {
	r := NewEventRecorder(64)
	drive(r)
	evs := r.Events()
	if len(evs) != driveEvents {
		t.Fatalf("recorded %d events, want %d", len(evs), driveEvents)
	}
	// Spot-check a few flattenings.
	if evs[0].Type != EvFetchCycle || evs[0].Cy != 1 || evs[0].Issued != 4 {
		t.Errorf("fetch_cycle event = %+v", evs[0])
	}
	if evs[2].Type != EvMissStart || evs[2].Kind != "wrong_path" {
		t.Errorf("wrong-path miss event = %+v", evs[2])
	}
	if evs[11].Type != EvStall || evs[11].Comp != "rt_icache" || evs[11].Slots != 8 || evs[11].Until != 14 {
		t.Errorf("stall event = %+v", evs[11])
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewEventRecorder(4)
	for cy := metrics.Cycles(0); cy < 10; cy++ {
		r.FetchCycle(cy, 1)
	}
	if got, want := r.Total(), uint64(10); got != want {
		t.Errorf("Total = %d, want %d", got, want)
	}
	if got, want := r.Dropped(), uint64(6); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Cy != want {
			t.Errorf("event %d cy = %d, want %d (oldest-first)", i, ev.Cy, want)
		}
	}
}

func TestRecorderJSONLRoundTrip(t *testing.T) {
	r := NewEventRecorder(64)
	drive(r)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev struct {
			V int `json:"v"`
			Event
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if ev.V != 1 {
			t.Fatalf("line %q: schema v%d, want v1", sc.Text(), ev.V)
		}
		back = append(back, ev.Event)
	}
	if !reflect.DeepEqual(back, r.Events()) {
		t.Errorf("JSONL round trip diverged:\n got %+v\nwant %+v", back, r.Events())
	}
}

func TestMultiFanOut(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() != nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) != nil")
	}
	r := NewEventRecorder(64)
	if Multi(nil, r) != Probe(r) {
		t.Error("Multi(nil, p) did not unwrap to p")
	}

	r2 := NewEventRecorder(64)
	s := NewWindowSeries()
	m := Multi(r, r2, s)
	drive(m)
	if got, got2 := len(r.Events()), len(r2.Events()); got != driveEvents || got2 != driveEvents {
		t.Errorf("fan-out recorded %d/%d events, want %d each", got, got2, driveEvents)
	}
	// Sample must reach the sampler part through the composite.
	m.(Sampler).Sample(Snapshot{Cycle: 10, Insts: 4})
	if s.Len() != 1 {
		t.Errorf("sampler saw %d windows through Multi, want 1", s.Len())
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("specfetch_simulations_total", "Completed simulation runs.")
	c.Inc()
	c.Add(2)
	if reg.Counter("specfetch_simulations_total", "ignored") != c {
		t.Error("Counter did not return the registered instance")
	}
	g := reg.Gauge("specfetch_ispi", "Last total ISPI.")
	g.Set(1.25)
	if got := g.Value(); got != 1.25 {
		t.Errorf("gauge = %v, want 1.25", got)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP specfetch_ispi Last total ISPI.\n" +
		"# TYPE specfetch_ispi gauge\n" +
		"specfetch_ispi 1.25\n" +
		"# HELP specfetch_simulations_total Completed simulation runs.\n" +
		"# TYPE specfetch_simulations_total counter\n" +
		"specfetch_simulations_total 3\n"
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge did not panic")
		}
	}()
	reg.Gauge("x", "")
}

func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n", "things").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "n 1\n") {
		t.Errorf("body = %q", rec.Body.String())
	}
}
