package obs

import (
	"sync"
	"testing"
)

// TestSpanTracerRecords covers the core contract: spans carry their name,
// worker, current section, and non-negative monotonic timing.
func TestSpanTracerRecords(t *testing.T) {
	tr := NewSpanTracer()
	tr.SetSection("table 6")
	h := tr.Start("gcc/resume", 2)
	// Burn a little work so the duration is meaningful without sleeping
	// (package obs is inside the determinism lint scope).
	x := 0
	for i := 0; i < 1000; i++ {
		x += i * i
	}
	_ = x
	span, ok := h.End()
	if !ok {
		t.Fatal("End returned ok=false for a live handle")
	}
	if span.Name != "gcc/resume" || span.Worker != 2 || span.Section != "table 6" {
		t.Errorf("span = %+v, want name gcc/resume, worker 2, section table 6", span)
	}
	if span.Start < 0 || span.Dur < 0 {
		t.Errorf("negative timing: start %v dur %v", span.Start, span.Dur)
	}

	got := tr.Spans()
	if len(got) != 1 || got[0] != span {
		t.Errorf("Spans() = %+v, want exactly the returned span", got)
	}
}

// TestSpanTracerSectionStamping: the section label is sampled at End time,
// so a span straddling a SetSection gets the new label — paperbench sets
// the section before running a builder, and all of that builder's spans end
// inside it.
func TestSpanTracerSectionStamping(t *testing.T) {
	tr := NewSpanTracer()
	h := tr.Start("a", 0)
	tr.SetSection("later")
	span, _ := h.End()
	if span.Section != "later" {
		t.Errorf("section = %q, want %q", span.Section, "later")
	}
}

// TestSpanTracerNilSafe: a nil tracer must be a total no-op so call sites
// in the shard executor need no guards.
func TestSpanTracerNilSafe(t *testing.T) {
	var tr *SpanTracer
	tr.SetSection("x")
	h := tr.Start("a", 0)
	if _, ok := h.End(); ok {
		t.Error("nil tracer End returned ok=true")
	}
	if tr.Spans() != nil {
		t.Error("nil tracer Spans() != nil")
	}
}

// TestSpanTracerConcurrent drives spans from several goroutines under the
// race detector and checks none are lost.
func TestSpanTracerConcurrent(t *testing.T) {
	tr := NewSpanTracer()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h := tr.Start("cell", w)
				if _, ok := h.End(); !ok {
					t.Error("live handle reported ok=false")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != workers*per {
		t.Errorf("recorded %d spans, want %d", got, workers*per)
	}
	for _, s := range tr.Spans() {
		if s.Worker < 0 || s.Worker >= workers {
			t.Errorf("span worker %d out of range", s.Worker)
		}
	}
}

// TestSpanAllocs: the alloc counter is process-global but monotonic, so a
// span wrapping a known allocation records at least that much at Workers=1
// (no concurrent neighbours in this test).
func TestSpanAllocs(t *testing.T) {
	tr := NewSpanTracer()
	h := tr.Start("alloc", 0)
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	span, _ := h.End()
	if span.Allocs == 0 {
		t.Error("span over 64 slice allocations recorded Allocs = 0")
	}
}
