package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"specfetch/internal/hosttime"
)

// spanRec is one completed call into a layer, timed from the benchmark's
// side of the call.
type spanRec struct {
	ID, Parent int
	// Layer is the module called (synth, core, bpred, ...); Name the call.
	Layer, Name string
	// Cell identifies the work-list cell the call served, if any.
	Cell string
	// Tid is the trace track: 0 the benchmark's own goroutine, 1-2 the
	// experiments pool workers, 11-12 the sweep workers.
	Tid        int
	Start, Dur time.Duration
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// *tracer still times: start and end measure, but nothing is recorded, so
// the untraced run shares the traced run's code paths.
type tracer struct {
	base hosttime.Instant

	mu    sync.Mutex
	next  int
	spans []spanRec
}

func newTracer() *tracer { return &tracer{base: hosttime.Now()} }

// now returns the offset of the current instant on the tracer's clock.
func (t *tracer) now() time.Duration { return hosttime.Since(t.base) }

// openSpan is a call in progress.
type openSpan struct {
	t     *tracer
	rec   spanRec
	start hosttime.Instant
}

// start opens a span; parent is the ID of the span that caused it (0 for
// none).
func (t *tracer) start(layer, name, cell string, parent, tid int) *openSpan {
	s := &openSpan{t: t, start: hosttime.Now()}
	if t == nil {
		return s
	}
	t.mu.Lock()
	t.next++
	s.rec = spanRec{ID: t.next, Parent: parent, Layer: layer, Name: name, Cell: cell, Tid: tid,
		Start: s.start.Sub(t.base)}
	t.mu.Unlock()
	return s
}

// id returns the span's ID (0 on a nil tracer).
func (s *openSpan) id() int { return s.rec.ID }

// end closes the span, records it and returns its duration.
func (s *openSpan) end() time.Duration {
	d := hosttime.Since(s.start)
	if s.t != nil {
		s.rec.Dur = d
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, s.rec)
		s.t.mu.Unlock()
	}
	return d
}

// add records a span measured elsewhere, giving it an ID.
func (t *tracer) add(r spanRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	r.ID = t.next
	t.spans = append(t.spans, r)
}

// chromeEvent is one Chrome trace-event-format record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace JSON (loadable in Perfetto
// and chrome://tracing) to path.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	tracks := map[int]string{0: "benchmark"}
	var evs []chromeEvent
	for _, s := range spans {
		if _, ok := tracks[s.Tid]; !ok {
			tracks[s.Tid] = trackName(s.Tid)
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Cell != "" {
			args["cell"] = s.Cell
		}
		evs = append(evs, chromeEvent{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: us(s.Start), Dur: us(s.Dur), Pid: 1, Tid: s.Tid, Args: args})
	}
	for tid, name := range tracks {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		_ = f.Close() // the encode error is the one worth reporting
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func trackName(tid int) string {
	switch {
	case tid >= 11:
		return fmt.Sprintf("sweep worker %d", tid-11)
	case tid >= 1:
		return fmt.Sprintf("pool worker %d", tid-1)
	}
	return "benchmark"
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
