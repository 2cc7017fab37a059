package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric, safe for concurrent
// use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; not
// enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64 metric, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a small Prometheus-style metrics registry with text
// exposition, for watching long simulation campaigns (paperbench
// --metrics-addr). Metric registration and exposition are guarded by a
// mutex; updates to the returned Counter/Gauge handles are lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// registeredAs names the metric type name is already registered under, or
// "" when the name is free. Callers hold r.mu.
func (r *Registry) registeredAs(name string) string {
	switch {
	case r.counters[name] != nil:
		return "counter"
	case r.gauges[name] != nil:
		return "gauge"
	case r.histograms[name] != nil:
		return "histogram"
	}
	return ""
}

// Counter returns the counter registered under name, creating it with the
// given help text on first use. Registering a name as both a counter and a
// gauge panics: that is a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	if typ := r.registeredAs(name); typ != "" {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s", name, typ))
	}
	c := &Counter{}
	r.counters[name] = c
	r.help[name] = help
	return c
}

// Gauge returns the gauge registered under name, creating it with the
// given help text on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if typ := r.registeredAs(name); typ != "" {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s", name, typ))
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.help[name] = help
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given help text on first use. Buckets are the package-fixed log-spaced
// layout (histBounds).
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if typ := r.registeredAs(name); typ != "" {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s", name, typ))
	}
	h := &Histogram{}
	r.histograms[name] = h
	r.help[name] = help
	return h
}

// WriteText writes the registry in the Prometheus text exposition format,
// metrics sorted by name.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	type row struct {
		name, typ, help, body string
	}
	rows := make([]row, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		rows = append(rows, row{name, "counter",
			r.help[name], name + " " + strconv.FormatInt(c.Value(), 10) + "\n"})
	}
	for name, g := range r.gauges {
		rows = append(rows, row{name, "gauge",
			r.help[name], name + " " + strconv.FormatFloat(g.Value(), 'g', -1, 64) + "\n"})
	}
	for name, h := range r.histograms {
		var sb strings.Builder
		if err := h.writeText(&sb, name); err != nil {
			r.mu.Unlock()
			return err
		}
		rows = append(rows, row{name, "histogram", r.help[name], sb.String()})
	}
	r.mu.Unlock()

	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	bw := bufio.NewWriter(w)
	for _, m := range rows {
		if m.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.typ)
		if _, err := bw.WriteString(m.body); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the text exposition (for a
// /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
