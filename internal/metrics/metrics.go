// Package metrics is a dependency-free Prometheus-text-format metric
// registry: the observability seam dsearchd and the broker expose at
// GET /metrics. It implements the three instrument kinds the serving
// stack needs — monotone counters, point-in-time gauges, and cumulative
// latency histograms — plus function-backed variants that sample an
// existing source (an atomic the handler already maintains, a cache's
// Stats method) at scrape time instead of double-counting.
//
// The exposition format is the subset of the Prometheus text format
// every scraper understands:
//
//	# HELP name help text
//	# TYPE name counter
//	name{label="value"} 123
//
// Metrics render in registration order, label sets in first-use order —
// deterministic output, so tests can pin exact lines. All instruments
// are safe for concurrent use.
package metrics

import (
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

// Registry holds a set of named metrics and renders them in text format.
// Create with NewRegistry; the zero value is not usable.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// metric is one named family: everything the registry needs to render it.
type metric interface {
	name() string
	write(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register adds m, panicking on a duplicate name — two families with one
// name would render invalid exposition, and registration happens at
// construction time where a panic is a programming error surfacing early.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name()] {
		panic(fmt.Sprintf("metrics: duplicate metric %q", m.name()))
	}
	r.names[m.name()] = true
	r.metrics = append(r.metrics, m)
}

// WriteText renders every registered metric in registration order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		m.write(w)
	}
}

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// header writes a family's HELP/TYPE preamble.
func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// escapeHelp escapes the two characters the text format reserves in HELP.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value: integers without a decimal point,
// everything else in Go's shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders a label set as {k1="v1",k2="v2"}, empty for none.
func labelString(keys, vals []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing value. Vec children returned by
// CounterVec.With share their value with the family, so v is a pointer.
type Counter struct {
	nm, help string
	v        *atomic.Uint64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, help: help, v: new(atomic.Uint64)}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) name() string { return c.nm }

func (c *Counter) write(w io.Writer) {
	header(w, c.nm, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.nm, c.v.Load())
}

// CounterVec is a family of counters partitioned by a fixed label set —
// queries by endpoint and outcome, for example. Children are created on
// first use and render in first-use order.
type CounterVec struct {
	nm, help string
	keys     []string
	mu       sync.Mutex
	order    []string
	children map[string]*atomic.Uint64
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{nm: name, help: help, keys: labels, children: make(map[string]*atomic.Uint64)}
	r.register(cv)
	return cv
}

// With returns the child counter for the given label values (one per
// label key, in key order). It panics on arity mismatch — a programming
// error, not load-dependent state.
func (cv *CounterVec) With(values ...string) *Counter {
	if len(values) != len(cv.keys) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", cv.nm, len(cv.keys), len(values)))
	}
	key := labelString(cv.keys, values)
	cv.mu.Lock()
	child := cv.children[key]
	if child == nil {
		child = &atomic.Uint64{}
		cv.children[key] = child
		cv.order = append(cv.order, key)
	}
	cv.mu.Unlock()
	return &Counter{nm: cv.nm, v: child}
}

func (cv *CounterVec) name() string { return cv.nm }

func (cv *CounterVec) write(w io.Writer) {
	header(w, cv.nm, cv.help, "counter")
	cv.mu.Lock()
	order := make([]string, len(cv.order))
	copy(order, cv.order)
	vals := make([]uint64, len(order))
	for i, k := range order {
		vals[i] = cv.children[k].Load()
	}
	cv.mu.Unlock()
	for i, k := range order {
		fmt.Fprintf(w, "%s%s %d\n", cv.nm, k, vals[i])
	}
}

// funcMetric samples its source at scrape time — the bridge to state the
// serving stack already maintains (atomic counters, cache statistics),
// where a second write path would drift from the first.
type funcMetric struct {
	nm, help, typ string
	fn            func() float64
}

// NewGaugeFunc registers a gauge sampled from fn at every scrape.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{nm: name, help: help, typ: "gauge", fn: fn})
}

// NewCounterFunc registers a counter sampled from fn at every scrape. fn
// must be monotone for the exposition to be honest; the registry cannot
// enforce that.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{nm: name, help: help, typ: "counter", fn: fn})
}

func (f *funcMetric) name() string { return f.nm }

func (f *funcMetric) write(w io.Writer) {
	header(w, f.nm, f.help, f.typ)
	fmt.Fprintf(w, "%s %s\n", f.nm, formatValue(f.fn()))
}

// DefaultLatencyBuckets spans 100µs to ~26s in powers of four — wide
// enough for a cache hit and a cold million-doc scatter-gather alike,
// few enough that a scrape stays small.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384, 6.5536, 26.2144,
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: each bucket counts observations ≤ its bound, and an
// implicit +Inf bucket equals the total count).
type Histogram struct {
	nm, help string
	bounds   []float64
	mu       sync.Mutex
	counts   []uint64
	sum      float64
	total    uint64
}

// NewHistogram registers and returns a histogram over the given bucket
// upper bounds (ascending; DefaultLatencyBuckets when nil).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("metrics: %s: buckets must ascend", name))
	}
	h := &Histogram{nm: name, help: help, bounds: buckets, counts: make([]uint64, len(buckets))}
	r.register(h)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	if i < len(h.counts) {
		h.counts[i]++
	}
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

func (h *Histogram) name() string { return h.nm }

func (h *Histogram) write(w io.Writer) {
	h.mu.Lock()
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts)
	sum, total := h.sum, h.total
	h.mu.Unlock()

	header(w, h.nm, h.help, "histogram")
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.nm, formatValue(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, total)
	fmt.Fprintf(w, "%s_sum %s\n", h.nm, formatValue(sum))
	fmt.Fprintf(w, "%s_count %d\n", h.nm, total)
}
