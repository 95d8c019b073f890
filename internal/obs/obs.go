// Package obs is the campaign observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) rendered
// in the Prometheus text exposition format, plus the live HTTP endpoint
// that serves it alongside a JSON study status and net/http/pprof.
//
// The package is built for a zero-cost disabled path: every instrument
// method is safe on a nil receiver and compiles to a single nil check,
// so instrumented code can hold nil instruments when observability is
// off. Updates are lock-free atomics; rendering takes the registry lock
// only to walk the instrument list.
//
// Nothing here may influence campaign results: instruments carry timing
// and counts out of the run, never values back into it.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are nil-safe no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Store replaces the count with an absolute value. It exists for
// mirroring a count another component owns: a registry collector
// re-reading an owner at scrape time, or a coordinator re-publishing a
// worker's cumulative snapshot rather than accumulating deltas.
func (c *Counter) Store(n uint64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; all methods are nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetUint64 replaces the gauge value, clamping to the int64 range.
func (g *Gauge) SetUint64(n uint64) {
	if n > math.MaxInt64 {
		n = math.MaxInt64
	}
	g.Set(int64(n))
}

// Inc adds one.
func (g *Gauge) Inc() {
	if g != nil {
		g.v.Add(1)
	}
}

// Dec subtracts one.
func (g *Gauge) Dec() {
	if g != nil {
		g.v.Add(-1)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf bucket) and tracks their sum, Prometheus-style:
// cumulative on render, per-bucket atomics on observe. All methods are
// nil-safe no-ops.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Store replaces the distribution with per-bucket counts (one per bound
// plus +Inf, not cumulative) and their sum, mirroring one an owner keeps.
func (h *Histogram) Store(counts []uint64, sum float64) {
	if h == nil {
		return
	}
	var n uint64
	for i := range h.counts {
		h.counts[i].Store(counts[i])
		n += counts[i]
	}
	h.count.Store(n)
	h.sum.Store(math.Float64bits(sum))
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name string // full series name, may carry {label="value"} pairs
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// family is the metric name with any label set stripped — the unit of
// # HELP / # TYPE lines in the exposition format.
func (m *metric) family() string {
	if i := strings.IndexByte(m.name, '{'); i >= 0 {
		return m.name[:i]
	}
	return m.name
}

// Registry holds named instruments and renders them. A nil *Registry is
// fully usable: it hands out nil instruments and renders nothing, which
// is the zero-cost disabled path.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric

	scrape    sync.Mutex // one render (and its collector) at a time
	collector func()
}

// SetCollector installs fn to run at the start of every render: it
// Stores the counts other components own into the registry's
// instruments, so those series are read when scraped. fn may register
// instruments.
func (r *Registry) SetCollector(fn func()) {
	r.scrape.Lock()
	defer r.scrape.Unlock()
	r.collector = fn
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register returns the existing metric under name or adds a new one.
// A name registered twice with a different kind is a programming error.
func (r *Registry) register(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter registers (or finds) a counter. Nil registry returns nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindCounter)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge registers (or finds) a gauge. Nil registry returns nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindGauge)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram registers (or finds) a histogram with the given ascending
// upper bucket bounds (+Inf is implicit). Nil registry returns nil.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindHistogram)
	if m.h == nil {
		m.h = newHistogram(bounds)
	}
	return m.h
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4), sorted by series name with one
// # HELP/# TYPE pair per metric family. Nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.scrape.Lock()
	defer r.scrape.Unlock()
	if r.collector != nil {
		r.collector()
	}
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	var sb strings.Builder
	seen := make(map[string]bool)
	for _, m := range ms {
		fam := m.family()
		if !seen[fam] {
			seen[fam] = true
			fmt.Fprintf(&sb, "# HELP %s %s\n", fam, m.help)
			fmt.Fprintf(&sb, "# TYPE %s %s\n", fam, typeName(m.kind))
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&sb, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&sb, "%s %d\n", m.name, m.g.Value())
		case kindHistogram:
			var cum uint64
			for i, b := range m.h.bounds {
				cum += m.h.counts[i].Load()
				fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", m.name, formatFloat(b), cum)
			}
			fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", m.name, m.h.Count())
			fmt.Fprintf(&sb, "%s_sum %s\n", m.name, formatFloat(m.h.Sum()))
			fmt.Fprintf(&sb, "%s_count %d\n", m.name, m.h.Count())
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func typeName(k metricKind) string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Label builds a full series name with a label set — name{k="v",...} —
// escaping each value per the text exposition format 0.0.4: backslash,
// double quote, and line feed become \\, \", and \n. Every labeled
// series name in the registry must come through here, or a hostile
// benchmark/worker name ("bench\"x\n") would corrupt the exposition.
// Pairs are key1, value1, key2, value2, ...; an odd trailing key is a
// programming error.
func Label(name string, pairs ...string) string {
	if len(pairs)%2 != 0 {
		panic("obs: Label requires key/value pairs")
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(pairs[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(pairs[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
