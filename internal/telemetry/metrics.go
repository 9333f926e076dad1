package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds metric instruments and renders them in the Prometheus
// text exposition format (version 0.0.4). Instruments sharing a name form
// one family (same HELP/TYPE, different const labels) — the per-stage
// latency histograms are one family with a "stage" label.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order of family names
}

type family struct {
	name        string
	help        string
	kind        string // "counter" | "gauge" | "histogram"
	instruments []exposer
}

// exposer renders one instrument's sample lines.
type exposer interface {
	expose(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, kind string, inst exposer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.names = append(r.names, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as both %s and %s", name, f.kind, kind))
	}
	f.instruments = append(f.instruments, inst)
}

// WriteTo renders every registered family in text exposition format,
// sorted by family name. It implements the body of GET /metrics.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	cw := &countingWriter{w: w}
	for _, f := range fams {
		fmt.Fprintf(cw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.kind)
		for _, inst := range f.instruments {
			inst.expose(cw, f.name)
		}
	}
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// Labels are const labels attached to one instrument of a family, e.g.
// {"stage": "expand"}.
type Labels map[string]string

// render returns `k1="v1",k2="v2"` with sorted keys ("" when empty).
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += k + `="` + l[k] + `"`
	}
	return out
}

// seriesName renders name{labels} (or just name without labels).
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v      atomic.Int64
	labels string
}

// NewCounter registers a counter. Help is shared by every instrument of
// the family; labels distinguish instruments within it.
func (r *Registry) NewCounter(name, help string, labels Labels) *Counter {
	c := &Counter{labels: labels.render()}
	r.register(name, help, "counter", c)
	return c
}

// Inc adds one.
//
//vs:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be ≥ 0 to keep the counter monotone).
//
//vs:hotpath
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", seriesName(name, c.labels), c.v.Load())
}

// Gauge is an int64 metric that can go up and down.
type Gauge struct {
	v      atomic.Int64
	labels string
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{labels: labels.render()}
	r.register(name, help, "gauge", g)
	return g
}

// Add moves the gauge by delta (negative to decrease).
//
//vs:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the gauge value.
//
//vs:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", seriesName(name, g.labels), g.v.Load())
}

// FuncGauge is a gauge whose value is computed by a callback at exposition
// time — the bridge for externally owned values like runtime/metrics
// samples, where polling a sampler beats mirroring state into an atomic.
type FuncGauge struct {
	fn     func() float64
	labels string
}

// NewFuncGauge registers a callback-backed gauge. fn is called once per
// exposition and must be safe for concurrent use.
func (r *Registry) NewFuncGauge(name, help string, labels Labels, fn func() float64) *FuncGauge {
	g := &FuncGauge{fn: fn, labels: labels.render()}
	r.register(name, help, "gauge", g)
	return g
}

func (g *FuncGauge) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", seriesName(name, g.labels), formatBound(g.fn()))
}

// FuncCounter is a counter whose cumulative value is computed by a callback
// at exposition time. The callback must be monotone non-decreasing (e.g. a
// runtime/metrics cumulative sample).
type FuncCounter struct {
	fn     func() float64
	labels string
}

// NewFuncCounter registers a callback-backed counter.
func (r *Registry) NewFuncCounter(name, help string, labels Labels, fn func() float64) *FuncCounter {
	c := &FuncCounter{fn: fn, labels: labels.render()}
	r.register(name, help, "counter", c)
	return c
}

func (c *FuncCounter) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", seriesName(name, c.labels), formatBound(c.fn()))
}

// FloatCounter is a monotonically increasing float64 metric — for
// cumulative quantities that are not integral, like attributed CPU seconds.
type FloatCounter struct {
	bits   atomic.Uint64 // float64 bits, CAS-accumulated
	labels string
}

// NewFloatCounter registers a float-valued counter.
func (r *Registry) NewFloatCounter(name, help string, labels Labels) *FloatCounter {
	c := &FloatCounter{labels: labels.render()}
	r.register(name, help, "counter", c)
	return c
}

// Add accumulates delta (must be ≥ 0 to keep the counter monotone).
func (c *FloatCounter) Add(delta float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current cumulative value.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *FloatCounter) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", seriesName(name, c.labels), formatBound(c.Value()))
}

// Histogram is a fixed-bucket histogram of float64 observations (typically
// seconds). Buckets are upper bounds; observations above the last bound
// land in the implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, non-cumulative; cumulated at exposition
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	labels  string
}

// DefBuckets is the default latency bucket ladder in seconds, spanning
// single-microsecond operator calls to ten-second analytical queries. The
// sub-millisecond rungs matter at small scales: at -scale 0.02 most kernel
// stages finish in microseconds and would otherwise collapse into one
// bucket.
var DefBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram registers a histogram with the given bucket upper bounds
// (nil = DefBuckets). Bounds must be sorted ascending.
func (r *Registry) NewHistogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
		labels: labels.render(),
	}
	r.register(name, help, "histogram", h)
	return h
}

// Observe records one observation.
//
//vs:hotpath
func (h *Histogram) Observe(v float64) {
	idx := len(h.bounds) // +Inf bucket
	for i, ub := range h.bounds {
		if v <= ub {
			idx = i
			break
		}
	}
	// counts has len(bounds)+1 entries (NewHistogram), but that relation
	// crosses two field loads; the uint guard restates it for the prove
	// pass and never fires.
	counts := h.counts
	if uint(idx) < uint(len(counts)) {
		counts[idx].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) expose(w io.Writer, name string) {
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		le := `le="` + formatBound(ub) + `"`
		labels := h.labels
		if labels != "" {
			labels += ","
		}
		fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", labels+le), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	inf := h.labels
	if inf != "" {
		inf += ","
	}
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", inf+`le="+Inf"`), cum)
	fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", h.labels), formatBound(h.Sum()))
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", h.labels), h.count.Load())
}

// formatBound renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatBound(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
