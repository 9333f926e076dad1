// Package telemetry is VertexSurge's stdlib-only observability layer: a
// query-scoped trace of per-operator spans propagated via context.Context,
// and a metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text exposition.
//
// Tracing is opt-in per query: a context without a trace makes every
// telemetry call a no-op, cheap enough to leave in the measured operators
// (the disabled fast paths are //vs:hotpath-annotated and verified
// allocation-free by vslint). With a trace attached, each operator call —
// planner build, VExpand, MIntersect, spill writes and loads — records one
// span with its duration and operator-specific attributes, rendered as a
// tree by PROFILE mode and the server's slow-query log.
package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// maxAttrs bounds per-span attributes so SetInt/SetStr never allocate;
// attributes beyond the cap are dropped.
const maxAttrs = 16

type attrKind uint8

const (
	attrUnset attrKind = iota
	attrInt
	attrStr
)

// attr is one key/value span annotation, stored inline (no allocation on
// the record path).
type attr struct {
	key  string
	str  string
	ival int64
	kind attrKind
}

// Span is one node of a query trace: a named, timed operator call with
// attributes and child spans. A Span is owned by the goroutine that
// started it; only child creation (StartSpan) locks, so concurrent
// children under one parent are safe.
type Span struct {
	name  string
	start time.Time
	dur   time.Duration

	mu       sync.Mutex
	children []*Span

	attrs  [maxAttrs]attr
	nattrs int
}

// spanKey carries the current span through a context. The lookup key is
// pre-boxed into an interface so CurrentSpan's ctx.Value call performs no
// conversion on the disabled fast path.
type spanKey struct{}

var spanCtxKey any = spanKey{}

// NewTrace starts a new trace rooted at a span called name and returns a
// context carrying it. End the returned root before Snapshot.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	root := &Span{name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey, root), root
}

// StartSpan opens a child span under the context's current span and
// returns a context with the child as current. Without an active trace it
// returns ctx unchanged and a nil *Span, on which every method is a no-op
// — callers never branch on enablement.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := CurrentSpan(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey, s), s
}

// CurrentSpan returns the context's active span, or nil when the query is
// not being traced.
//
//vs:hotpath
func CurrentSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey).(*Span)
	return s
}

// End records the span's duration. Safe on a nil span.
//
//vs:hotpath
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = time.Since(s.start)
}

// SetInt annotates the span with an integer attribute. Safe on a nil span;
// attributes beyond the inline capacity are dropped.
//
//vs:hotpath
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	// Load nattrs into a local and guard with a uint compare so the prove
	// pass can eliminate the bounds check on the fixed-size attrs array.
	n := s.nattrs
	if uint(n) >= maxAttrs {
		return
	}
	a := &s.attrs[n]
	a.key = key
	a.ival = v
	a.kind = attrInt
	s.nattrs = n + 1
}

// SetStr annotates the span with a string attribute. Safe on a nil span;
// attributes beyond the inline capacity are dropped.
//
//vs:hotpath
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	n := s.nattrs
	if uint(n) >= maxAttrs {
		return
	}
	a := &s.attrs[n]
	a.key = key
	a.str = v
	a.kind = attrStr
	s.nattrs = n + 1
}

// Duration returns the recorded duration (zero before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// SpanSnapshot is an immutable, JSON-marshalable copy of a finished span
// tree — the "profile" payload of PROFILE mode and POST /query.
type SpanSnapshot struct {
	Name string `json:"name"`
	// StartUnixNs is the span's start instant (Unix nanoseconds). With
	// the scheduler running independent operators concurrently, sibling
	// spans may overlap in [start, start+duration) — wall-clock nesting
	// no longer implies sequential execution.
	StartUnixNs int64           `json:"start_unix_ns,omitempty"`
	DurationMs  float64         `json:"duration_ms"`
	Attrs       map[string]any  `json:"attrs,omitempty"`
	Children    []*SpanSnapshot `json:"children,omitempty"`
}

// EndUnixNs returns the span's end instant (Unix nanoseconds).
func (sn *SpanSnapshot) EndUnixNs() int64 {
	return sn.StartUnixNs + int64(sn.DurationMs*float64(time.Millisecond))
}

// Overlaps reports whether the two spans' [start, end) windows intersect —
// the scheduler-concurrency check used by tests and EXPLAIN tooling.
func (sn *SpanSnapshot) Overlaps(o *SpanSnapshot) bool {
	if sn == nil || o == nil {
		return false
	}
	return sn.StartUnixNs < o.EndUnixNs() && o.StartUnixNs < sn.EndUnixNs()
}

// Snapshot copies the span tree. Call only after the tree is complete
// (every span ended); a still-running span snapshots with its
// duration-so-far.
func (s *Span) Snapshot() *SpanSnapshot {
	if s == nil {
		return nil
	}
	dur := s.dur
	if dur == 0 {
		dur = time.Since(s.start)
	}
	sn := &SpanSnapshot{
		Name:        s.name,
		StartUnixNs: s.start.UnixNano(),
		DurationMs:  float64(dur) / float64(time.Millisecond),
	}
	if s.nattrs > 0 {
		sn.Attrs = make(map[string]any, s.nattrs)
		for i := 0; i < s.nattrs; i++ {
			a := &s.attrs[i]
			if a.kind == attrInt {
				sn.Attrs[a.key] = a.ival
			} else {
				sn.Attrs[a.key] = a.str
			}
		}
	}
	s.mu.Lock()
	children := s.children
	s.mu.Unlock()
	for _, c := range children {
		sn.Children = append(sn.Children, c.Snapshot())
	}
	return sn
}

// Int returns the named integer attribute. It is the cardinality-extraction
// accessor EXPLAIN ANALYZE uses to join actual operator counts (pairs,
// tuples, matrix bytes) against the planner's estimates.
func (sn *SpanSnapshot) Int(key string) (int64, bool) {
	if sn == nil {
		return 0, false
	}
	v, ok := sn.Attrs[key].(int64)
	return v, ok
}

// Str returns the named string attribute (kernel, memo state, …).
func (sn *SpanSnapshot) Str(key string) (string, bool) {
	if sn == nil {
		return "", false
	}
	v, ok := sn.Attrs[key].(string)
	return v, ok
}

// Find returns the first span named name in a pre-order walk of the tree
// rooted at sn (sn itself included), or nil.
func (sn *SpanSnapshot) Find(name string) *SpanSnapshot {
	if sn == nil {
		return nil
	}
	if sn.Name == name {
		return sn
	}
	for _, c := range sn.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// ByName collects every span named name in pre-order (sn included). The
// engine emits operator spans in plan order on one goroutine, so the slice
// order matches the plan's operator order.
func (sn *SpanSnapshot) ByName(name string) []*SpanSnapshot {
	var out []*SpanSnapshot
	sn.Walk(func(s *SpanSnapshot) {
		if s.Name == name {
			out = append(out, s)
		}
	})
	return out
}

// Walk visits sn and every descendant in pre-order.
func (sn *SpanSnapshot) Walk(fn func(*SpanSnapshot)) {
	if sn == nil {
		return
	}
	fn(sn)
	for _, c := range sn.Children {
		c.Walk(fn)
	}
}

// Render draws the span tree as indented text:
//
//	query                                      12.41ms
//	├─ plan                                     0.12ms
//	├─ expand memo=miss kernel=hilbert …        5.08ms
//	└─ intersect tuples=42 workers=4            6.95ms
func (sn *SpanSnapshot) Render() string {
	var b strings.Builder
	sn.render(&b, "", "")
	return b.String()
}

func (sn *SpanSnapshot) render(b *strings.Builder, prefix, childPrefix string) {
	label := sn.Name
	if len(sn.Attrs) > 0 {
		// Deterministic attribute order: sorted keys.
		keys := make([]string, 0, len(sn.Attrs))
		for k := range sn.Attrs {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			label += fmt.Sprintf(" %s=%v", k, sn.Attrs[k])
		}
	}
	fmt.Fprintf(b, "%s%-*s %9.3fms\n", prefix, 64-len(prefix), label, sn.DurationMs)
	for i, c := range sn.Children {
		if i == len(sn.Children)-1 {
			c.render(b, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			c.render(b, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
