package engine

import (
	"fmt"
	"strings"

	"repro/internal/pattern"
	"repro/internal/planner"
	"repro/internal/telemetry"
)

// AnalyzedOp is one operator row of an EXPLAIN ANALYZE: the planner's
// plan-time estimate joined against the measured execution of the same
// operator, extracted from the query's span tree.
type AnalyzedOp struct {
	// Op is the operator kind: plan, scan, expand, intersect, aggregate.
	Op string `json:"op"`
	// Detail describes the operator instance (vertex name and filters for
	// scans, edge endpoints and expansion side for expands).
	Detail string `json:"detail,omitempty"`
	// EstRows is the planner's cardinality estimate: candidate count for
	// scans (exact by construction), EstPairs for expands. -1 when the
	// planner makes no estimate for this operator.
	EstRows float64 `json:"est_rows"`
	// ActualRows is the measured output cardinality: candidates scanned,
	// (source, dst) pairs for expands, tuples for intersect/aggregate.
	// -1 when the span records no cardinality.
	ActualRows int64 `json:"actual_rows"`
	// ErrRatio is EstRows/ActualRows — the planner's estimation error,
	// >1 overestimates, <1 underestimates. 0 when either side is missing
	// or actual is zero (kept finite so the struct marshals to JSON).
	ErrRatio float64 `json:"err_ratio"`
	// TimeMs is the operator's wall time from its span (0 for scans, which
	// are timed inside the plan span).
	TimeMs float64 `json:"time_ms"`
	// Kernel and Memo carry the expand span's kernel and memo=hit|miss.
	// Memo reports query-local symmetry sharing (§2.3.2): the edge was
	// answered by another edge of the same query.
	Kernel string `json:"kernel,omitempty"`
	Memo   string `json:"memo,omitempty"`
	// Cache reports the engine-level cross-query matrix cache: "hit" when
	// the expansion was answered from a previous query's result, "miss"
	// when it ran and was inserted. Empty when the cache is disabled or
	// the edge was a memo hit (the cache was never consulted for it).
	Cache string `json:"cache,omitempty"`
	// MatrixBytes is the expand's peak bit-matrix allocation.
	MatrixBytes int64 `json:"matrix_bytes,omitempty"`
}

// Analysis is the result of EXPLAIN ANALYZE: per-operator estimate-vs-
// actual rows plus the executed query's headline numbers. Every field is
// a struct or scalar so the HTTP surface can return it as JSON directly.
type Analysis struct {
	Ops []AnalyzedOp `json:"operators"`
	// Count is the distinct matches the run produced: all of them, or
	// those before LIMIT stopped the match.
	Count int64 `json:"count"`
	// TotalMs is the wall time of the traced execution.
	TotalMs float64 `json:"total_ms"`
	// Profile is the raw span tree the actuals were extracted from.
	Profile *telemetry.SpanSnapshot `json:"profile,omitempty"`
}

// Analyze joins the planner's estimates (candidate-scan sizes, per-edge
// EstPairs) against the actual cardinalities, wall times, matrix bytes, and
// memo states a traced run of pat under plan recorded in snap — the runtime
// feedback that makes planner misestimates directly visible (the §6 Fig-6
// C7–C9 inversions show up as err_ratio far from 1). The plan supplies
// estimates and operator identity, the span tree the actuals; expand spans
// carry an "edge" attribute (the pattern-edge index) so the join is by
// identity. Count is the matches the run handed off (its "aggregate"
// span) and TotalMs is snap's duration.
func Analyze(pat *pattern.Pattern, plan *planner.Plan, snap *telemetry.SpanSnapshot) *Analysis {
	a := &Analysis{TotalMs: snap.DurationMs, Profile: snap}
	a.Count, _ = snap.Find("aggregate").Int("tuples")
	if psp := snap.Find("plan"); psp != nil {
		a.Ops = append(a.Ops, AnalyzedOp{
			Op: "plan", EstRows: -1, ActualRows: -1, TimeMs: psp.DurationMs,
		})
	}

	// Candidate scans: the planner's numbers are exact counts (scans run at
	// plan time), so estimate == actual by construction and the ratio pins
	// at 1 — the row exists to show the sizes every estimate derives from.
	for i, v := range pat.Vertices {
		n := int64(len(plan.CandList[i]))
		var d strings.Builder
		d.WriteString(v.Name)
		for _, l := range v.Labels {
			d.WriteString(":" + l)
		}
		if len(v.PropEq) > 0 {
			fmt.Fprintf(&d, " props=%v", v.PropEq)
		}
		op := AnalyzedOp{
			Op: "scan", Detail: d.String(),
			EstRows: float64(n), ActualRows: n,
		}
		if n > 0 {
			op.ErrRatio = 1
		}
		a.Ops = append(a.Ops, op)
	}

	// Expands: EstPairs vs the span's measured pair count.
	byEdge := map[int64]*telemetry.SpanSnapshot{}
	for _, es := range snap.ByName("expand") {
		if ei, ok := es.Int("edge"); ok {
			byEdge[ei] = es
		}
	}
	for _, pe := range plan.Edges {
		pedge := pat.Edges[pe.PatternEdge]
		op := AnalyzedOp{
			Op: "expand",
			Detail: fmt.Sprintf("%s-%s from %s %s", pedge.Src, pedge.Dst,
				pat.Vertices[pe.ExpandFrom].Name, pe.D),
			EstRows:    pe.EstPairs,
			ActualRows: -1,
		}
		if es := byEdge[int64(pe.PatternEdge)]; es != nil {
			op.TimeMs = es.DurationMs
			op.Kernel, _ = es.Str("kernel")
			op.Memo, _ = es.Str("memo")
			op.Cache, _ = es.Str("cache")
			op.MatrixBytes, _ = es.Int("matrix_bytes")
			if pairs, ok := es.Int("pairs"); ok {
				op.ActualRows = pairs
				if pairs > 0 {
					op.ErrRatio = op.EstRows / float64(pairs)
				}
			}
		}
		a.Ops = append(a.Ops, op)
	}

	// Intersect and aggregate: no plan-time estimate (the planner estimates
	// VLP pair sizes, not join output), actuals from the span attributes.
	for _, name := range []string{"intersect", "aggregate"} {
		sp := snap.Find(name)
		if sp == nil {
			continue
		}
		op := AnalyzedOp{Op: name, EstRows: -1, ActualRows: -1, TimeMs: sp.DurationMs}
		if tuples, ok := sp.Int("tuples"); ok {
			op.ActualRows = tuples
		}
		if name == "intersect" {
			if w, ok := sp.Int("workers"); ok {
				op.Detail = fmt.Sprintf("workers=%d", w)
			}
		}
		a.Ops = append(a.Ops, op)
	}
	return a
}

// Render draws the analysis as an aligned table, the CLI/REPL shape of
// EXPLAIN ANALYZE.
func (a *Analysis) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-38s %12s %12s %9s %12s  %s\n",
		"operator", "detail", "est rows", "actual", "est/act", "time", "notes")
	for _, op := range a.Ops {
		est, act, ratio := "-", "-", "-"
		if op.EstRows >= 0 {
			est = fmtRows(op.EstRows)
		}
		if op.ActualRows >= 0 {
			act = fmt.Sprintf("%d", op.ActualRows)
		}
		if op.ErrRatio > 0 {
			ratio = fmt.Sprintf("%.2f", op.ErrRatio)
		}
		t := "-"
		if op.TimeMs > 0 {
			t = fmt.Sprintf("%.3fms", op.TimeMs)
		}
		var notes []string
		if op.Kernel != "" {
			notes = append(notes, "kernel="+op.Kernel)
		}
		if op.Memo != "" {
			notes = append(notes, "memo="+op.Memo)
		}
		if op.Cache != "" {
			notes = append(notes, "cache="+op.Cache)
		}
		if op.MatrixBytes > 0 {
			notes = append(notes, fmt.Sprintf("matrix=%dB", op.MatrixBytes))
		}
		fmt.Fprintf(&b, "%-10s %-38s %12s %12s %9s %12s  %s\n",
			op.Op, op.Detail, est, act, ratio, t, strings.Join(notes, " "))
	}
	fmt.Fprintf(&b, "%d row(s), total %.3fms\n", a.Count, a.TotalMs)
	return b.String()
}

func fmtRows(v float64) string {
	if v == float64(int64(v)) && v < 1e9 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}
