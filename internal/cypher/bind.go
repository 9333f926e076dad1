package cypher

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/planner"
	"repro/internal/telemetry"
)

// Result is a query's output table.
type Result struct {
	Columns []string
	Rows    [][]any
	Timings engine.Timings
	// Profile is the per-operator span tree of a `PROFILE <query>` or an
	// `EXPLAIN ANALYZE <query>`; nil otherwise.
	Profile *telemetry.SpanSnapshot
	// Plan is the rendered plan of an `EXPLAIN <query>` (no execution;
	// Columns/Rows are empty).
	Plan string
	// Analysis is the estimate-vs-actual operator table of an
	// `EXPLAIN ANALYZE <query>`.
	Analysis *engine.Analysis
}

// Run executes a parsed query against eng with the given parameters.
// Parameter values may be int64/int/string/bool; UNWIND parameters must be
// slices ([]int64 or []any).
func Run(eng *engine.Engine, q *Query, params map[string]any) (*Result, error) {
	return RunContext(context.Background(), eng, q, params)
}

// RunContext is Run with trace propagation. PROFILE and EXPLAIN ANALYZE run
// the query once under a "query" span — a child of the caller's trace when
// ctx carries one, else the root of a new trace — whose snapshot fills
// Result.Profile. EXPLAIN ANALYZE keeps no rows: it joins that run's spans
// to the plan EXPLAIN renders into Result.Analysis. Every executed query
// runs registered and metered (see registered).
func RunContext(ctx context.Context, eng *engine.Engine, q *Query, params map[string]any) (*Result, error) {
	// Plain EXPLAIN renders the plan without executing — no metrics and no
	// registry entry, the query never runs.
	if q.Explain && !q.Analyze {
		plan, err := ExplainQuery(eng, q, params)
		if err != nil {
			return nil, err
		}
		return &Result{Plan: plan}, nil
	}

	res := &Result{}
	err := registered(ctx, q, func(ctx context.Context, rows *int64) error {
		sink := func(row []any) error {
			res.Rows = append(res.Rows, row)
			return nil
		}
		var pat *pattern.Pattern
		var plan *planner.Plan
		if q.Analyze {
			if q.Unwind != nil {
				return errors.New("cypher: EXPLAIN ANALYZE does not support UNWIND")
			}
			var err error
			if pat, plan, err = planQuery(eng, q, params); err != nil {
				return err
			}
			if plan == nil {
				return errors.New("cypher: EXPLAIN ANALYZE does not support shortestPath")
			}
			sink = func([]any) error { return nil }
		} else {
			res.Columns = Columns(q)
		}
		var span *telemetry.Span
		if q.Profile || q.Analyze {
			ctx, span = telemetry.StartSpan(ctx, "query")
			if span == nil {
				ctx, span = telemetry.NewTrace(ctx, "query")
			}
		}
		var err error
		res.Timings, err = drive(ctx, eng, q, params, sink)
		// End the span on the failure path too: left open, it would wedge
		// the caller's trace tree.
		span.End()
		res.Profile = span.Snapshot()
		*rows = int64(len(res.Rows))
		if err == nil && q.Analyze {
			res.Analysis = engine.Analyze(pat, plan, res.Profile)
			*rows = res.Analysis.Count
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// registered runs one query execution under the process-wide bookkeeping
// both entry points (RunContext, Stream) share. The query counts into the
// query metrics (total, failed, in-flight) and registers with
// telemetry.DefaultQueries: it is visible on /debug/queries and SHOW
// QUERIES while running, killable by id (KILL cancels the context run
// receives, which the engine observes cooperatively), and lands in the
// history ring on completion with *rows — which run may advance live — as
// its row count.
func registered(ctx context.Context, q *Query, run func(ctx context.Context, rows *int64) error) (err error) {
	telemetry.QueriesInFlight.Add(1)
	defer telemetry.QueriesInFlight.Add(-1)
	defer telemetry.QueriesTotal.Inc()

	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	qi := telemetry.DefaultQueries.Register(q.Raw, telemetry.RequestIDFromContext(ctx), cancel)
	var rows int64
	defer func() {
		// Runs during panic unwinding too (the server's recover middleware
		// reports the 500; here the registry entry moves to history instead
		// of leaking as forever-running).
		if r := recover(); r != nil {
			telemetry.DefaultQueries.Complete(qi, rows, fmt.Errorf("panic: %v", r))
			panic(r)
		}
		if err != nil {
			telemetry.QueriesFailed.Inc()
		}
		telemetry.DefaultQueries.Complete(qi, rows, err)
	}()
	return run(telemetry.WithQuery(qctx, qi), &rows)
}

// drive executes a query's MATCH and RETURN for its two sinks, RunContext
// and Stream. For each UNWIND value (a single pass without UNWIND) it binds,
// matches and hands every tuple to one projector as the engine emits it;
// every row the projector returns goes to sink, and after the last pass so
// do the closed groups. Without ORDER BY the match stops once sink has
// taken LIMIT rows; with it, drive holds every row, sorts them at the end
// and hands sink the first LIMIT. Held rows and groups are charged to the
// engine accountant as they grow (heldRows). It returns the engine's timings.
func drive(ctx context.Context, eng *engine.Engine, q *Query, params map[string]any, sink func(row []any) error) (engine.Timings, error) {
	var t engine.Timings
	values, err := unwindValues(q, params)
	if err != nil {
		return t, err
	}
	held := heldRows{acct: eng.Accountant(), size: RowBytes(len(q.Return))}
	defer held.release()
	limit := q.Limit
	var ordered [][]any // with ORDER BY, the first row is known only once every row is
	emit := sink
	if len(q.OrderBy) > 0 {
		limit = 0
		emit = func(row []any) error {
			ordered = append(ordered, row)
			return held.cover(len(ordered))
		}
	}
	var proj *projector // built by the first match: the COUNT fast path needs none
	sent := 0
	var stopErr error
	more := func() bool { return stopErr == nil && (limit == 0 || sent < limit) }
	// put hands emit one row and reports whether matching goes on.
	put := func(row []any) bool {
		stopErr = emit(row)
		sent++
		return more()
	}
	each := func(tuple []graph.VertexID) bool {
		row, err := proj.add(tuple)
		if err == nil {
			err = held.cover(len(proj.out)) // groups are held until the last pass
		}
		if err != nil {
			stopErr = err
			return false
		}
		return row == nil || put(row)
	}
	for _, v := range values {
		if !more() {
			break
		}
		sub := params
		if q.Unwind != nil {
			sub = maps.Clone(params) // holds the UNWIND parameter, so not nil
			sub[q.Unwind.Alias] = v
		}
		b, err := bind(q, sub)
		if err != nil {
			return t, err
		}
		if b.shortest != nil {
			row, err := runShortest(ctx, eng, q, b)
			if err != nil {
				return t, err
			}
			put(row)
			continue
		}
		if countsWholePattern(q, b) {
			res, err := eng.MatchContext(ctx, b.pat, engine.MatchOptions{CountOnly: true})
			if err != nil {
				return t, err
			}
			return res.Timings, sink([]any{res.Count})
		}
		if proj == nil {
			proj = newProjector(eng.Graph(), q)
		}
		var res *engine.MatchResult
		if projectsLength(q) {
			res, err = lengthPass(ctx, eng, q, b, v, proj, each)
		} else {
			proj.pass(b, v, nil)
			res, err = eng.MatchEach(ctx, b.pat, engine.MatchOptions{}, each)
		}
		if err != nil {
			return t, err
		}
		t.Add(res.Timings)
	}
	if proj == nil {
		proj = newProjector(eng.Graph(), q) // no match: an empty UNWIND list or shortestPath
	}
	for _, row := range proj.rows() {
		if !more() {
			break
		}
		put(row)
	}
	if stopErr != nil || len(q.OrderBy) == 0 {
		return t, stopErr
	}
	order(q, ordered)
	if q.Limit > 0 && len(ordered) > q.Limit {
		ordered = ordered[:q.Limit]
	}
	for _, row := range ordered {
		if err := sink(row); err != nil {
			return t, err
		}
	}
	return t, nil
}

// lengthPass runs one pass of a query that projects length(p): pathLengths
// needs every tuple before the first row, so the pass holds its tuples,
// charged, until it ends. LIMIT cannot stop this match.
func lengthPass(ctx context.Context, eng *engine.Engine, q *Query, b *boundQuery, unwound any, proj *projector, each func([]graph.VertexID) bool) (*engine.MatchResult, error) {
	res, err := eng.MatchContext(ctx, b.pat, engine.MatchOptions{})
	if err != nil {
		return nil, err
	}
	// A tuple is a slice header and one 4-byte VertexID per vertex.
	held := heldRows{acct: eng.Accountant(), size: 24 + 4*int64(len(b.pat.Vertices))}
	defer held.release()
	if err := held.cover(len(res.Tuples)); err != nil {
		return nil, err
	}
	lengths, err := pathLengths(ctx, eng, q, b, res.Tuples)
	if err != nil {
		return nil, err
	}
	proj.pass(b, unwound, lengths)
	for _, tuple := range res.Tuples {
		if !each(tuple) {
			break
		}
	}
	return res, nil
}

// heldChunk is the rows one accountant reservation of heldRows covers.
const heldChunk = 64

// heldRows charges the rows a query holds to the engine accountant, size
// bytes a row, heldChunk rows at a time as their count grows.
type heldRows struct {
	acct *exec.Accountant
	size int64
	n    int // rows the reservation covers
}

// cover grows the reservation to at least rows rows.
func (h *heldRows) cover(rows int) error {
	if rows <= h.n {
		return nil
	}
	step := (rows - h.n + heldChunk - 1) / heldChunk * heldChunk
	if err := h.acct.Reserve(int64(step) * h.size); err != nil {
		return fmt.Errorf("cypher: held result rows: %w", err)
	}
	h.n += step
	return nil
}

func (h *heldRows) release() { h.acct.Release(int64(h.n) * h.size) }

// RowBytes estimates the retained footprint of one result row: a slice
// header plus one interface value per column. The estimate is what the
// accountant meters for the rows a query holds and for a session's cursor
// batches — deliberately simple, stable across value types, and
// proportional to the row count.
func RowBytes(cols int) int64 { return 24 + 24*int64(cols) }

// unwindValues lists the values UNWIND binds its alias to, one per pass:
// a single nil without UNWIND.
func unwindValues(q *Query, params map[string]any) ([]any, error) {
	if q.Unwind == nil {
		return []any{nil}, nil
	}
	raw, ok := params[q.Unwind.Param]
	if !ok {
		return nil, fmt.Errorf("cypher: missing parameter $%s", q.Unwind.Param)
	}
	switch v := raw.(type) {
	case []any:
		return v, nil
	case []int64:
		return boxAll(v, func(x int64) any { return x }), nil
	case []int:
		return boxAll(v, func(x int) any { return int64(x) }), nil
	case []string:
		return boxAll(v, func(x string) any { return x }), nil
	default:
		return nil, fmt.Errorf("cypher: parameter $%s: not a list (%T)", q.Unwind.Param, raw)
	}
}

// boxAll converts a typed UNWIND list to the []any its passes range over.
func boxAll[T any](xs []T, box func(T) any) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = box(x)
	}
	return out
}

// boundQuery is the query lowered onto a concrete pattern.
type boundQuery struct {
	pat *pattern.Pattern
	// varIdx maps variable name -> pattern vertex index.
	varIdx map[string]int
	// paths maps path variables to their (single) relationship for
	// length() evaluation.
	paths map[string]boundPath
	// shortest holds a shortestPath part's endpoints if present.
	shortest *boundPath
}

type boundPath struct {
	srcVar, dstVar string
	d              pattern.Determiner
}

// bind lowers the AST onto a pattern.Pattern, resolving parameters.
func bind(q *Query, params map[string]any) (*boundQuery, error) {
	b := &boundQuery{
		pat:    &pattern.Pattern{},
		varIdx: map[string]int{},
		paths:  map[string]boundPath{},
	}
	anon := 0
	getVertex := func(n *NodePattern) (int, error) {
		name := n.Var
		if name == "" {
			name = fmt.Sprintf("_anon%d", anon)
			anon++
		}
		idx, ok := b.varIdx[name]
		if !ok {
			idx = len(b.pat.Vertices)
			b.varIdx[name] = idx
			b.pat.Vertices = append(b.pat.Vertices, pattern.Vertex{Name: name, PropEq: map[string]any{}})
		}
		v := &b.pat.Vertices[idx]
		for _, l := range n.Labels {
			if !slices.Contains(v.Labels, l) {
				v.Labels = append(v.Labels, l)
			}
		}
		for key, lit := range n.Props {
			val, err := lit.Resolve(params)
			if err != nil {
				return 0, err
			}
			v.PropEq[key] = val
		}
		return idx, nil
	}

	for _, part := range q.Parts {
		idxs := make([]int, len(part.Nodes))
		for i, n := range part.Nodes {
			idx, err := getVertex(n)
			if err != nil {
				return nil, err
			}
			idxs[i] = idx
		}
		for i, r := range part.Rels {
			d := pattern.Determiner{
				KMin:       r.KMin,
				KMax:       r.KMax,
				EdgeLabels: r.Types,
				Type:       pattern.Any,
			}
			if len(r.Props) > 0 {
				d.EdgePropEq = make(map[string]any, len(r.Props))
				for key, lit := range r.Props {
					val, err := lit.Resolve(params)
					if err != nil {
						return nil, err
					}
					d.EdgePropEq[key] = val
				}
			}
			switch {
			case r.ArrowRight:
				d.Dir = graph.Forward
			case r.ArrowLeft:
				d.Dir = graph.Reverse
			default:
				d.Dir = graph.Both
			}
			if part.Shortest {
				d.Type = pattern.Shortest
			}
			if d.KMax == pattern.Unbounded && !part.Shortest {
				return nil, fmt.Errorf("cypher: unbounded variable length requires shortestPath")
			}
			src, dst := b.pat.Vertices[idxs[i]].Name, b.pat.Vertices[idxs[i+1]].Name
			bp := boundPath{srcVar: src, dstVar: dst, d: d}
			if part.PathVar != "" && len(part.Rels) == 1 {
				b.paths[part.PathVar] = bp
			}
			if r.Var != "" {
				b.paths[r.Var] = bp
			}
			if part.Shortest {
				b.shortest = &bp
				// shortestPath parts contribute the length() value, not
				// a pattern edge (the endpoints are already constrained
				// by their own node patterns).
				continue
			}
			b.pat.Edges = append(b.pat.Edges, pattern.Edge{Src: src, Dst: dst, D: d})
		}
	}

	// WHERE predicates fold into vertex constraints.
	for _, pred := range q.Where {
		idx, ok := b.varIdx[pred.Var]
		if !ok {
			return nil, fmt.Errorf("cypher: WHERE references unknown variable %q", pred.Var)
		}
		v := &b.pat.Vertices[idx]
		switch pred.Kind {
		case PredHasLabel:
			if pred.Negated {
				v.NotLabels = append(v.NotLabels, pred.Label)
			} else if !slices.Contains(v.Labels, pred.Label) {
				v.Labels = append(v.Labels, pred.Label)
			}
		case PredPropEq:
			val, err := pred.Value.Resolve(params)
			if err != nil {
				return nil, err
			}
			op := pred.Op
			if pred.Negated {
				op = negateCmp(op)
			}
			if op == pattern.CmpEq {
				v.PropEq[pred.Prop] = val
			} else {
				v.PropCmp = append(v.PropCmp, pattern.PropFilter{Prop: pred.Prop, Op: op, Value: val})
			}
		}
	}
	return b, nil
}

// negateCmp returns the operator whose truth is the negation of op's.
func negateCmp(op pattern.CmpOp) pattern.CmpOp {
	switch op {
	case pattern.CmpEq:
		return pattern.CmpNe
	case pattern.CmpNe:
		return pattern.CmpEq
	case pattern.CmpLt:
		return pattern.CmpGe
	case pattern.CmpLe:
		return pattern.CmpGt
	case pattern.CmpGt:
		return pattern.CmpLe
	default:
		return pattern.CmpLt
	}
}

// countsWholePattern reports the COUNT fast path: a single COUNT(DISTINCT …)
// over plain variables covering the whole pattern, which the engine counts
// without materializing (§5.1).
func countsWholePattern(q *Query, b *boundQuery) bool {
	if len(q.Return) != 1 || q.Unwind != nil {
		return false
	}
	item := q.Return[0]
	if item.Agg != "count" || !item.Distinct || len(item.Args) != len(b.pat.Vertices) {
		return false
	}
	for _, a := range item.Args {
		if a.IsLength || a.Prop != "" {
			return false
		}
	}
	return true
}

// runShortest answers a shortestPath-only query, RETURN length(p), with its
// one row.
func runShortest(ctx context.Context, eng *engine.Engine, q *Query, b *boundQuery) ([]any, error) {
	if len(b.pat.Edges) > 0 {
		return nil, fmt.Errorf("cypher: shortestPath mixed with other pattern edges is not supported")
	}
	sp := b.shortest
	srcIdx, dstIdx := b.varIdx[sp.srcVar], b.varIdx[sp.dstVar]
	srcCands, err := pattern.Candidates(eng.Graph(), b.pat.Vertices[srcIdx])
	if err != nil {
		return nil, err
	}
	dstCands, err := pattern.Candidates(eng.Graph(), b.pat.Vertices[dstIdx])
	if err != nil {
		return nil, err
	}
	if srcCands.PopCount() != 1 || dstCands.PopCount() != 1 {
		return nil, fmt.Errorf("cypher: shortestPath requires uniquely identified endpoints")
	}
	var src, dst graph.VertexID
	srcCands.ForEach(func(i int) { src = graph.VertexID(i) })
	dstCands.ForEach(func(i int) { dst = graph.VertexID(i) })
	l, err := eng.ShortestPathLength(ctx, src, dst, sp.d.EdgeLabels, sp.d.Dir, sp.d.KMax)
	if err != nil {
		return nil, err
	}
	if l < sp.d.KMin {
		l = -1
	}
	row := make([]any, len(q.Return))
	for i, item := range q.Return {
		if item.Agg != "" || len(item.Args) != 1 || !item.Args[0].IsLength {
			return nil, fmt.Errorf("cypher: shortestPath queries may only return length(p)")
		}
		row[i] = int64(l)
	}
	return row, nil
}

// ExplainQuery binds a parsed query's pattern against the engine's graph
// and renders the planner's decisions without executing.
func ExplainQuery(eng *engine.Engine, q *Query, params map[string]any) (string, error) {
	pat, plan, err := planQuery(eng, q, params)
	if err != nil {
		return "", err
	}
	if plan == nil {
		return "shortestPath query: frontier BFS with early exit (no join plan)\n", nil
	}
	return plan.Explain(pat), nil
}

// planQuery binds q and builds the plan its match runs (§5.2's decisions:
// candidate sizes, join order, expansion orientations and estimates). The
// planner is deterministic, so this is the plan drive's match builds too. A
// shortestPath query has no join plan: its plan is nil.
func planQuery(eng *engine.Engine, q *Query, params map[string]any) (*pattern.Pattern, *planner.Plan, error) {
	b, err := bind(q, params)
	if err != nil || b.shortest != nil {
		return nil, nil, err
	}
	plan, err := planner.Build(eng.Graph(), b.pat)
	return b.pat, plan, err
}
