package cypher

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/graph"
)

// projector evaluates RETURN expressions against matched tuples — the one
// expression evaluator behind both the materializing project() and Stream.
type projector struct {
	g      *graph.Graph
	q      *Query
	b      *boundQuery
	params map[string]any
	ids    graph.Int64Column // the "id" property bare variables project
	hasID  bool
	// lengths holds the precomputed minimal walk lengths per path variable
	// (project fills it for length() projections; never set when streaming).
	lengths map[string]map[[2]graph.VertexID]int
	// seen deduplicates plain-projection rows (VertexSurge queries return
	// distinct rows, §2.2). It is nil when every pattern vertex is projected
	// as a bare variable: the row then determines the tuple, the engine's
	// tuples are distinct, and no dedup state is kept at all.
	seen map[string]bool
}

func newProjector(eng *engine.Engine, q *Query, b *boundQuery, params map[string]any) *projector {
	p := &projector{g: eng.Graph(), q: q, b: b, params: params}
	p.ids, p.hasID = p.g.Prop("id").(graph.Int64Column)

	covered := make([]bool, len(b.pat.Vertices))
	for _, item := range q.Return {
		for _, a := range item.Args {
			if a.Prop != "" || a.IsLength {
				continue
			}
			if idx, ok := b.varIdx[a.Var]; ok {
				covered[idx] = true
			}
		}
	}
	for _, c := range covered {
		if !c {
			p.seen = map[string]bool{}
			break
		}
	}
	return p
}

// eval computes one expression for one tuple (pattern declaration order).
func (p *projector) eval(e Expr, tuple []graph.VertexID) (any, error) {
	if e.IsLength {
		bp := p.b.paths[e.PathVar]
		key := [2]graph.VertexID{tuple[p.b.varIdx[bp.srcVar]], tuple[p.b.varIdx[bp.dstVar]]}
		l, ok := p.lengths[e.PathVar][key]
		if !ok {
			return nil, fmt.Errorf("cypher: no path length for %v", key)
		}
		return int64(l), nil
	}
	if idx, ok := p.b.varIdx[e.Var]; ok {
		v := tuple[idx]
		if e.Prop != "" {
			col := p.g.Prop(e.Prop)
			if col == nil {
				return nil, fmt.Errorf("cypher: unknown property %q", e.Prop)
			}
			return col.Value(int(v)), nil
		}
		// A bare variable projects the vertex's id property when
		// present, else its internal index.
		if p.hasID {
			return p.ids[v], nil
		}
		return int64(v), nil
	}
	// Not a pattern variable: maybe the UNWIND alias.
	if p.q.Unwind != nil && e.Var == p.q.Unwind.Alias {
		val, ok := p.params[p.q.Unwind.Alias]
		if !ok {
			return nil, fmt.Errorf("cypher: unbound alias %q", e.Var)
		}
		return val, nil
	}
	return nil, fmt.Errorf("cypher: unknown variable %q", e.Var)
}

// row projects one tuple of a plain (aggregate-free) RETURN into a freshly
// allocated output row, reporting dup=true for a row already produced.
func (p *projector) row(tuple []graph.VertexID) (row []any, dup bool, err error) {
	row = make([]any, len(p.q.Return))
	for i, item := range p.q.Return {
		v, err := p.eval(item.Args[0], tuple)
		if err != nil {
			return nil, false, err
		}
		row[i] = v
	}
	if p.seen != nil {
		k := rowKey(row)
		if p.seen[k] {
			return nil, true, nil
		}
		p.seen[k] = true
	}
	return row, false, nil
}

// project turns matched tuples into output rows: evaluates expressions,
// applies grouping and aggregation, and deduplicates RETURN DISTINCT rows.
func project(ctx context.Context, eng *engine.Engine, q *Query, b *boundQuery, params map[string]any, res *engine.MatchResult) ([][]any, error) {
	proj := newProjector(eng, q, b, params)

	// Precompute path lengths for length() expressions.
	proj.lengths = map[string]map[[2]graph.VertexID]int{}
	hasAgg := false
	for _, item := range q.Return {
		if item.Agg != "" {
			hasAgg = true
		}
		for _, e := range item.Args {
			if !e.IsLength {
				continue
			}
			bp, ok := b.paths[e.PathVar]
			if !ok {
				return nil, fmt.Errorf("cypher: length() references unknown path %q", e.PathVar)
			}
			m, err := pathLengths(ctx, eng, b, bp, res)
			if err != nil {
				return nil, err
			}
			proj.lengths[e.PathVar] = m
		}
	}

	if !hasAgg {
		var rows [][]any
		for _, tuple := range res.Tuples {
			row, dup, err := proj.row(tuple)
			if err != nil {
				return nil, err
			}
			if !dup {
				rows = append(rows, row)
			}
		}
		return rows, nil
	}

	// Grouped aggregation: group key = non-aggregate items.
	type groupState struct {
		key      []any
		countSet map[string]bool
		sumSet   map[string]float64
		minMax   map[string]any       // per-column running MIN/MAX
		avgVals  map[string][]float64 // per-column distinct values for AVG
	}
	groups := map[string]*groupState{}
	var order []string
	for _, tuple := range res.Tuples {
		var key []any
		for _, item := range q.Return {
			if item.Agg != "" {
				continue
			}
			v, err := proj.eval(item.Args[0], tuple)
			if err != nil {
				return nil, err
			}
			key = append(key, v)
		}
		k := rowKey(key)
		st, ok := groups[k]
		if !ok {
			st = &groupState{
				key: key, countSet: map[string]bool{}, sumSet: map[string]float64{},
				minMax: map[string]any{}, avgVals: map[string][]float64{},
			}
			groups[k] = st
			order = append(order, k)
		}
		for _, item := range q.Return {
			if item.Agg == "" {
				continue
			}
			var vals []any
			for _, a := range item.Args {
				v, err := proj.eval(a, tuple)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			vk := rowKey(vals)
			switch item.Agg {
			case "count":
				st.countSet[item.Column()+"\x00"+vk] = true
			case "sum":
				f, err := toFloat(vals[0])
				if err != nil {
					return nil, err
				}
				st.sumSet[item.Column()+"\x00"+vk] = f
			case "avg":
				f, err := toFloat(vals[0])
				if err != nil {
					return nil, err
				}
				if item.Distinct {
					st.sumSet[item.Column()+"\x00"+vk] = f // distinct values by key
				} else {
					st.avgVals[item.Column()] = append(st.avgVals[item.Column()], f)
				}
			case "min", "max":
				cur, seen := st.minMax[item.Column()]
				if !seen {
					st.minMax[item.Column()] = vals[0]
				} else {
					c := compareValues(vals[0], cur)
					if (item.Agg == "min" && c < 0) || (item.Agg == "max" && c > 0) {
						st.minMax[item.Column()] = vals[0]
					}
				}
			}
		}
	}

	rows := make([][]any, 0, len(groups))
	for _, k := range order {
		st := groups[k]
		row := make([]any, len(q.Return))
		ki := 0
		for i, item := range q.Return {
			switch item.Agg {
			case "":
				row[i] = st.key[ki]
				ki++
			case "count":
				n := int64(0)
				prefix := item.Column() + "\x00"
				for key := range st.countSet {
					if strings.HasPrefix(key, prefix) {
						n++
					}
				}
				row[i] = n
			case "sum":
				total := 0.0
				prefix := item.Column() + "\x00"
				for key, f := range st.sumSet {
					if strings.HasPrefix(key, prefix) {
						total += f
					}
				}
				row[i] = total
			case "avg":
				var total float64
				var n int
				if item.Distinct {
					prefix := item.Column() + "\x00"
					for key, f := range st.sumSet {
						if strings.HasPrefix(key, prefix) {
							total += f
							n++
						}
					}
				} else {
					for _, f := range st.avgVals[item.Column()] {
						total += f
						n++
					}
				}
				if n > 0 {
					row[i] = total / float64(n)
				} else {
					row[i] = 0.0
				}
			case "min", "max":
				row[i] = st.minMax[item.Column()]
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// pathLengths computes the minimal walk length for every (src, dst) pair of
// a path variable's relationship that appears in the result tuples.
func pathLengths(ctx context.Context, eng *engine.Engine, b *boundQuery, bp boundPath, res *engine.MatchResult) (map[[2]graph.VertexID]int, error) {
	srcIdx, dstIdx := b.varIdx[bp.srcVar], b.varIdx[bp.dstVar]
	srcSet := map[graph.VertexID]bool{}
	for _, t := range res.Tuples {
		srcSet[t[srcIdx]] = true
	}
	sources := make([]graph.VertexID, 0, len(srcSet))
	for v := range srcSet {
		sources = append(sources, v)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	rowOf := make(map[graph.VertexID]int, len(sources))
	for i, v := range sources {
		rowOf[v] = i
	}
	r, err := eng.ExpandContext(ctx, sources, bp.d, true)
	if err != nil {
		return nil, err
	}
	out := map[[2]graph.VertexID]int{}
	for _, t := range res.Tuples {
		key := [2]graph.VertexID{t[srcIdx], t[dstIdx]}
		if _, done := out[key]; done {
			continue
		}
		if l, ok := r.MinLength(rowOf[key[0]], key[1]); ok {
			out[key] = l
		}
	}
	return out, nil
}

func rowKey(vals []any) string {
	var sb strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&sb, "%T:%v|", v, v)
	}
	return sb.String()
}

func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	case int:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("cypher: SUM over non-numeric value %T", v)
	}
}

// orderAndLimit applies ORDER BY and LIMIT to a result in place.
func orderAndLimit(res *Result, q *Query) error {
	if len(q.OrderBy) > 0 {
		idxs := make([]int, len(q.OrderBy))
		for i, key := range q.OrderBy {
			idx := -1
			for ci, col := range res.Columns {
				if col == key.Ref {
					idx = ci
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("cypher: ORDER BY references unknown column %q", key.Ref)
			}
			idxs[i] = idx
		}
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for i, idx := range idxs {
				c := compareValues(res.Rows[a][idx], res.Rows[b][idx])
				if c == 0 {
					continue
				}
				if q.OrderBy[i].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return nil
}

func compareValues(a, b any) int {
	af, aerr := toFloat(a)
	bf, berr := toFloat(b)
	if aerr == nil && berr == nil {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	as, bs := fmt.Sprint(a), fmt.Sprint(b)
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}
