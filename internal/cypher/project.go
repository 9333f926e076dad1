package cypher

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/vexpand"
)

// projector is the one consumer of matched tuples: add turns a tuple into a
// plain output row or folds it into its group, and rows closes the groups.
// drive feeds it every tuple of every UNWIND value.
type projector struct {
	g     *graph.Graph
	q     *Query
	ids   graph.Int64Column // the "id" property bare variables project
	hasID bool
	// The current pass (one UNWIND value): its bound pattern, the alias's
	// value, and each path variable's per-step expansion (see pathLengths).
	b       *boundQuery
	unwound any
	lengths map[string]*vexpand.Result
	// seen deduplicates plain rows (VertexSurge queries return distinct
	// rows, §2.2). It stays nil when, without UNWIND, every pattern vertex
	// is projected bare: the row then determines the tuple, and tuples are
	// distinct.
	seen map[string]bool
	// groups, non-nil when RETURN aggregates, maps a group key to its index
	// in out (rows in first-seen order) and accs (one per RETURN item).
	groups map[string]int
	out    [][]any
	accs   [][]acc
	// Scratch reused across tuples: the plain items' values (a plain row,
	// or a group's key), one aggregate's arguments, and appendKey's
	// encoding of either.
	key  []any
	vals []any
	kbuf []byte
}

// acc folds one aggregate item over a group's rows: a count, a float sum and
// a best value, plus the values already folded when the item is DISTINCT.
type acc struct {
	n        int64
	sum      float64
	best     any
	distinct map[string]bool
}

func newProjector(g *graph.Graph, q *Query) *projector {
	p := &projector{g: g, q: q}
	p.ids, p.hasID = g.Prop("id").(graph.Int64Column)
	keys := 0
	for _, item := range q.Return {
		if item.Agg == "" {
			keys++
		}
	}
	if keys < len(q.Return) {
		p.groups = map[string]int{}
	}
	if keys == 0 {
		p.group() // a key-less aggregate has its one row even over no tuples
	}
	return p
}

// pass points the projector at one UNWIND value's binding.
func (p *projector) pass(b *boundQuery, unwound any, lengths map[string]*vexpand.Result) {
	p.b, p.unwound, p.lengths = b, unwound, lengths
	if p.groups != nil || p.seen != nil {
		return
	}
	covered := map[int]bool{}
	for _, item := range p.q.Return {
		if idx, ok := b.varIdx[item.Args[0].Var]; ok && item.Args[0].Prop == "" {
			covered[idx] = true
		}
	}
	if p.q.Unwind != nil || len(covered) < len(b.pat.Vertices) {
		p.seen = map[string]bool{}
	}
}

// eval computes one expression for one tuple (pattern declaration order).
func (p *projector) eval(e Expr, tuple []graph.VertexID) (any, error) {
	if e.IsLength {
		bp, r := p.b.paths[e.PathVar], p.lengths[e.PathVar]
		src, dst := tuple[p.b.varIdx[bp.srcVar]], tuple[p.b.varIdx[bp.dstVar]]
		if row, ok := slices.BinarySearch(r.Sources, src); ok {
			if l, ok := r.MinLength(row, dst); ok {
				return int64(l), nil
			}
		}
		return nil, fmt.Errorf("cypher: no path length for %v", [2]graph.VertexID{src, dst})
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
	if p.q.Unwind != nil && e.Var == p.q.Unwind.Alias {
		return p.unwound, nil
	}
	return nil, fmt.Errorf("cypher: unknown variable %q", e.Var)
}

// add consumes one matched tuple. A plain RETURN gets its fresh row back, or
// nil for a row already produced; an aggregating RETURN folds the tuple into
// its group and gets nil. Only a new row or group allocates beyond the
// boxed values.
func (p *projector) add(tuple []graph.VertexID) ([]any, error) {
	p.key = p.key[:0] // a plain row is its own key
	for _, item := range p.q.Return {
		if item.Agg == "" {
			v, err := p.eval(item.Args[0], tuple)
			if err != nil {
				return nil, err
			}
			p.key = append(p.key, v)
		}
	}
	if p.groups == nil {
		if p.seen != nil {
			p.kbuf = appendKey(p.kbuf[:0], p.key)
			if p.seen[string(p.kbuf)] {
				return nil, nil
			}
			p.seen[string(p.kbuf)] = true
		}
		return slices.Clone(p.key), nil
	}
	accs := p.group()
	for i, item := range p.q.Return {
		if item.Agg == "" {
			continue
		}
		p.vals = p.vals[:0]
		for _, a := range item.Args {
			v, err := p.eval(a, tuple)
			if err != nil {
				return nil, err
			}
			p.vals = append(p.vals, v)
		}
		if item.Distinct {
			p.kbuf = appendKey(p.kbuf[:0], p.vals)
		}
		if err := accs[i].fold(item, p.vals, p.kbuf); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// group returns the accumulators of p.key's group, opening it on first
// sight with a copy of the key in its row.
func (p *projector) group() []acc {
	p.kbuf = appendKey(p.kbuf[:0], p.key)
	if gi, ok := p.groups[string(p.kbuf)]; ok {
		return p.accs[gi]
	}
	row := make([]any, len(p.q.Return))
	key := p.key
	for i, item := range p.q.Return {
		if item.Agg == "" {
			row[i], key = key[0], key[1:]
		}
	}
	p.groups[string(p.kbuf)] = len(p.out)
	p.out = append(p.out, row)
	p.accs = append(p.accs, make([]acc, len(row)))
	return p.accs[len(p.accs)-1]
}

// rows closes the groups into output rows, in first-seen order.
func (p *projector) rows() [][]any {
	for gi, row := range p.out {
		for i, item := range p.q.Return {
			if item.Agg != "" {
				row[i] = p.accs[gi][i].result(item.Agg)
			}
		}
	}
	return p.out
}

// fold adds one row's argument values; a DISTINCT item skips values whose
// appendKey encoding, key, it has folded before.
func (a *acc) fold(item ReturnItem, vals []any, key []byte) error {
	if item.Distinct {
		if a.distinct[string(key)] {
			return nil
		}
		if a.distinct == nil {
			a.distinct = map[string]bool{}
		}
		a.distinct[string(key)] = true
	}
	a.n++
	switch item.Agg {
	case "sum", "avg":
		f, ok := toFloat(vals[0])
		if !ok {
			return fmt.Errorf("cypher: %s over non-numeric value %T", strings.ToUpper(item.Agg), vals[0])
		}
		a.sum += f
	case "min", "max":
		c := compareValues(vals[0], a.best)
		if a.n == 1 || (item.Agg == "min" && c < 0) || (item.Agg == "max" && c > 0) {
			a.best = vals[0]
		}
	}
	return nil
}

// result closes the accumulator: over no rows COUNT and SUM are 0, the
// others null.
func (a *acc) result(agg string) any {
	switch agg {
	case "count":
		return a.n
	case "sum":
		return a.sum
	case "avg":
		if a.n == 0 {
			return nil
		}
		return a.sum / float64(a.n)
	}
	return a.best
}

// pathLengths expands, for each path variable a length() projection names,
// its relationship from the distinct sources among the matched tuples, in
// one batch with per-step layers. Sources are sorted, so eval finds a
// tuple's row by binary search and reads its minimal walk length there.
func pathLengths(ctx context.Context, eng *engine.Engine, q *Query, b *boundQuery, tuples [][]graph.VertexID) (map[string]*vexpand.Result, error) {
	out := map[string]*vexpand.Result{}
	for _, item := range q.Return {
		for _, e := range item.Args {
			if !e.IsLength || out[e.PathVar] != nil {
				continue
			}
			bp, ok := b.paths[e.PathVar]
			if !ok {
				return nil, fmt.Errorf("cypher: length() references unknown path %q", e.PathVar)
			}
			srcIdx := b.varIdx[bp.srcVar]
			sources := make([]graph.VertexID, len(tuples))
			for i, t := range tuples {
				sources[i] = t[srcIdx]
			}
			slices.Sort(sources)
			sources = slices.Compact(sources)
			r, err := eng.ExpandContext(ctx, sources, bp.d, true)
			if err != nil {
				return nil, err
			}
			out[e.PathVar] = r
		}
	}
	return out, nil
}

// appendKey appends vals' key to buf: the seen set, the groups and the
// DISTINCT sets key on it.
func appendKey(buf []byte, vals []any) []byte {
	for _, v := range vals {
		buf = fmt.Appendf(buf, "%T:%v|", v, v)
	}
	return buf
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	default:
		return 0, false
	}
}

// order sorts rows by q's ORDER BY keys, which validate has matched to
// output columns; rows that tie keep their order.
func order(q *Query, rows [][]any) {
	cols := Columns(q)
	idxs := make([]int, len(q.OrderBy))
	for i, key := range q.OrderBy {
		idxs[i] = slices.Index(cols, key.Ref)
	}
	slices.SortStableFunc(rows, func(a, b []any) int {
		for i, idx := range idxs {
			c := compareValues(a[idx], b[idx])
			if q.OrderBy[i].Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
}

func compareValues(a, b any) int {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		return cmp.Compare(af, bf)
	}
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
}
