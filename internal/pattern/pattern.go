// Package pattern defines Variable-Length Graph Patterns (VLGPs): the
// pattern vertices, variable-length path determiners, and property
// constraints of Definitions 2 and 3 of the VertexSurge paper.
package pattern

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
)

// PathType selects which paths a determiner accepts (Definition 2).
type PathType int

const (
	// Any accepts d when it is reachable from s by kmin..kmax edges
	// (walk semantics; §2.2).
	Any PathType = iota
	// Shortest accepts d when the shortest path from s to d has length
	// in kmin..kmax.
	Shortest
)

// String names the path type.
func (t PathType) String() string {
	switch t {
	case Any:
		return "ANY"
	case Shortest:
		return "SHORTEST"
	default:
		return fmt.Sprintf("PathType(%d)", int(t))
	}
}

// Unbounded as KMax means "no maximum length" (Cypher's `*1..`); expansion
// continues until the frontier empties.
const Unbounded = math.MaxInt

// Determiner is a variable-length path determiner D = (kmin, kmax, dir, t)
// (Definition 2), extended with the edge labels the path may traverse —
// multiple labels mean their union, as in the paper's Case 12
// (`transfer|withdraw`).
type Determiner struct {
	KMin, KMax int
	Dir        graph.Direction
	Type       PathType
	EdgeLabels []string
	// EdgePropEq constrains traversable edges to those whose properties
	// equal the given values (σ over edges; §5.3: a filter operator runs
	// after the edge scan).
	EdgePropEq map[string]any
}

// Validate checks the determiner's internal consistency.
func (d Determiner) Validate() error {
	if d.KMin < 0 {
		return fmt.Errorf("pattern: kmin %d < 0", d.KMin)
	}
	if d.KMax < d.KMin {
		return fmt.Errorf("pattern: kmax %d < kmin %d", d.KMax, d.KMin)
	}
	if d.KMax == Unbounded && d.Type != Shortest {
		return fmt.Errorf("pattern: unbounded kmax requires SHORTEST path type")
	}
	return nil
}

// String renders the determiner in Cypher-like form.
func (d Determiner) String() string {
	kmax := "∞"
	if d.KMax != Unbounded {
		kmax = fmt.Sprint(d.KMax)
	}
	return fmt.Sprintf("(%d..%s, %s, %s, %v)", d.KMin, kmax, d.Dir, d.Type, d.EdgeLabels)
}

// Reverse returns the determiner as seen from the destination endpoint:
// same lengths and type, flipped direction. VExpand uses it to start
// expansion from the smaller side.
func (d Determiner) Reverse() Determiner {
	d.Dir = d.Dir.Flip()
	return d
}

// ResolveEdgeSets resolves a determiner's edge labels against g and applies
// its edge property constraints, returning the edge sets a kernel may
// traverse. With constraints present, each set is scanned once and
// filtered (§5.3), paying one CSR rebuild per query.
func ResolveEdgeSets(g *graph.Graph, d Determiner) ([]*graph.EdgeSet, error) {
	sets, err := g.EdgeSets(d.EdgeLabels)
	if err != nil {
		return nil, err
	}
	if len(d.EdgePropEq) == 0 {
		return sets, nil
	}
	out := make([]*graph.EdgeSet, 0, len(sets))
	for _, es := range sets {
		cols := make(map[string]graph.Column, len(d.EdgePropEq))
		for name := range d.EdgePropEq {
			col := es.Prop(name)
			if col == nil {
				return nil, fmt.Errorf("pattern: edge label %q has no property %q", es.Label(), name)
			}
			cols[name] = col
		}
		out = append(out, es.Filter(func(i int) bool {
			for name, want := range d.EdgePropEq {
				if !propEqual(cols[name].Value(i), want) {
					return false
				}
			}
			return true
		}))
	}
	return out, nil
}

// CmpOp is a comparison operator for property predicates.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// PropFilter is one property comparison predicate (`v.prop op value`).
type PropFilter struct {
	Prop  string
	Op    CmpOp
	Value any
}

// Vertex is a pattern vertex with its property comparator σ: required
// labels, excluded labels (Case 2's `WHERE NOT q:SIGA`), property equality
// (`{id:$id}`), and general comparisons (`WHERE loan.balance > 5000`).
type Vertex struct {
	Name      string
	Labels    []string
	NotLabels []string
	PropEq    map[string]any
	PropCmp   []PropFilter
}

// Edge is a pattern edge (s, d, D).
type Edge struct {
	Src, Dst string
	D        Determiner
}

// Pattern is a VLGP P = (Vp, Ep, σ) (Definition 3).
type Pattern struct {
	Vertices []Vertex
	Edges    []Edge
}

// VertexIndex returns the position of the named vertex, or -1.
func (p *Pattern) VertexIndex(name string) int {
	for i, v := range p.Vertices {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural consistency: unique non-empty vertex names,
// edges referencing declared vertices (no self loops — a VLP from a vertex
// to itself is not a meaningful walk constraint under DISTINCT semantics),
// and valid determiners.
func (p *Pattern) Validate() error {
	if len(p.Vertices) == 0 {
		return fmt.Errorf("pattern: no vertices")
	}
	seen := make(map[string]bool, len(p.Vertices))
	for _, v := range p.Vertices {
		if v.Name == "" {
			return fmt.Errorf("pattern: vertex with empty name")
		}
		if seen[v.Name] {
			return fmt.Errorf("pattern: duplicate vertex %q", v.Name)
		}
		seen[v.Name] = true
	}
	for _, e := range p.Edges {
		if !seen[e.Src] {
			return fmt.Errorf("pattern: edge references unknown vertex %q", e.Src)
		}
		if !seen[e.Dst] {
			return fmt.Errorf("pattern: edge references unknown vertex %q", e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("pattern: self-loop on %q", e.Src)
		}
		if err := e.D.Validate(); err != nil {
			return fmt.Errorf("pattern: edge %s-%s: %w", e.Src, e.Dst, err)
		}
	}
	return nil
}

// Candidates evaluates a pattern vertex's property comparator against g and
// returns the bitmap of graph vertices that match: all required labels
// present, no excluded label present, and every property predicate satisfied.
// A vertex with no constraints matches everything. Set bits enumerate in
// ascending vertex order, which is the order the planner's candidate lists
// and MIntersect's merge rely on.
//
// Evaluation is typed and costs what the predicates select, not |V| boxed
// compares: each filter switches once on the column's concrete type and
// converts its literal once; an int64 column answers =, <, <=, >, >= from the
// graph's ordered index (graph.OrderedInt64) by binary search, and everything
// else runs one typed loop over the bits still set.
func Candidates(g *graph.Graph, v Vertex) (*bitmatrix.Bitmap, error) {
	var out *bitmatrix.Bitmap
	for _, l := range v.Labels {
		bm := g.Label(l)
		if bm == nil {
			return nil, fmt.Errorf("pattern: unknown vertex label %q", l)
		}
		if out == nil {
			out = bm.Clone()
		} else {
			out.And(bm)
		}
	}
	if out == nil {
		// No required labels: start from all vertices.
		n := g.NumVertices()
		out = bitmatrix.NewBitmap(n)
		words := out.Words()
		for i := range words {
			words[i] = ^uint64(0)
		}
		clearRange(words, n, len(words)*64)
	}
	for _, l := range v.NotLabels {
		if bm := g.Label(l); bm != nil {
			out.AndNot(bm)
		}
	}
	for name, want := range v.PropEq {
		if err := filter(g, out, PropFilter{Prop: name, Op: CmpEq, Value: want}); err != nil {
			return nil, err
		}
	}
	for _, pf := range v.PropCmp {
		if err := filter(g, out, pf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// A typed kernel compares a column value with the literal once and lands in
// one of four states; the operator is the set of states it keeps. Unordered
// is a NaN on either side (the ordering operators treat it as "neither less
// nor greater", so <= and >= keep it and = does not) and any pair of values
// that can only be unequal.
const (
	stLess = iota
	stEqual
	stGreater
	stUnordered
)

func keptStates(op CmpOp) uint {
	switch op {
	case CmpEq:
		return 1 << stEqual
	case CmpNe:
		return 1<<stLess | 1<<stGreater | 1<<stUnordered
	case CmpLt:
		return 1 << stLess
	case CmpLe:
		return 1<<stLess | 1<<stEqual | 1<<stUnordered
	case CmpGt:
		return 1 << stGreater
	case CmpGe:
		return 1<<stGreater | 1<<stEqual | 1<<stUnordered
	default:
		return 0
	}
}

// filter clears from set every vertex whose property fails pf. Numeric
// literals (int, int64, float64) compare with numeric columns: = and <>
// against an integer literal in int64 (a float column truncated), everything
// else in float64. Strings order lexicographically; booleans only test
// equality. A value that cannot equal the literal's type is unequal, except
// that a non-numeric column reads as math.MinInt64 to a numeric literal; one
// that cannot be ordered against it is an error as soon as a vertex is left
// to compare.
func filter(g *graph.Graph, set *bitmatrix.Bitmap, pf PropFilter) error {
	col := g.Prop(pf.Prop)
	if col == nil {
		return fmt.Errorf("pattern: unknown vertex property %q", pf.Prop)
	}
	keep := keptStates(pf.Op)
	equality := pf.Op == CmpEq || pf.Op == CmpNe
	wi, isInt := pf.Value.(int64)
	if x, ok := pf.Value.(int); ok {
		wi, isInt = int64(x), true
	}
	wf, isFloat := pf.Value.(float64)
	if isInt {
		wf = float64(wi)
	}
	numeric := isInt || isFloat
	words := set.Words()

	switch c := col.(type) {
	case graph.Int64Column:
		if !numeric {
			break
		}
		exact := equality && isInt
		if pf.Op != CmpNe && wf == wf {
			filterByIndex(g, set, pf, exact, wi, wf)
			return nil
		}
		if exact {
			filterNumeric(words, c, wi, keep)
		} else {
			filterNumeric(words, c, wf, keep)
		}
		return nil
	case graph.Float64Column:
		if !numeric {
			break
		}
		if equality && isInt {
			filterNumeric(words, c, wi, keep)
		} else {
			filterNumeric(words, c, wf, keep)
		}
		return nil
	case graph.StringColumn:
		if ws, ok := pf.Value.(string); ok {
			filterString(words, c, ws, keep)
			return nil
		}
	case graph.BoolColumn:
		if wb, ok := pf.Value.(bool); ok && equality {
			filterBool(words, c, wb, keep)
			return nil
		}
	}

	// No value of this column compares with this literal individually: the
	// outcome is the same for every vertex.
	if !equality {
		if set.Any() {
			return fmt.Errorf("pattern: cannot order %s against %T", col.Kind(), pf.Value)
		}
		return nil
	}
	state := uint(stUnordered)
	if isInt && wi == math.MinInt64 || isFloat && wf == float64(math.MinInt64) {
		state = stEqual // only string and bool columns get here with a numeric literal
	}
	if keep>>state&1 == 0 {
		set.Reset()
	}
	return nil
}

// filterByIndex answers an =, <, <=, >, >= filter on an int64 column from the
// column's ordered index: the satisfying vertices are one run [lo, hi) of it,
// found by two binary searches. On a column that is its own index the run is
// a vertex range and the filter a word-range mask; otherwise the run's
// vertices are ANDed in through a scratch bitmap.
func filterByIndex(g *graph.Graph, set *bitmatrix.Bitmap, pf PropFilter, exact bool, wi int64, wf float64) {
	col, perm := g.OrderedInt64(pf.Prop)
	n := len(col)
	at := func(i int) int64 {
		if perm != nil {
			i = int(perm[i])
		}
		return col[i]
	}
	// Both domains are monotone along the index: float64() never reorders
	// int64 values, it only merges neighbours.
	var lower, upper int // first position not before / first position after the literal
	if exact {
		lower = sort.Search(n, func(i int) bool { return at(i) >= wi })
		upper = sort.Search(n, func(i int) bool { return at(i) > wi })
	} else {
		lower = sort.Search(n, func(i int) bool { return float64(at(i)) >= wf })
		upper = sort.Search(n, func(i int) bool { return float64(at(i)) > wf })
	}
	lo, hi := 0, 0
	switch pf.Op {
	case CmpEq:
		lo, hi = lower, upper
	case CmpLt:
		hi = lower
	case CmpLe:
		hi = upper
	case CmpGt:
		lo, hi = upper, n
	case CmpGe:
		lo, hi = lower, n
	}
	if perm == nil {
		words := set.Words()
		clearRange(words, 0, lo)
		clearRange(words, hi, n)
		return
	}
	run := bitmatrix.NewBitmap(n)
	run.FillFrom(perm[lo:hi])
	set.And(run)
}

// clearRange clears bits [lo, hi) of words.
func clearRange(words []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo/64, (hi-1)/64
	fromLo := ^uint64(0) << uint(lo%64)
	toHi := ^uint64(0) >> uint(63-(hi-1)%64)
	if first == last {
		words[first] &^= fromLo & toHi
		return
	}
	words[first] &^= fromLo
	clear(words[first+1 : last])
	words[last] &^= toHi
}

// filterNumeric clears from words every set vertex whose column value,
// converted to the literal's type, compares with w in a state keep excludes.
//
//vs:hotpath
func filterNumeric[C, L int64 | float64](words []uint64, col []C, w L, keep uint) {
	for wi, word := range words {
		for rest := word; rest != 0; rest &= rest - 1 {
			tz := bits.TrailingZeros64(rest)
			i := wi*64 + tz
			if uint(i) >= uint(len(col)) {
				break
			}
			x := L(col[i])
			state := uint(stUnordered)
			if x < w {
				state = stLess
			} else if x == w {
				state = stEqual
			} else if x > w {
				state = stGreater
			}
			if keep>>state&1 == 0 {
				word &^= 1 << uint(tz)
			}
		}
		words[wi] = word
	}
}

// filterString is filterNumeric for a string column and literal.
//
//vs:hotpath
func filterString(words []uint64, col []string, w string, keep uint) {
	for wi, word := range words {
		for rest := word; rest != 0; rest &= rest - 1 {
			tz := bits.TrailingZeros64(rest)
			i := wi*64 + tz
			if uint(i) >= uint(len(col)) {
				break
			}
			state := uint(stGreater)
			if x := col[i]; x < w {
				state = stLess
			} else if x == w {
				state = stEqual
			}
			if keep>>state&1 == 0 {
				word &^= 1 << uint(tz)
			}
		}
		words[wi] = word
	}
}

// filterBool is filterNumeric for a bool column and literal, which are equal
// or unordered.
//
//vs:hotpath
func filterBool(words []uint64, col []bool, w bool, keep uint) {
	for wi, word := range words {
		for rest := word; rest != 0; rest &= rest - 1 {
			tz := bits.TrailingZeros64(rest)
			i := wi*64 + tz
			if uint(i) >= uint(len(col)) {
				break
			}
			state := uint(stUnordered)
			if col[i] == w {
				state = stEqual
			}
			if keep>>state&1 == 0 {
				word &^= 1 << uint(tz)
			}
		}
		words[wi] = word
	}
}

// propEqual compares a column value against a query constant, tolerating
// int/int64/float64 literal types coming from parsed queries.
func propEqual(have, want any) bool {
	switch w := want.(type) {
	case int:
		return asInt64(have) == int64(w)
	case int64:
		return asInt64(have) == w
	case float64:
		if f, ok := have.(float64); ok {
			return f == w
		}
		return float64(asInt64(have)) == w
	case string:
		s, ok := have.(string)
		return ok && s == w
	case bool:
		b, ok := have.(bool)
		return ok && b == w
	default:
		return have == want
	}
}

func asInt64(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	default:
		return math.MinInt64
	}
}
