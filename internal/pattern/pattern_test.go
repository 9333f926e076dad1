package pattern

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetLabel(graph.VertexID(v), "Person")
	}
	b.SetLabel(0, "SIGA").SetLabel(1, "SIGA")
	b.SetLabel(2, "SIGB")
	b.SetLabel(3, "SIGC").SetLabel(4, "SIGC")
	b.SetProp("id", graph.Int64Column{100, 101, 102, 103, 104, 105})
	b.SetProp("name", graph.StringColumn{"a", "b", "c", "d", "e", "f"})
	b.SetProp("blocked", graph.BoolColumn{false, true, false, false, true, false})
	b.AddEdge("knows", 0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDeterminerValidate(t *testing.T) {
	good := Determiner{KMin: 1, KMax: 3, Dir: graph.Both, Type: Any}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid determiner rejected: %v", err)
	}
	bad := []Determiner{
		{KMin: -1, KMax: 3},
		{KMin: 2, KMax: 1},
		{KMin: 1, KMax: Unbounded, Type: Any},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("invalid determiner %v accepted", d)
		}
	}
	unbounded := Determiner{KMin: 1, KMax: Unbounded, Type: Shortest}
	if err := unbounded.Validate(); err != nil {
		t.Fatalf("unbounded shortest rejected: %v", err)
	}
}

func TestDeterminerReverse(t *testing.T) {
	d := Determiner{KMin: 1, KMax: 3, Dir: graph.Forward, Type: Any, EdgeLabels: []string{"transfer"}}
	r := d.Reverse()
	if r.Dir != graph.Reverse || r.KMin != 1 || r.KMax != 3 || r.Type != Any {
		t.Fatalf("Reverse = %v", r)
	}
	if d.Dir != graph.Forward {
		t.Fatal("Reverse mutated receiver")
	}
}

func TestDeterminerString(t *testing.T) {
	d := Determiner{KMin: 1, KMax: Unbounded, Dir: graph.Forward, Type: Shortest, EdgeLabels: []string{"t"}}
	s := d.String()
	if !strings.Contains(s, "∞") || !strings.Contains(s, "SHORTEST") {
		t.Fatalf("String = %q", s)
	}
	if Any.String() != "ANY" || Shortest.String() != "SHORTEST" {
		t.Fatal("PathType.String wrong")
	}
}

func communityTriangle() *Pattern {
	d := Determiner{KMin: 1, KMax: 2, Dir: graph.Both, Type: Any, EdgeLabels: []string{"knows"}}
	return &Pattern{
		Vertices: []Vertex{
			{Name: "a", Labels: []string{"Person", "SIGA"}},
			{Name: "b", Labels: []string{"Person", "SIGB"}},
			{Name: "c", Labels: []string{"Person", "SIGC"}},
		},
		Edges: []Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "a", Dst: "c", D: d},
		},
	}
}

func TestPatternValidate(t *testing.T) {
	p := communityTriangle()
	if err := p.Validate(); err != nil {
		t.Fatalf("community triangle rejected: %v", err)
	}
	if p.VertexIndex("b") != 1 || p.VertexIndex("zz") != -1 {
		t.Fatal("VertexIndex wrong")
	}

	bad := []*Pattern{
		{},
		{Vertices: []Vertex{{Name: ""}}},
		{Vertices: []Vertex{{Name: "a"}, {Name: "a"}}},
		{Vertices: []Vertex{{Name: "a"}}, Edges: []Edge{{Src: "a", Dst: "x", D: Determiner{KMax: 1}}}},
		{Vertices: []Vertex{{Name: "a"}}, Edges: []Edge{{Src: "x", Dst: "a", D: Determiner{KMax: 1}}}},
		{Vertices: []Vertex{{Name: "a"}, {Name: "b"}}, Edges: []Edge{{Src: "a", Dst: "a", D: Determiner{KMax: 1}}}},
		{Vertices: []Vertex{{Name: "a"}, {Name: "b"}}, Edges: []Edge{{Src: "a", Dst: "b", D: Determiner{KMin: 3, KMax: 1}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad pattern %d accepted", i)
		}
	}
}

func TestCandidatesLabels(t *testing.T) {
	g := testGraph(t)
	bm, err := Candidates(g, Vertex{Name: "a", Labels: []string{"Person", "SIGA"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := bm.Bits(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("SIGA candidates = %v", got)
	}
	bm, err = Candidates(g, Vertex{Name: "q", Labels: []string{"Person"}, NotLabels: []string{"SIGA"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := bm.Bits(); !reflect.DeepEqual(got, []int{2, 3, 4, 5}) {
		t.Fatalf("NOT SIGA candidates = %v", got)
	}
}

func TestCandidatesNoConstraints(t *testing.T) {
	g := testGraph(t)
	bm, err := Candidates(g, Vertex{Name: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if bm.PopCount() != 6 {
		t.Fatalf("unconstrained candidates = %d, want 6", bm.PopCount())
	}
}

func TestCandidatesPropEq(t *testing.T) {
	g := testGraph(t)
	cases := []struct {
		v    Vertex
		want []int
	}{
		{Vertex{Name: "x", PropEq: map[string]any{"id": int64(102)}}, []int{2}},
		{Vertex{Name: "x", PropEq: map[string]any{"id": 102}}, []int{2}},
		{Vertex{Name: "x", PropEq: map[string]any{"id": float64(102)}}, []int{2}},
		{Vertex{Name: "x", PropEq: map[string]any{"name": "e"}}, []int{4}},
		{Vertex{Name: "x", PropEq: map[string]any{"blocked": true}}, []int{1, 4}},
		{Vertex{Name: "x", Labels: []string{"SIGA"}, PropEq: map[string]any{"blocked": true}}, []int{1}},
		{Vertex{Name: "x", PropEq: map[string]any{"id": int64(999)}}, nil},
	}
	for i, c := range cases {
		bm, err := Candidates(g, c.v)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := bm.Bits()
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: candidates = %v, want %v", i, got, c.want)
		}
	}
}

func TestCandidatesErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := Candidates(g, Vertex{Name: "x", Labels: []string{"Nope"}}); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, err := Candidates(g, Vertex{Name: "x", PropEq: map[string]any{"nope": 1}}); err == nil {
		t.Fatal("unknown property accepted")
	}
	// Unknown NotLabel is harmless (excluding nothing).
	bm, err := Candidates(g, Vertex{Name: "x", NotLabels: []string{"Nope"}})
	if err != nil || bm.PopCount() != 6 {
		t.Fatalf("NotLabels(missing) = %v, %v", bm.PopCount(), err)
	}
}

func TestPropEqualMixedNumerics(t *testing.T) {
	if !propEqual(int64(5), 5) || !propEqual(int64(5), int64(5)) || !propEqual(int64(5), float64(5)) {
		t.Fatal("int64 column comparisons failed")
	}
	if !propEqual(float64(2.5), 2.5) {
		t.Fatal("float column comparison failed")
	}
	if propEqual("x", 5) || propEqual(int64(5), "5") || propEqual(true, 1) {
		t.Fatal("cross-type comparisons should fail")
	}
	if !propEqual(true, true) || propEqual(false, true) {
		t.Fatal("bool comparison wrong")
	}
}

func TestResolveEdgeSetsWithFilter(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge("t", 0, 1).AddEdge("t", 1, 2)
	b.SetEdgeProp("t", "amount", graph.Int64Column{100, 200})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := Determiner{KMin: 1, KMax: 1, Dir: graph.Forward, Type: Any,
		EdgeLabels: []string{"t"}, EdgePropEq: map[string]any{"amount": 200}}
	sets, err := ResolveEdgeSets(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0].Len() != 1 {
		t.Fatalf("filtered sets = %d with %d edges", len(sets), sets[0].Len())
	}
	if s, dst := sets[0].Edge(0); s != 1 || dst != 2 {
		t.Fatalf("kept edge = (%d,%d)", s, dst)
	}

	// No constraint → original shared sets, no copy.
	d.EdgePropEq = nil
	sets, err = ResolveEdgeSets(g, d)
	if err != nil || sets[0] != g.Edges("t") {
		t.Fatalf("unfiltered resolution should return the shared set (%v)", err)
	}

	d.EdgePropEq = map[string]any{"nope": 1}
	if _, err := ResolveEdgeSets(g, d); err == nil {
		t.Fatal("unknown edge property accepted")
	}
}

// refCandidates is the boxed evaluator Candidates replaced, kept verbatim as
// the reference the typed one must agree with: one Column.Value per set bit
// per filter, compared through propCompare/propEqual.
func refCandidates(g *graph.Graph, v Vertex) (*bitmatrix.Bitmap, error) {
	out := bitmatrix.NewBitmap(g.NumVertices())
	first := true
	for _, l := range v.Labels {
		bm := g.Label(l)
		if bm == nil {
			return nil, fmt.Errorf("pattern: unknown vertex label %q", l)
		}
		if first {
			out.CopyFrom(bm)
			first = false
		} else {
			out.And(bm)
		}
	}
	if first {
		for i := 0; i < g.NumVertices(); i++ {
			out.Set(i)
		}
	}
	for _, l := range v.NotLabels {
		if bm := g.Label(l); bm != nil {
			out.AndNot(bm)
		}
	}
	for name, want := range v.PropEq {
		col := g.Prop(name)
		if col == nil {
			return nil, fmt.Errorf("pattern: unknown vertex property %q", name)
		}
		filtered := bitmatrix.NewBitmap(g.NumVertices())
		out.ForEach(func(i int) {
			if propEqual(col.Value(i), want) {
				filtered.Set(i)
			}
		})
		out = filtered
	}
	for _, pf := range v.PropCmp {
		col := g.Prop(pf.Prop)
		if col == nil {
			return nil, fmt.Errorf("pattern: unknown vertex property %q", pf.Prop)
		}
		filtered := bitmatrix.NewBitmap(g.NumVertices())
		var cmpErr error
		out.ForEach(func(i int) {
			ok, err := propCompare(col.Value(i), pf.Op, pf.Value)
			if err != nil && cmpErr == nil {
				cmpErr = err
			}
			if ok {
				filtered.Set(i)
			}
		})
		if cmpErr != nil {
			return nil, cmpErr
		}
		out = filtered
	}
	return out, nil
}

func propCompare(have any, op CmpOp, want any) (bool, error) {
	switch op {
	case CmpEq:
		return propEqual(have, want), nil
	case CmpNe:
		return !propEqual(have, want), nil
	}
	hf, hok := toNumber(have)
	wf, wok := toNumber(want)
	if hok && wok {
		return ordHolds(op, compareFloats(hf, wf)), nil
	}
	hs, hok2 := have.(string)
	ws, wok2 := want.(string)
	if hok2 && wok2 {
		return ordHolds(op, strings.Compare(hs, ws)), nil
	}
	return false, fmt.Errorf("pattern: cannot order %T against %T", have, want)
}

func toNumber(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func ordHolds(op CmpOp, c int) bool {
	switch op {
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	default:
		return false
	}
}

// Property: the typed, index-backed evaluator returns the bitmap — or the
// error text — of the boxed reference, over random graphs with all four
// column kinds (int64 columns sorted, unsorted, constant and duplicate-heavy,
// so both index forms and the scan fallback run), 0–2 labels plus NotLabels,
// every operator, and literals of every type the binder can produce,
// including math.MinInt64, NaN, values outside the column's range and
// fractional floats against int columns.
func TestQuickCandidatesMatchReference(t *testing.T) {
	labels := []string{"A", "B", "C"}
	props := []string{"sorted", "unsorted", "constant", "dups", "big", "f", "s", "b", "nope"}
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe, CmpOp(9)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		b := graph.NewBuilder(n)
		sorted, unsorted := make(graph.Int64Column, n), make(graph.Int64Column, n)
		constant, dups, big := make(graph.Int64Column, n), make(graph.Int64Column, n), make(graph.Int64Column, n)
		fl, st, bo := make(graph.Float64Column, n), make(graph.StringColumn, n), make(graph.BoolColumn, n)
		for v := 0; v < n; v++ {
			for _, l := range labels {
				if rng.Intn(3) > 0 {
					b.SetLabel(graph.VertexID(v), l)
				}
			}
			sorted[v] = 1000 + int64(v)/int64(1+seed&1) // strictly increasing or pairwise equal
			unsorted[v] = int64(rng.Intn(2*n)) - int64(n/2)
			constant[v] = 7
			dups[v] = int64(rng.Intn(4))
			// Neighbours float64() cannot tell apart, and the extremes.
			big[v] = []int64{1 << 53, 1<<53 + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64, 0}[rng.Intn(6)]
			fl[v] = []float64{float64(rng.Intn(8)) / 2, -1.5, math.NaN(), math.Inf(1), 1e300}[rng.Intn(5)]
			st[v] = string(rune('a' + rng.Intn(5)))
			bo[v] = rng.Intn(2) == 0
		}
		b.SetProp("sorted", sorted).SetProp("unsorted", unsorted).SetProp("constant", constant)
		b.SetProp("dups", dups).SetProp("big", big).SetProp("f", fl).SetProp("s", st).SetProp("b", bo)
		g := b.MustBuild()

		literal := func() any {
			switch rng.Intn(14) {
			case 0:
				return rng.Intn(2*n) - n/2
			case 1:
				return int64(1000 + rng.Intn(n+2) - 1)
			case 2:
				return float64(rng.Intn(8)) / 2
			case 3:
				return float64(1000+rng.Intn(n)) + 0.5
			case 4:
				return string(rune('a' + rng.Intn(6)))
			case 5:
				return rng.Intn(2) == 0
			case 6:
				return int64(math.MinInt64)
			case 7:
				return math.MinInt64
			case 8:
				return float64(math.MinInt64)
			case 9:
				return math.NaN()
			case 10:
				return []int64{1 << 53, 1<<53 + 1, math.MaxInt64}[rng.Intn(3)]
			case 11:
				return []float64{1 << 53, 1e300, math.Inf(-1)}[rng.Intn(3)]
			case 12:
				return int32(7) // a type no column value has
			default:
				return nil
			}
		}
		pick := func(from []string, max int) []string {
			var out []string
			for i := rng.Intn(max + 1); i > 0; i-- {
				out = append(out, from[rng.Intn(len(from))])
			}
			return out
		}
		for trial := 0; trial < 60; trial++ {
			v := Vertex{Name: "v", Labels: pick(labels, 2), NotLabels: pick(append(labels, "Nope"), 1)}
			if rng.Intn(8) == 0 {
				v.Labels = append(v.Labels, "Nope")
			}
			if rng.Intn(3) == 0 {
				// At most one entry: with several, which unknown property
				// is reported depends on map order in both evaluators.
				v.PropEq = map[string]any{props[rng.Intn(len(props))]: literal()}
			}
			for i := rng.Intn(3); i > 0; i-- {
				v.PropCmp = append(v.PropCmp, PropFilter{
					Prop: props[rng.Intn(len(props)-rng.Intn(2))], Op: ops[rng.Intn(len(ops))], Value: literal()})
			}
			want, wantErr := refCandidates(g, v)
			got, gotErr := Candidates(g, v)
			if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
				t.Logf("seed %d: %+v: error %v, reference %v", seed, v, gotErr, wantErr)
				return false
			}
			if wantErr == nil && !got.Equal(want) {
				t.Logf("seed %d: %+v: candidates %v, reference %v", seed, v, got.Bits(), want.Bits())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The ledger's expand_hit vertex — (p:Person) WHERE p.id >= lo AND p.id < hi
// on a sorted id column — must cost the same number of allocations on a
// graph ten times the size: nothing per vertex is boxed or closed over.
func TestCandidatesAllocsIndependentOfGraphSize(t *testing.T) {
	allocs := func(n int) float64 {
		b := graph.NewBuilder(n)
		id := make(graph.Int64Column, n)
		for v := range id {
			b.SetLabel(graph.VertexID(v), "Person")
			id[v] = 1000 + int64(v)
		}
		g := b.SetProp("id", id).MustBuild()
		v := Vertex{Name: "p", Labels: []string{"Person"}, PropCmp: []PropFilter{
			{Prop: "id", Op: CmpGe, Value: int64(1000 + n/2)},
			{Prop: "id", Op: CmpLt, Value: int64(1000 + n/2 + 64)},
		}}
		return testing.AllocsPerRun(20, func() {
			bm, err := Candidates(g, v)
			if err != nil || bm.PopCount() != 64 {
				t.Fatalf("n=%d: %v candidates, err %v", n, bm.PopCount(), err)
			}
		})
	}
	small, large := allocs(2_000), allocs(20_000)
	if small != large || small > 8 {
		t.Fatalf("Candidates allocations: %v at |V|=2000, %v at |V|=20000; want equal and small", small, large)
	}
}
