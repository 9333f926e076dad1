package mintersect

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitmatrix"
	"repro/internal/graph"
)

// joinShape lists, for each join position t ≥ 2 in order, the earlier
// positions its matrices join it to; a repeat is a parallel matrix.
// Position 1 is joined to 0 by First.
type joinShape [][]int

// hoistShapes each pin one way the executor splits a position's matrices
// into early ones (hoisted once per binding of the positions before t-1)
// and late ones (joined to t-1, ANDed per extension).
var hoistShapes = []struct {
	name string
	ext  joinShape
}{
	{"late set empty", joinShape{{0}}},
	{"triangle", joinShape{{0, 1}}},
	{"no early matrix, then two early and no late", joinShape{{1}, {0, 1}}},
	{"two early and a late", joinShape{{0, 1}, {0, 1, 2}}},
	{"parallel early and late matrices", joinShape{{0, 0, 1, 1}}},
	{"five vertices, three early", joinShape{{0}, {1, 2}, {0, 1, 2, 3}}},
	{"five vertices, empty late mid-join", joinShape{{0, 1}, {0}, {2, 3}}},
}

// randomShape joins each position t ≥ 2 of a 3- to 5-vertex join to a
// random nonempty set of earlier positions.
func randomShape(rng *rand.Rand) joinShape {
	ext := make(joinShape, 1+rng.Intn(3))
	for i := range ext {
		t := i + 2
		for len(ext[i]) == 0 {
			for p := 0; p < t; p++ {
				if rng.Intn(2) == 0 {
					ext[i] = append(ext[i], p)
				}
			}
		}
	}
	return ext
}

// hoistInstance builds a join of the given shape over random sparse
// matrices, with its brute-force reference. Candidates are strictly
// ascending draws from one vertex range, so positions share vertices; one
// position ≥ 2, and possibly one more, has more than StackRows candidates,
// so its columns, scratch and hoisted sets span several stacks. Every
// candidate reaches itself with probability 1/2, so bound vertices sit in
// later columns and the bijection has rows to clear.
func hoistInstance(rng *rand.Rand, ext joinShape) (*Input, [][]graph.VertexID, []refEdge) {
	nP := len(ext) + 2
	nV := 600 + rng.Intn(400)
	long := make([]bool, nP)
	long[2+rng.Intn(nP-2)] = true
	long[rng.Intn(nP)] = true
	cands := make([][]graph.VertexID, nP)
	for t := range cands {
		size := 2 + rng.Intn(24)
		if long[t] {
			size = bitmatrix.StackRows + 1 + rng.Intn(nV-bitmatrix.StackRows-1)
		}
		for _, v := range rng.Perm(nV)[:size] {
			cands[t] = append(cands[t], graph.VertexID(v))
		}
		slices.Sort(cands[t])
	}

	in := &Input{
		NumPatternVertices: nP,
		FirstCols:          cands[0],
		RowCandidates:      cands,
		Ext:                make([][]*EdgeMatrix, nP),
	}
	var refs []refEdge
	join := func(earlier, later int) *EdgeMatrix {
		m := bitmatrix.New(len(cands[later]), nV)
		rowOf := make([]int32, nV)
		for i := range rowOf {
			rowOf[i] = -1
		}
		for i, v := range cands[later] {
			rowOf[v] = int32(i)
			if rng.Intn(2) == 0 {
				m.Set(i, int(v))
			}
			// About one column in twenty; the steps average 20.
			for j := rng.Intn(20); j < nV; j += 1 + rng.Intn(39) {
				m.Set(i, j)
			}
		}
		refs = append(refs, refEdge{a: earlier, b: later, reach: func(va, vb graph.VertexID) bool {
			row := rowOf[vb]
			return row >= 0 && m.Get(int(row), int(va))
		}})
		return &EdgeMatrix{EarlierPos: earlier, M: m}
	}
	in.First = join(0, 1)
	for i, earlier := range ext {
		for _, p := range earlier {
			in.Ext[i+2] = append(in.Ext[i+2], join(p, i+2))
		}
	}
	return in, cands, refs
}

// checkHoistedJoin compares every way of running in against the
// brute-force tuples want: serial enumeration as a multiset, the count and
// the statistics of counting and enumerating Run at Workers 1, 2 and 4, and
// ForEachUntil stopped after a random number of tuples.
func checkHoistedJoin(t *testing.T, rng *rand.Rand, in *Input, want [][]graph.VertexID) bool {
	t.Helper()
	got, res, err := collect(in)
	if err != nil {
		t.Log(err)
		return false
	}
	order := slices.Clone(got)
	sortTuples(got)
	sortTuples(want)
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Logf("enumerated %d tuples, brute force %d", len(got), len(want))
		return false
	}
	if res.Count != int64(len(want)) {
		t.Logf("ForEachUntil counted %d, handed over %d", res.Count, len(want))
		return false
	}
	for _, countOnly := range []bool{false, true} {
		var serial Stats
		for _, workers := range []int{1, 2, 4} {
			r, err := Run(in, Options{CountOnly: countOnly, Workers: workers})
			if err != nil {
				t.Log(err)
				return false
			}
			if workers == 1 {
				serial = r.Stats
			}
			if r.Count != int64(len(want)) || r.Stats != serial {
				t.Logf("CountOnly=%v Workers=%d: count %d %+v, want %d %+v",
					countOnly, workers, r.Count, r.Stats, len(want), serial)
				return false
			}
		}
	}
	if len(order) == 0 {
		return true
	}
	stop := 1 + rng.Intn(len(order))
	var handed [][]graph.VertexID
	var early Result
	err = ForEachUntil(context.Background(), in, Options{}, func(tuple []graph.VertexID) bool {
		handed = append(handed, slices.Clone(tuple))
		return len(handed) < stop
	}, &early)
	if err != nil || early.Count != int64(stop) || !reflect.DeepEqual(handed, order[:stop]) {
		t.Logf("stopped after %d of %d: err %v, count %d, handed %d tuples", stop, len(order), err, early.Count, len(handed))
		return false
	}
	return true
}

func sortTuples(ts [][]graph.VertexID) {
	slices.SortFunc(ts, func(a, b []graph.VertexID) int { return slices.Compare(a, b) })
}

// Property: the hoisted join equals brute force on every shape the hoist
// splits on (an empty late set, several early matrices, parallel matrices,
// up to five vertices) and on random shapes, over multi-stack columns and
// candidates shared between positions.
func TestQuickHoistedJoinMatchesBruteForce(t *testing.T) {
	check := func(shape func(*rand.Rand) joinShape) func(seed int64) bool {
		return func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			ext := shape(rng)
			in, cands, refs := hoistInstance(rng, ext)
			if !checkHoistedJoin(t, rng, in, bruteForce(in.NumPatternVertices, cands, refs)) {
				t.Logf("shape %v, seed %d", ext, seed)
				return false
			}
			return true
		}
	}
	for _, s := range hoistShapes {
		t.Run(s.name, func(t *testing.T) {
			if err := quick.Check(check(func(*rand.Rand) joinShape { return s.ext }), &quick.Config{MaxCount: 3}); err != nil {
				t.Error(err)
			}
		})
	}
	t.Run("random shapes", func(t *testing.T) {
		if err := quick.Check(check(randomShape), &quick.Config{MaxCount: 10}); err != nil {
			t.Error(err)
		}
	})
}

// A two-vertex join never extends past its seed loop, so it builds no row
// arrays or hoisted sets: Run allocates only its Result and the executor's
// tuple and row slices, ForEachUntil only the two slices.
func TestTwoVertexJoinAllocs(t *testing.T) {
	in := countInput(t, vertexRange(0, 40), vertexRange(25, 60))
	keep := func([]graph.VertexID) bool { return true }
	var res Result
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Run count", 3, func() { _, _ = Run(in, Options{CountOnly: true}) }},
		{"Run enumerate", 3, func() { _, _ = Run(in, Options{}) }},
		{"ForEachUntil", 2, func() { _ = ForEachUntil(context.Background(), in, Options{}, keep, &res) }},
	} {
		if got := testing.AllocsPerRun(20, c.run); got > c.max {
			t.Errorf("%s: %v allocations per join, want at most %v", c.name, got, c.max)
		}
	}
}
