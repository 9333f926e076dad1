package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// figure3 is the reconstructed example social network used throughout.
func figure3(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetLabel(graph.VertexID(v), "Person")
	}
	b.SetLabel(0, "SIGA").SetLabel(1, "SIGA")
	b.SetLabel(2, "SIGB")
	b.SetLabel(3, "SIGC").SetLabel(4, "SIGC")
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 5}} {
		b.AddEdge("knows", e[0], e[1])
	}
	b.SetProp("id", graph.Int64Column{1000, 1001, 1002, 1003, 1004, 1005})
	return b.MustBuild()
}

func socialGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 400, NumEdges: 1600, Seed: 11, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reachWalk returns the set of vertices reachable from v by a walk of
// length in [kmin, kmax] (ANY semantics oracle).
func reachWalk(g *graph.Graph, v graph.VertexID, labels []string, dir graph.Direction, kmin, kmax int) map[int]bool {
	sets, err := g.EdgeSets(labels)
	if err != nil {
		panic(err)
	}
	out := map[int]bool{}
	cur := map[int]bool{int(v): true}
	if kmin == 0 {
		out[int(v)] = true
	}
	for step := 1; step <= kmax; step++ {
		next := map[int]bool{}
		for u := range cur {
			for _, es := range sets {
				for _, w := range es.Neighbors(graph.VertexID(u), dir) {
					next[int(w)] = true
				}
			}
		}
		if step >= kmin {
			for w := range next {
				out[w] = true
			}
		}
		if len(next) == 0 {
			break
		}
		cur = next
	}
	return out
}

// TestCase4CountGrowsWithKmax pins Figure 2b's count column: under ANY
// semantics a larger k_max only adds paths, so the triangle count never
// shrinks.
func TestCase4CountGrowsWithKmax(t *testing.T) {
	e := New(socialGraph(t), Options{})
	prev := int64(0)
	for kmax := 1; kmax <= 3; kmax++ {
		count, _, err := e.Case4(kmax)
		if err != nil {
			t.Fatal(err)
		}
		if count < prev {
			t.Errorf("Case4(kmax=%d) = %d, below k_max-1's %d", kmax, count, prev)
		}
		prev = count
	}
}

func TestMatchCommunityTriangle(t *testing.T) {
	g := figure3(t)
	e := New(g, Options{})
	count, _, err := e.Case4(2)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("Case4 count = %d, want 2 (brute-force verified)", count)
	}

	// Materialized tuples come back in pattern declaration order (a,b,c).
	d := knowsDet(1, 2)
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
			{Name: "c", Labels: []string{"SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "a", Dst: "c", D: d},
		},
	}
	res, err := e.Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Names, []string{"a", "b", "c"}) {
		t.Fatalf("Names = %v", res.Names)
	}
	got := res.Tuples
	sort.Slice(got, func(i, j int) bool { return got[i][2] < got[j][2] })
	want := [][]graph.VertexID{{1, 2, 3}, {1, 2, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
	for _, tup := range got {
		if !g.HasLabel(tup[0], "SIGA") || !g.HasLabel(tup[1], "SIGB") || !g.HasLabel(tup[2], "SIGC") {
			t.Fatalf("tuple %v violates labels", tup)
		}
	}
	if res.Timings.Total <= 0 {
		t.Fatal("no total timing recorded")
	}
}

// matchOracle brute-forces a 2-vertex VLP pattern.
func matchOracle(g *graph.Graph, pLabel, qLabel string, notQ string, d pattern.Determiner) int64 {
	var count int64
	pBm := g.Label(pLabel)
	qBm := g.Label(qLabel)
	pBm.ForEach(func(p int) {
		reach := reachWalk(g, graph.VertexID(p), d.EdgeLabels, d.Dir, d.KMin, d.KMax)
		qBm.ForEach(func(q int) {
			if q == p || !reach[q] {
				return
			}
			if notQ != "" && g.HasLabel(graph.VertexID(q), notQ) {
				return
			}
			count++
		})
	})
	return count
}

func TestCase1AgainstOracle(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	for _, kmax := range []int{1, 2, 3} {
		got, _, err := e.Case1(kmax)
		if err != nil {
			t.Fatal(err)
		}
		want := matchOracle(g, "SIGA", "SIGA", "", knowsDet(1, kmax))
		if got != want {
			t.Errorf("Case1(kmax=%d) = %d, want %d", kmax, got, want)
		}
	}
}

func TestCase2And3AgainstOracle(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	kmax := 2

	// Oracle group counts.
	oracle := func(qLabel string, excludeSIGA bool) map[int]int {
		counts := map[int]int{}
		g.Label("SIGA").ForEach(func(p int) {
			reach := reachWalk(g, graph.VertexID(p), []string{"knows"}, graph.Both, 1, kmax)
			g.Label(qLabel).ForEach(func(q int) {
				if q == p || !reach[q] {
					return
				}
				if excludeSIGA && g.HasLabel(graph.VertexID(q), "SIGA") {
					return
				}
				counts[q]++
			})
		})
		return counts
	}

	got2, _, err := e.Case2(kmax, 100)
	if err != nil {
		t.Fatal(err)
	}
	want2 := oracle("Person", true)
	if len(got2) > 100 {
		t.Fatalf("Case2 returned %d rows, limit 100", len(got2))
	}
	for _, gc := range got2 {
		if want2[int(gc.Vertex)] != gc.Count {
			t.Errorf("Case2 q=%d count=%d, oracle %d", gc.Vertex, gc.Count, want2[int(gc.Vertex)])
		}
	}
	// Descending order.
	for i := 1; i < len(got2); i++ {
		if got2[i].Count > got2[i-1].Count {
			t.Fatal("Case2 not descending")
		}
	}

	got3, _, err := e.Case3(kmax, 100)
	if err != nil {
		t.Fatal(err)
	}
	want3 := oracle("SIGA", false)
	for _, gc := range got3 {
		if want3[int(gc.Vertex)] != gc.Count {
			t.Errorf("Case3 q=%d count=%d, oracle %d", gc.Vertex, gc.Count, want3[int(gc.Vertex)])
		}
	}
	for i := 1; i < len(got3); i++ {
		if got3[i].Count < got3[i-1].Count {
			t.Fatal("Case3 not ascending")
		}
	}
}

func TestCase5AgainstOracle(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	ids := []int64{1000, 1007, 1033, 1099}
	got, _, err := e.Case5(ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("Case5 rows = %d, want %d", len(got), len(ids))
	}
	for i, sc := range got {
		if sc.ID != ids[i] {
			t.Fatalf("row %d id = %d, want %d", i, sc.ID, ids[i])
		}
		v, _ := g.FindByInt64("id", sc.ID)
		reach := reachWalk(g, v, []string{"knows"}, graph.Both, 2, 3)
		delete(reach, int(v))
		if sc.Count != len(reach) {
			t.Errorf("Case5 id %d count = %d, oracle %d", sc.ID, sc.Count, len(reach))
		}
	}
	if _, _, err := e.Case5([]int64{999999}, 3); err == nil {
		t.Error("unknown person id accepted")
	}
}

func bankGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := datagen.BankGraph(datagen.BankConfig{
		NumAccounts: 500, NumTransfers: 1500, Seed: 9, RiskFraction: 0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCase6AgainstOracle(t *testing.T) {
	g := bankGraph(t)
	e := New(g, Options{})
	for _, kmax := range []int{2, 4} {
		got, _, err := e.Case6(kmax)
		if err != nil {
			t.Fatal(err)
		}
		d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Forward, Type: pattern.Any,
			EdgeLabels: []string{"transfer"}}
		want := matchOracle(g, "RISKA", "RISKA", "", d)
		if got != want {
			t.Errorf("Case6(kmax=%d) = %d, want %d", kmax, got, want)
		}
	}
}

func TestCase7AgainstOracle(t *testing.T) {
	g := bankGraph(t)
	e := New(g, Options{})
	got, _, err := e.Case7(1042, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := g.FindByInt64("id", 1042)
	reach := reachWalk(g, v, []string{"transfer"}, graph.Forward, 1, 3)
	delete(reach, int(v)) // bijection: b != a
	var want []graph.VertexID
	for w := range reach {
		want = append(want, graph.VertexID(w))
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Case7 = %v, want %v", got, want)
	}
}

func financialGraph(t testing.TB) (*graph.Graph, *datagen.FinLayout) {
	t.Helper()
	g, lay, err := datagen.FinancialGraph(datagen.FinConfig{
		NumPersons: 60, NumAccounts: 250, NumLoans: 40, NumMediums: 50,
		NumTransfers: 900, NumWithdraws: 200, Seed: 21, BlockedFraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, lay
}

func TestCase8AgainstOracle(t *testing.T) {
	g, lay := financialGraph(t)
	e := New(g, Options{})
	ids := g.Prop("id").(graph.Int64Column)
	blocked := g.Prop("isBlocked").(graph.BoolColumn)
	start := lay.AccountLo + 3
	got, _, err := e.Case8(ids[start], 3)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: BFS distances over transfer, then signIn/blocked filter.
	signIn := g.Edges("signIn")
	isBlockedAccount := func(a int) bool {
		for _, m := range signIn.Neighbors(graph.VertexID(a), graph.Reverse) {
			if blocked[m] {
				return true
			}
		}
		return false
	}
	wantSet := map[int64]int{}
	for dist := 1; dist <= 3; dist++ {
		reach := reachWalk(g, start, []string{"transfer"}, graph.Forward, dist, dist)
		delete(reach, int(start)) // bijection: neighbor != start
		for a := range reach {
			if !isBlockedAccount(a) {
				continue
			}
			if cur, ok := wantSet[ids[a]]; !ok || dist < cur {
				wantSet[ids[a]] = dist
			}
		}
	}
	gotSet := map[int64]int{}
	for _, nd := range got {
		gotSet[nd.ID] = nd.Distance
	}
	if !reflect.DeepEqual(gotSet, wantSet) {
		t.Fatalf("Case8: got %d rows, want %d; got=%v want=%v", len(gotSet), len(wantSet), gotSet, wantSet)
	}
	// Sorted by distance then id.
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Fatal("Case8 not sorted by distance")
		}
	}
}

func TestCase9AgainstOracle(t *testing.T) {
	g, lay := financialGraph(t)
	e := New(g, Options{})
	ids := g.Prop("id").(graph.Int64Column)
	balances := g.Prop("balance").(graph.Float64Column)

	// Pick a person that owns at least one account.
	own := g.Edges("own")
	var person graph.VertexID
	for p := lay.PersonLo; p < lay.PersonHi; p++ {
		if len(own.Neighbors(p, graph.Forward)) > 0 {
			person = p
			break
		}
	}
	got, _, err := e.Case9(ids[person], 3)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle.
	deposit := g.Edges("deposit")
	others := map[int]bool{}
	ownedSet := map[int]bool{}
	for _, acct := range own.Neighbors(person, graph.Forward) {
		ownedSet[int(acct)] = true
	}
	for _, acct := range own.Neighbors(person, graph.Forward) {
		for w := range reachWalk(g, acct, []string{"transfer"}, graph.Reverse, 1, 3) {
			if !ownedSet[w] {
				others[w] = true
			}
		}
	}
	want := map[int64]LoanAgg{}
	for other := range others {
		loans := deposit.Neighbors(graph.VertexID(other), graph.Reverse)
		if len(loans) == 0 {
			continue
		}
		agg := LoanAgg{OtherID: ids[other]}
		seen := map[graph.VertexID]bool{}
		for _, l := range loans {
			if !seen[l] {
				seen[l] = true
				agg.LoanCount++
				agg.BalanceSum += balances[l]
			}
		}
		want[agg.OtherID] = agg
	}
	if len(got) != len(want) {
		t.Fatalf("Case9 rows = %d, want %d", len(got), len(want))
	}
	for _, agg := range got {
		w := want[agg.OtherID]
		if agg.LoanCount != w.LoanCount || agg.BalanceSum != w.BalanceSum {
			t.Errorf("Case9 other %d = %+v, want %+v", agg.OtherID, agg, w)
		}
	}
}

func TestCase10ShortestPath(t *testing.T) {
	g, lay := financialGraph(t)
	e := New(g, Options{})
	ids := g.Prop("id").(graph.Int64Column)

	// Reference BFS for a handful of pairs.
	ref := func(a, b graph.VertexID) int {
		if a == b {
			return 0
		}
		dist := map[graph.VertexID]int{a: 0}
		queue := []graph.VertexID{a}
		tr := g.Edges("transfer")
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range tr.Neighbors(v, graph.Forward) {
				if _, ok := dist[w]; !ok {
					dist[w] = dist[v] + 1
					if w == b {
						return dist[w]
					}
					queue = append(queue, w)
				}
			}
		}
		return -1
	}
	for i := 0; i < 8; i++ {
		a := lay.AccountLo + graph.VertexID(i*13%250)
		b := lay.AccountLo + graph.VertexID(i*31%250)
		got, _, err := e.Case10(ids[a], ids[b])
		if err != nil {
			t.Fatal(err)
		}
		if want := ref(a, b); got != want {
			t.Errorf("Case10(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestCase11AgainstOracle(t *testing.T) {
	g, lay := financialGraph(t)
	e := New(g, Options{})
	ids := g.Prop("id").(graph.Int64Column)
	withdraw := g.Edges("withdraw")

	// Pick an account with withdraw in-edges.
	var a graph.VertexID
	for v := lay.AccountLo; v < lay.AccountHi; v++ {
		if len(withdraw.Neighbors(v, graph.Reverse)) > 0 {
			a = v
			break
		}
	}
	got, _, err := e.Case11(ids[a])
	if err != nil {
		t.Fatal(err)
	}
	transfer := g.Edges("transfer")
	want := map[MidOther]bool{}
	for _, mid := range withdraw.Neighbors(a, graph.Reverse) {
		for _, other := range transfer.Neighbors(mid, graph.Reverse) {
			want[MidOther{ids[mid], ids[other]}] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Case11 rows = %d, want %d", len(got), len(want))
	}
	for _, row := range got {
		if !want[row] {
			t.Errorf("unexpected row %+v", row)
		}
	}
}

func TestCase12AgainstOracle(t *testing.T) {
	g, lay := financialGraph(t)
	e := New(g, Options{})
	ids := g.Prop("id").(graph.Int64Column)
	loan := lay.LoanLo + 2
	got, _, err := e.Case12(ids[loan], 3)
	if err != nil {
		t.Fatal(err)
	}
	deposit := g.Edges("deposit")
	src := deposit.Neighbors(loan, graph.Forward)[0]
	want := map[int64]int{}
	for dist := 1; dist <= 3; dist++ {
		for w := range reachWalk(g, src, []string{"transfer", "withdraw"}, graph.Forward, dist, dist) {
			if w == int(src) {
				continue // bijection: other != src
			}
			if cur, ok := want[ids[w]]; !ok || dist < cur {
				want[ids[w]] = dist
			}
		}
	}
	gotMap := map[int64]int{}
	for _, nd := range got {
		gotMap[nd.ID] = nd.Distance
	}
	if !reflect.DeepEqual(gotMap, want) {
		t.Fatalf("Case12 mismatch: got %d rows, want %d", len(gotMap), len(want))
	}
}

func TestMatchCountOnlyEqualsMaterialized(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	d := knowsDet(1, 2)
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
			{Name: "c", Labels: []string{"SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "a", Dst: "c", D: d},
		},
	}
	full, err := e.Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	count, err := e.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Count != count.Count || int64(len(full.Tuples)) != full.Count {
		t.Fatalf("count-only %d vs materialized %d (%d tuples)", count.Count, full.Count, len(full.Tuples))
	}
	if count.Tuples != nil {
		t.Fatal("count-only returned tuples")
	}
}

func TestMatchParallelEdgesAreANDed(t *testing.T) {
	// Two determiners between the same endpoints: *1..3 AND *1..1 must
	// behave like the tighter *1..1 plus the looser constraint.
	g := figure3(t)
	e := New(g, Options{})
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", Labels: []string{"SIGA"}},
			{Name: "q", Labels: []string{"SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "p", Dst: "q", D: knowsDet(1, 3)},
			{Src: "p", Dst: "q", D: knowsDet(1, 1)},
		},
	}
	res, err := e.Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Direct knows edges between SIGA {0,1} and SIGC {3,4}: none.
	if res.Count != 0 {
		t.Fatalf("ANDed parallel edges: count = %d, want 0 (%v)", res.Count, res.Tuples)
	}

	pat.Edges[1].D = knowsDet(2, 2)
	res, err = e.Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pairs within ≤3 and exactly-2 walks: 1–3 (1-2-3) and 1–4 (1-2-4).
	want := [][]graph.VertexID{{1, 3}, {1, 4}}
	got := res.Tuples
	sort.Slice(got, func(i, j int) bool { return got[i][1] < got[j][1] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
}

// TestJoinClonesReleasedAfterQuery: two expansions on one position pair make
// Assemble clone the shared (here: cached) matrix before AND-ing it
// (copy-on-AND), and the clone's bytes are reserved on the engine's budget.
// Both wrappers must hand them back, so after each query the memory in use,
// less what the matrix cache keeps resident, is back at its pre-query value.
func TestJoinClonesReleasedAfterQuery(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{CacheBytes: DefaultCacheBytes})
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", Labels: []string{"SIGA"}},
			{Name: "q", Labels: []string{"SIGB"}},
		},
		Edges: []pattern.Edge{
			{Src: "p", Dst: "q", D: knowsDet(1, 3)},
			{Src: "p", Dst: "q", D: knowsDet(1, 2)},
		},
	}
	uncached := func() int64 {
		_, cacheBytes := e.CacheStats()
		return e.MemoryInUse() - cacheBytes
	}
	runs := []struct {
		name string
		run  func() error
	}{
		{"MatchContext", func() error {
			_, err := e.MatchContext(context.Background(), pat, MatchOptions{})
			return err
		}},
		{"MatchForEachOpts", func() error {
			return e.MatchForEachOpts(context.Background(), pat, MatchOptions{}, func([]graph.VertexID) {})
		}},
	}
	// Twice round: the first pass expands and fills the cache, the second
	// clones cached matrices.
	for pass := 0; pass < 2; pass++ {
		for _, r := range runs {
			before := uncached()
			if err := r.run(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			if after := uncached(); after != before {
				t.Fatalf("pass %d, %s: memory in use outside the cache %d → %d bytes; the join's clones were not released",
					pass, r.name, before, after)
			}
		}
	}
}

func TestSingleVertexMatch(t *testing.T) {
	g := figure3(t)
	e := New(g, Options{})
	pat := &pattern.Pattern{Vertices: []pattern.Vertex{{Name: "p", Labels: []string{"SIGC"}}}}
	res, err := e.Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || len(res.Tuples) != 2 {
		t.Fatalf("single vertex match = %d", res.Count)
	}
}

func TestSemiJoinTargets(t *testing.T) {
	g, lay := financialGraph(t)
	e := New(g, Options{})
	mediums := g.Label("Medium")
	targets, err := e.SemiJoinTargets("signIn", mediums, graph.Forward)
	if err != nil {
		t.Fatal(err)
	}
	targets.ForEach(func(v int) {
		if !g.HasLabel(graph.VertexID(v), "Account") {
			t.Fatalf("signIn target %d is not an account", v)
		}
	})
	if targets.PopCount() == 0 {
		t.Fatal("no signIn targets")
	}
	_ = lay
	if _, err := e.SemiJoinTargets("nope", mediums, graph.Forward); err == nil {
		t.Fatal("unknown edge label accepted")
	}
}

func TestTopK(t *testing.T) {
	groups := []GroupCount{{1, 5}, {2, 9}, {3, 5}, {4, 1}}
	desc := TopK(append([]GroupCount(nil), groups...), 2, true)
	if !reflect.DeepEqual(desc, []GroupCount{{2, 9}, {1, 5}}) {
		t.Fatalf("desc TopK = %v", desc)
	}
	asc := TopK(append([]GroupCount(nil), groups...), 3, false)
	if !reflect.DeepEqual(asc, []GroupCount{{4, 1}, {1, 5}, {3, 5}}) {
		t.Fatalf("asc TopK = %v", asc)
	}
	all := TopK(append([]GroupCount(nil), groups...), 0, true)
	if len(all) != 4 {
		t.Fatalf("k=0 truncated to %d", len(all))
	}
}

func TestShortestPathLengthEdgeCases(t *testing.T) {
	g := figure3(t)
	e := New(g, Options{})
	ctx := context.Background()
	knows := []string{"knows"}
	if l, err := e.ShortestPathLength(ctx, 2, 2, knows, graph.Forward, pattern.Unbounded); err != nil || l != 0 {
		t.Fatalf("self path = %d, %v", l, err)
	}
	if l, err := e.ShortestPathLength(ctx, 5, 0, knows, graph.Forward, pattern.Unbounded); err != nil || l != -1 {
		t.Fatalf("unreachable = %d, %v", l, err)
	}
	if l, err := e.ShortestPathLength(ctx, 0, 5, knows, graph.Forward, pattern.Unbounded); err != nil || l != 4 {
		t.Fatalf("0→5 = %d, %v", l, err)
	}
	if l, err := e.ShortestPathLength(ctx, 0, 5, knows, graph.Forward, 4); err != nil || l != 4 {
		t.Fatalf("0→5 within 4 = %d, %v", l, err)
	}
	if l, err := e.ShortestPathLength(ctx, 0, 5, knows, graph.Forward, 3); err != nil || l != -1 {
		t.Fatalf("0→5 within 3 = %d, %v, want -1", l, err)
	}
	if _, err := e.ShortestPathLength(ctx, 0, 5, []string{"nope"}, graph.Forward, pattern.Unbounded); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestTimingsAddAndOther(t *testing.T) {
	a := Timings{Scan: 1, Expand: 2, UpdateVisit: 3, Intersect: 4, Aggregate: 5, Total: 20}
	b := a
	a.Add(b)
	if a.Total != 40 || a.Scan != 2 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if got := b.Other(); got != 5 {
		t.Fatalf("Other = %d, want 5", got)
	}
	neg := Timings{Total: 1, Scan: 5}
	if neg.Other() != 0 {
		t.Fatal("Other should clamp at 0")
	}
}

// TestForcedOrderMatchesPlanner pins that a forced join order changes the
// execution but never the result (the ablation behind the planner bench).
func TestForcedOrderMatchesPlanner(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	d := knowsDet(1, 2)
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
			{Name: "c", Labels: []string{"SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "a", Dst: "c", D: d},
		},
	}
	want, err := e.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		got, err := e.Match(pat, MatchOptions{CountOnly: true, Order: order})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if got.Count != want.Count {
			t.Errorf("order %v: count %d, want %d", order, got.Count, want.Count)
		}
	}
	if _, err := e.Match(pat, MatchOptions{Order: []int{0, 0, 1}}); err == nil {
		t.Error("bad order accepted")
	}
}

// TestExpansionMemoSharesSymmetricEdges pins the §2.3.2 symmetry reuse:
// the community triangle's b–c and a–c edges both expand from c under the
// same determiner, so only two expansions run, not three.
func TestExpansionMemoSharesSymmetricEdges(t *testing.T) {
	g := socialGraph(t)
	e := New(g, Options{})
	d := knowsDet(1, 2)
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
			{Name: "c", Labels: []string{"SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "a", Dst: "c", D: d},
		},
	}
	res, err := e.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct expansions × kmax steps each.
	if res.ExpandStats.Steps != 2*2 {
		t.Fatalf("Steps = %d, want 4 (two shared expansions of 2 steps)", res.ExpandStats.Steps)
	}

	// With mixed determiners sharing depends on the planner's order, but
	// the answer must stay correct: verify against brute force.
	pat.Edges[2].D = knowsDet(1, 1)
	res, err = e.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceMatch(t, g, pat)
	if res.Count != int64(len(want)) {
		t.Fatalf("mixed-determiner count = %d, brute force %d", res.Count, len(want))
	}
}

// TestWorkersDeterminism pins that multi-worker execution (expand stacks,
// and MIntersect seed partitions when counting) returns identical results
// to single-worker.
func TestWorkersDeterminism(t *testing.T) {
	g := socialGraph(t)
	d := knowsDet(1, 2)
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"SIGA"}},
			{Name: "b", Labels: []string{"SIGB"}},
			{Name: "c", Labels: []string{"SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "a", Dst: "c", D: d},
		},
	}
	e1 := New(g, Options{Workers: 1})
	e4 := New(g, Options{Workers: 4})
	r1, err := e1.Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := e4.Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count != r4.Count {
		t.Fatalf("counts differ: %d vs %d", r1.Count, r4.Count)
	}
	c1, err := e1.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	c4, err := e4.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Count != r1.Count || c4.Count != r1.Count {
		t.Fatalf("counted %d (1 worker) and %d (4 workers), enumerated %d", c1.Count, c4.Count, r1.Count)
	}
	sortTuples(r1.Tuples)
	sortTuples(r4.Tuples)
	if !reflect.DeepEqual(r1.Tuples, r4.Tuples) {
		t.Fatal("tuples differ across worker counts")
	}
	// Cases too (group counts use column popcounts, not MIntersect).
	g2a, _, err := e1.Case2(2, 50)
	if err != nil {
		t.Fatal(err)
	}
	g2b, _, err := e4.Case2(2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g2a, g2b) {
		t.Fatal("Case2 differs across worker counts")
	}
}

// TestMatchForEachStreamsSameTuples pins the engine's two entries against
// each other: MatchContext and MatchEach are one execution path, so
// across worker counts, cache settings and join orders they return the
// same multiset of tuples.
func TestMatchForEachStreamsSameTuples(t *testing.T) {
	g := socialGraph(t)
	pat := trianglePattern(2)
	ref, err := New(g, Options{}).Match(pat, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sortTuples(ref.Tuples)

	shapes := []struct {
		name string
		opts MatchOptions
	}{
		{"default order", MatchOptions{}},
		{"forced order", MatchOptions{Order: []int{2, 0, 1}}},
	}
	for _, workers := range []int{1, 4} {
		for _, cacheBytes := range []int64{0, DefaultCacheBytes} {
			e := New(g, Options{Workers: workers, CacheBytes: cacheBytes})
			for _, shape := range shapes {
				name := fmt.Sprintf("workers=%d/cache=%d/%s", workers, cacheBytes, shape.name)
				full, err := e.MatchContext(context.Background(), pat, shape.opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var streamed [][]graph.VertexID
				err = e.MatchForEachOpts(context.Background(), pat, shape.opts, func(tuple []graph.VertexID) {
					streamed = append(streamed, append([]graph.VertexID(nil), tuple...))
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sortTuples(full.Tuples)
				sortTuples(streamed)
				if !reflect.DeepEqual(full.Tuples, ref.Tuples) || !reflect.DeepEqual(streamed, ref.Tuples) {
					t.Fatalf("%s: materialized %d tuples, streamed %d, want %d identical",
						name, len(full.Tuples), len(streamed), len(ref.Tuples))
				}
			}
		}
	}

	e := New(g, Options{})
	// Single-vertex streaming.
	single := &pattern.Pattern{Vertices: []pattern.Vertex{{Name: "p", Labels: []string{"SIGB"}}}}
	count := 0
	if err := e.MatchForEachOpts(context.Background(), single, MatchOptions{}, func([]graph.VertexID) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != g.Label("SIGB").PopCount() {
		t.Fatalf("single-vertex streamed %d, want %d", count, g.Label("SIGB").PopCount())
	}

	// Errors propagate.
	bad := &pattern.Pattern{Vertices: []pattern.Vertex{{Name: "p", Labels: []string{"NoSuch"}}}}
	if err := e.MatchForEachOpts(context.Background(), bad, MatchOptions{}, func([]graph.VertexID) {}); err == nil {
		t.Fatal("unknown label accepted")
	}
}

// TestMatchEachStops pins MatchEach's stop: once fn returns false the match
// ends without an error, fn is not called again, and the result counts the
// tuples fn received and still carries the plan and the stage timings.
func TestMatchEachStops(t *testing.T) {
	e := New(socialGraph(t), Options{})
	single := &pattern.Pattern{Vertices: []pattern.Vertex{{Name: "p", Labels: []string{"SIGB"}}}}
	for _, pat := range []*pattern.Pattern{single, trianglePattern(2)} {
		full, err := e.MatchContext(context.Background(), pat, MatchOptions{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		const stopAt = 3
		if full.Count <= stopAt {
			t.Fatalf("%d matches, too few to stop early", full.Count)
		}
		calls := 0
		res, err := e.MatchEach(context.Background(), pat, MatchOptions{}, func([]graph.VertexID) bool {
			calls++
			return calls < stopAt
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != stopAt || res.Count != stopAt {
			t.Errorf("%d vertices: fn called %d times, Count %d, want %d", len(pat.Vertices), calls, res.Count, stopAt)
		}
		if res.Plan == nil || res.Timings.Scan <= 0 || res.Timings.Total <= 0 {
			t.Errorf("%d vertices: stopped match lost its plan or timings: %+v", len(pat.Vertices), res.Timings)
		}
		if len(pat.Vertices) > 1 && res.Timings.Expand <= 0 {
			t.Errorf("stopped join reports no expand time")
		}
	}
}

// TestExpandContextUnderBudget pins that a direct expansion — DB.Expand,
// and the per-step expansion behind a Cypher length() — reserves its
// matrices against the engine's memory budget: a budget smaller than one
// matrix fails it with the budget error and leaves nothing reserved.
func TestExpandContextUnderBudget(t *testing.T) {
	g := figure3(t)
	sources := []graph.VertexID{0, 1}
	e := New(g, Options{MemoryBudget: 64})
	if _, err := e.ExpandContext(context.Background(), sources, knowsDet(1, 2), true); !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Fatalf("expansion under a 64-byte budget: err = %v, want %v", err, exec.ErrBudgetExceeded)
	}
	if n := e.MemoryInUse(); n != 0 {
		t.Fatalf("%d bytes still reserved after the failed expansion", n)
	}
	if _, err := New(g, Options{}).ExpandContext(context.Background(), sources, knowsDet(1, 2), true); err != nil {
		t.Fatalf("unbudgeted expansion: %v", err)
	}
}
