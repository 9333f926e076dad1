package baseline

import (
	"fmt"
	"sort"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// JoinCases implements the twelve evaluation queries the way a join-based
// graph database executes them (§2.3.1): variable-length paths enumerated
// as flat tuples, in-neighbors found by scanning whole edge lists (the
// paper attributes TigerGraph/Kuzu's Case 11 timeout to the absence of
// reverse edges), and DISTINCT applied at the end.
type JoinCases struct {
	g      *graph.Graph
	j      *JoinEngine
	budget int64
}

// NewJoinCases runs the cases on g under a flat-tuple budget (0 means
// DefaultBudget).
func NewJoinCases(g *graph.Graph, budget int64) *JoinCases {
	j := NewJoinEngine(g)
	j.Budget = budget
	if budget == 0 {
		budget = DefaultBudget
	}
	return &JoinCases{g: g, j: j, budget: budget}
}

// flatReachDist enumerates walks with flat tuples, recording the first step
// at which each vertex appears (its minimal walk length). It reproduces
// the duplicate-laden frontier a join plan materializes.
func (jc *JoinCases) flatReachDist(src graph.VertexID, labels []string, dir graph.Direction, kmax int) (map[graph.VertexID]int, error) {
	sets, err := jc.g.EdgeSets(labels)
	if err != nil {
		return nil, err
	}
	dist := map[graph.VertexID]int{}
	frontier := []graph.VertexID{src}
	var spent int64
	for step := 1; step <= kmax && len(frontier) > 0; step++ {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, es := range sets {
				for _, w := range es.Neighbors(v, dir) {
					spent++
					if spent > jc.budget {
						return nil, ErrBudgetExceeded
					}
					next = append(next, w)
				}
			}
		}
		for _, w := range next {
			if _, ok := dist[w]; !ok && w != src {
				dist[w] = step
			}
		}
		frontier = next
	}
	return dist, nil
}

// knowsDet is the social cases' undirected ANY determiner over knows.
func knowsDet(kmin, kmax int) pattern.Determiner {
	return pattern.Determiner{KMin: kmin, KMax: kmax, Dir: graph.Both, Type: pattern.Any,
		EdgeLabels: []string{"knows"}}
}

// Case1 through Case12 answer what engine.Engine's methods of the same
// names answer.
func (jc *JoinCases) Case1(kmax int) (int64, error) {
	siga := jc.g.LabelVertices("SIGA")
	n, _, err := jc.j.CountPairs(siga, siga, knowsDet(1, kmax))
	return n, err
}

// groupCounts is the join-engine version of Cases 2 and 3: expand from
// every p, then count distinct p per q in flat maps.
func (jc *JoinCases) groupCounts(kmax int, qLabel string, excludeSIGA bool, limit int, desc bool) ([]engine.GroupCount, error) {
	siga := jc.g.LabelVertices("SIGA")
	reach, _, err := jc.j.JoinExpand(siga, knowsDet(1, kmax))
	if err != nil {
		return nil, err
	}
	qBm := jc.g.Label(qLabel)
	sigaBm := jc.g.Label("SIGA")
	counts := map[graph.VertexID]int{}
	for i, p := range siga {
		for q := range reach[i] {
			if q == p || !qBm.Get(int(q)) {
				continue
			}
			if excludeSIGA && sigaBm.Get(int(q)) {
				continue
			}
			counts[q]++
		}
	}
	groups := make([]engine.GroupCount, 0, len(counts))
	for q, c := range counts {
		groups = append(groups, engine.GroupCount{Vertex: q, Count: c})
	}
	return engine.TopK(groups, limit, desc), nil
}

func (jc *JoinCases) Case2(kmax, limit int) ([]engine.GroupCount, error) {
	return jc.groupCounts(kmax, "Person", true, limit, true)
}

func (jc *JoinCases) Case3(kmax, limit int) ([]engine.GroupCount, error) {
	return jc.groupCounts(kmax, "SIGA", false, limit, false)
}

func (jc *JoinCases) Case4(kmax int) (int64, error) {
	d := knowsDet(1, kmax)
	n, _, err := jc.j.CountTriangle(
		jc.g.LabelVertices("SIGA"), jc.g.LabelVertices("SIGB"), jc.g.LabelVertices("SIGC"),
		d, d, d)
	return n, err
}

func (jc *JoinCases) Case5(ids []int64, kmax int) ([]engine.SourceCount, error) {
	sources := make([]graph.VertexID, 0, len(ids))
	for _, id := range ids {
		v, ok := jc.g.FindByInt64("id", id)
		if !ok {
			return nil, fmt.Errorf("baseline: no vertex with id %d", id)
		}
		sources = append(sources, v)
	}
	d := knowsDet(1, kmax)
	d.KMin = 2
	reach, _, err := jc.j.JoinExpand(sources, d)
	if err != nil {
		return nil, err
	}
	persons := jc.g.Label("Person")
	out := make([]engine.SourceCount, len(sources))
	for i, v := range sources {
		c := 0
		for q := range reach[i] {
			if q != v && persons.Get(int(q)) {
				c++
			}
		}
		out[i] = engine.SourceCount{ID: ids[i], Count: c}
	}
	return out, nil
}

func (jc *JoinCases) Case6(kmax int) (int64, error) {
	risk := jc.g.LabelVertices("RISKA")
	d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Forward, Type: pattern.Any,
		EdgeLabels: []string{"transfer"}}
	n, _, err := jc.j.CountPairs(risk, risk, d)
	return n, err
}

func (jc *JoinCases) Case7(accountID int64, kmax int) (int, error) {
	v, ok := jc.g.FindByInt64("id", accountID)
	if !ok {
		return 0, fmt.Errorf("baseline: no vertex with id %d", accountID)
	}
	dist, err := jc.flatReachDist(v, []string{"transfer"}, graph.Forward, kmax)
	if err != nil {
		return 0, err
	}
	accounts := jc.g.Label("Account")
	n := 0
	for w := range dist {
		if accounts.Get(int(w)) {
			n++
		}
	}
	return n, nil
}

func (jc *JoinCases) Case8(accountID int64, kmax int) ([]engine.NeighborDist, error) {
	v, ok := jc.g.FindByInt64("id", accountID)
	if !ok {
		return nil, fmt.Errorf("baseline: no vertex with id %d", accountID)
	}
	dist, err := jc.flatReachDist(v, []string{"transfer"}, graph.Forward, kmax)
	if err != nil {
		return nil, err
	}
	// Blocked-account set by scanning the whole signIn edge list (no
	// reverse index).
	blocked := jc.g.Prop("isBlocked").(graph.BoolColumn)
	signIn := jc.g.Edges("signIn")
	blockedAccount := map[graph.VertexID]bool{}
	for i := 0; i < signIn.Len(); i++ {
		m, a := signIn.Edge(i)
		if blocked[m] {
			blockedAccount[a] = true
		}
	}
	ids := jc.g.Prop("id").(graph.Int64Column)
	var out []engine.NeighborDist
	for w, d := range dist {
		if blockedAccount[w] {
			out = append(out, engine.NeighborDist{ID: ids[w], Distance: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

func (jc *JoinCases) Case9(personID int64, kmax int) ([]engine.LoanAgg, error) {
	p, ok := jc.g.FindByInt64("id", personID)
	if !ok {
		return nil, fmt.Errorf("baseline: no vertex with id %d", personID)
	}
	// Owned accounts by scanning the own edge list.
	own := jc.g.Edges("own")
	ownedSet := map[graph.VertexID]bool{}
	var owned []graph.VertexID
	for i := 0; i < own.Len(); i++ {
		s, a := own.Edge(i)
		if s == p {
			owned = append(owned, a)
			ownedSet[a] = true
		}
	}
	d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Reverse, Type: pattern.Any,
		EdgeLabels: []string{"transfer"}}
	reach, _, err := jc.j.JoinExpand(owned, d)
	if err != nil {
		return nil, err
	}
	others := map[graph.VertexID]bool{}
	for i := range owned {
		for w := range reach[i] {
			if !ownedSet[w] {
				others[w] = true
			}
		}
	}
	// Loans per other by scanning the deposit edge list.
	deposit := jc.g.Edges("deposit")
	loansOf := map[graph.VertexID][]graph.VertexID{}
	for i := 0; i < deposit.Len(); i++ {
		l, a := deposit.Edge(i)
		if others[a] {
			loansOf[a] = append(loansOf[a], l)
		}
	}
	ids := jc.g.Prop("id").(graph.Int64Column)
	balances := jc.g.Prop("balance").(graph.Float64Column)
	var out []engine.LoanAgg
	for other, loans := range loansOf {
		agg := engine.LoanAgg{OtherID: ids[other]}
		seen := map[graph.VertexID]bool{}
		for _, l := range loans {
			if !seen[l] {
				seen[l] = true
				agg.LoanCount++
				agg.BalanceSum += balances[l]
			}
		}
		out = append(out, agg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OtherID < out[j].OtherID })
	return out, nil
}

func (jc *JoinCases) Case10(id1, id2 int64) (int, error) {
	a, ok := jc.g.FindByInt64("id", id1)
	if !ok {
		return -1, fmt.Errorf("baseline: no vertex with id %d", id1)
	}
	b, ok := jc.g.FindByInt64("id", id2)
	if !ok {
		return -1, fmt.Errorf("baseline: no vertex with id %d", id2)
	}
	if a == b {
		return 0, nil
	}
	// Map-based BFS with flat frontiers: the join engine's shortest path.
	tr := jc.g.Edges("transfer")
	visited := map[graph.VertexID]bool{a: true}
	frontier := []graph.VertexID{a}
	var spent int64
	for depth := 1; len(frontier) > 0; depth++ {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, w := range tr.Neighbors(v, graph.Forward) {
				spent++
				if spent > jc.budget {
					return -1, ErrBudgetExceeded
				}
				if w == b {
					return depth, nil
				}
				if !visited[w] {
					visited[w] = true
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return -1, nil
}

func (jc *JoinCases) Case11(accountID int64) ([]engine.MidOther, error) {
	a, ok := jc.g.FindByInt64("id", accountID)
	if !ok {
		return nil, fmt.Errorf("baseline: no vertex with id %d", accountID)
	}
	// No reverse edges (§6.2.2's explanation for the baselines' Case 11
	// timeout): in-neighbors come from full edge-list scans.
	withdraw := jc.g.Edges("withdraw")
	transfer := jc.g.Edges("transfer")
	ids := jc.g.Prop("id").(graph.Int64Column)
	var spent int64
	var mids []graph.VertexID
	for i := 0; i < withdraw.Len(); i++ {
		spent++
		if spent > jc.budget {
			return nil, ErrBudgetExceeded
		}
		if s, d := withdraw.Edge(i); d == a {
			mids = append(mids, s)
		}
	}
	seen := map[engine.MidOther]bool{}
	var out []engine.MidOther
	for _, mid := range mids {
		for i := 0; i < transfer.Len(); i++ {
			spent++
			if spent > jc.budget {
				return nil, ErrBudgetExceeded
			}
			if s, d := transfer.Edge(i); d == mid {
				row := engine.MidOther{MidID: ids[mid], OtherID: ids[s]}
				if !seen[row] {
					seen[row] = true
					out = append(out, row)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MidID != out[j].MidID {
			return out[i].MidID < out[j].MidID
		}
		return out[i].OtherID < out[j].OtherID
	})
	return out, nil
}

func (jc *JoinCases) Case12(loanID int64, kmax int) ([]engine.NeighborDist, error) {
	loan, ok := jc.g.FindByInt64("id", loanID)
	if !ok {
		return nil, fmt.Errorf("baseline: no vertex with id %d", loanID)
	}
	deposit := jc.g.Edges("deposit")
	srcs := deposit.Neighbors(loan, graph.Forward)
	ids := jc.g.Prop("id").(graph.Int64Column)
	srcSet := map[graph.VertexID]bool{}
	for _, s := range srcs {
		srcSet[s] = true
	}
	best := map[graph.VertexID]int{}
	for _, s := range srcs {
		dist, err := jc.flatReachDist(s, []string{"transfer", "withdraw"}, graph.Forward, kmax)
		if err != nil {
			return nil, err
		}
		for w, d := range dist {
			if srcSet[w] {
				continue
			}
			if cur, ok := best[w]; !ok || d < cur {
				best[w] = d
			}
		}
	}
	out := make([]engine.NeighborDist, 0, len(best))
	for w, d := range best {
		out = append(out, engine.NeighborDist{ID: ids[w], Distance: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// CaseParams holds deterministic per-dataset query parameters, shared by
// the engine's canned cases, their Cypher texts and JoinCases.
type CaseParams struct {
	PersonIDs []int64 // Case 5 inputs
	AccountID int64   // Cases 7, 8, 11
	PersonID  int64   // Case 9
	LoanID    int64   // Case 12
	PairA     int64   // Case 10
	PairB     int64
}

// ParamsFor picks d's case parameters.
func ParamsFor(d *datagen.Dataset) CaseParams {
	g := d.Graph
	cp := CaseParams{}
	n := int64(g.NumVertices())
	for i := int64(0); i < 20 && i < n; i++ {
		cp.PersonIDs = append(cp.PersonIDs, 1000+i*7%n)
	}
	if d.Layout != nil {
		lay := d.Layout
		ids := g.Prop("id").(graph.Int64Column)
		cp.AccountID = ids[lay.AccountLo+graph.VertexID(int(lay.AccountHi-lay.AccountLo)/3)]
		cp.LoanID = ids[lay.LoanLo+graph.VertexID(int(lay.LoanHi-lay.LoanLo)/2)]
		cp.PairA = ids[lay.AccountLo+1]
		cp.PairB = ids[lay.AccountHi-2]
		// A person who owns at least one account.
		own := g.Edges("own")
		for p := lay.PersonLo; p < lay.PersonHi; p++ {
			if len(own.Neighbors(p, graph.Forward)) > 0 {
				cp.PersonID = ids[p]
				break
			}
		}
	} else {
		cp.AccountID = 1000 + n/3
		cp.PairA = 1000 + 1
		cp.PairB = 1000 + n - 2
	}
	return cp
}
