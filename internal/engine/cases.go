package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file implements the twelve evaluation queries of §6.2 as engine
// methods. Cases 1–5 are the social-network queries, cases 6–7 the bank
// transfer queries, and cases 8–12 the LDBC FinBench TCR queries. Each
// case takes the tunable k_max so Figure 7's sweep can vary it.

// knowsDet is the undirected knows determiner of the social cases.
func knowsDet(kmin, kmax int) pattern.Determiner {
	return pattern.Determiner{KMin: kmin, KMax: kmax, Dir: graph.Both, Type: pattern.Any,
		EdgeLabels: []string{"knows"}}
}

// Case1 — Community Cohesion Analysis:
// MATCH (p:SIGA)-[:knows*1..k]-(q:SIGA) RETURN COUNT(DISTINCT p,q).
func (e *Engine) Case1(kmax int) (int64, Timings, error) {
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "p", Labels: []string{"SIGA"}},
			{Name: "q", Labels: []string{"SIGA"}},
		},
		Edges: []pattern.Edge{{Src: "p", Dst: "q", D: knowsDet(1, kmax)}},
	}
	res, err := e.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		return 0, Timings{}, err
	}
	return res.Count, res.Timings, nil
}

// groupCountVLP expands the VLP from the p side and counts distinct p per q
// by column popcounts, excluding self-matches (bijection).
func (e *Engine) groupCountVLP(p, q pattern.Vertex, d pattern.Determiner, limit int, desc bool) ([]GroupCount, Timings, error) {
	var tm Timings
	start := time.Now()

	t0 := time.Now()
	pCands, err := pattern.Candidates(e.g, p)
	if err != nil {
		return nil, tm, err
	}
	qCands, err := pattern.Candidates(e.g, q)
	if err != nil {
		return nil, tm, err
	}
	pList := make([]graph.VertexID, 0, pCands.PopCount())
	pCands.ForEach(func(v int) { pList = append(pList, graph.VertexID(v)) })
	pRow := make(map[graph.VertexID]int, len(pList))
	for i, v := range pList {
		pRow[v] = i
	}
	tm.Scan = time.Since(t0)

	r, expandWall, err := e.timedExpand(pList, d, false)
	if err != nil {
		return nil, tm, err
	}
	tm.Expand = expandWall - r.Stats.UpdateVisitTime
	tm.UpdateVisit = r.Stats.UpdateVisitTime

	t1 := time.Now()
	groups := maskedColumnCounts(r.Reach, qCands)
	for i := range groups {
		// Bijection: a q that is also a p-candidate must not count its
		// own reachability bit.
		if row, ok := pRow[groups[i].Vertex]; ok && r.Reach.Get(row, int(groups[i].Vertex)) {
			groups[i].Count--
		}
	}
	kept := groups[:0]
	for _, gc := range groups {
		if gc.Count > 0 {
			kept = append(kept, gc)
		}
	}
	groups = TopK(kept, limit, desc)
	tm.Aggregate = time.Since(t1)
	tm.Total = time.Since(start)
	return groups, tm, nil
}

// Case2 — External Influence Identification:
// MATCH (p:SIGA)-[:knows*1..k]-(q:Person) WHERE NOT q:SIGA
// RETURN COUNT(DISTINCT p) AS c, q ORDER BY c DESC LIMIT 100.
func (e *Engine) Case2(kmax, limit int) ([]GroupCount, Timings, error) {
	return e.groupCountVLP(
		pattern.Vertex{Name: "p", Labels: []string{"SIGA"}},
		pattern.Vertex{Name: "q", Labels: []string{"Person"}, NotLabels: []string{"SIGA"}},
		knowsDet(1, kmax), limit, true)
}

// Case3 — Internal Community Dynamics:
// MATCH (p:SIGA)-[:knows*1..k]-(q:SIGA)
// RETURN COUNT(DISTINCT p) AS c, q ORDER BY c ASC LIMIT 100.
func (e *Engine) Case3(kmax, limit int) ([]GroupCount, Timings, error) {
	return e.groupCountVLP(
		pattern.Vertex{Name: "p", Labels: []string{"SIGA"}},
		pattern.Vertex{Name: "q", Labels: []string{"SIGA"}},
		knowsDet(1, kmax), limit, false)
}

// Case4 — Inter-Community Interaction (the community triangle of Figure 2a):
// MATCH (a:Person:SIGA)-[:knows*1..k]-(b:Person:SIGB),
//
//	(b)-[:knows*1..k]-(c:Person:SIGC), (a)-[:knows*1..k]-(c)
//
// RETURN COUNT(DISTINCT a,b,c).
func (e *Engine) Case4(kmax int) (int64, Timings, error) {
	d := knowsDet(1, kmax)
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"Person", "SIGA"}},
			{Name: "b", Labels: []string{"Person", "SIGB"}},
			{Name: "c", Labels: []string{"Person", "SIGC"}},
		},
		Edges: []pattern.Edge{
			{Src: "a", Dst: "b", D: d},
			{Src: "b", Dst: "c", D: d},
			{Src: "a", Dst: "c", D: d},
		},
	}
	res, err := e.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		return 0, Timings{}, err
	}
	return res.Count, res.Timings, nil
}

// SourceCount pairs an input id with its aggregate count (Case 5's rows).
type SourceCount struct {
	ID    int64
	Count int
}

// Case5 — Influence Assessment:
// UNWIND $person_ids AS pid MATCH (p:Person{id:pid})-[:knows*2..k]-(q:Person)
// RETURN pid, COUNT(DISTINCT q).
// The paper's graphs treat knows as undirected, so the traversal uses Both.
func (e *Engine) Case5(personIDs []int64, kmax int) ([]SourceCount, Timings, error) {
	var tm Timings
	start := time.Now()

	t0 := time.Now()
	sources := make([]graph.VertexID, 0, len(personIDs))
	for _, id := range personIDs {
		v, err := e.vertexByID(id)
		if err != nil {
			return nil, tm, err
		}
		sources = append(sources, v)
	}
	persons, err := e.labelBitmap("Person")
	if err != nil {
		return nil, tm, err
	}
	tm.Scan = time.Since(t0)

	r, expandWall, err := e.timedExpand(sources, knowsDet(2, kmax), false)
	if err != nil {
		return nil, tm, err
	}
	tm.Expand = expandWall - r.Stats.UpdateVisitTime
	tm.UpdateVisit = r.Stats.UpdateVisitTime

	t1 := time.Now()
	counts := maskedRowCounts(r.Reach, persons)
	out := make([]SourceCount, len(sources))
	for i, v := range sources {
		c := counts[i]
		if r.Reach.Get(i, int(v)) {
			c-- // bijection: q must differ from p
		}
		out[i] = SourceCount{ID: personIDs[i], Count: c}
	}
	tm.Aggregate = time.Since(t1)
	tm.Total = time.Since(start)
	return out, tm, nil
}

// Case6 — Cyclic Transaction Detection:
// MATCH (a:Account:RISKA)-[:transfer*1..k]->(b:Account:RISKA)
// WITH DISTINCT a,b RETURN COUNT(*).
func (e *Engine) Case6(kmax int) (int64, Timings, error) {
	d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Forward, Type: pattern.Any,
		EdgeLabels: []string{"transfer"}}
	pat := &pattern.Pattern{
		Vertices: []pattern.Vertex{
			{Name: "a", Labels: []string{"Account", "RISKA"}},
			{Name: "b", Labels: []string{"Account", "RISKA"}},
		},
		Edges: []pattern.Edge{{Src: "a", Dst: "b", D: d}},
	}
	res, err := e.Match(pat, MatchOptions{CountOnly: true})
	if err != nil {
		return 0, Timings{}, err
	}
	return res.Count, res.Timings, nil
}

// Case7 — Risk Account Connection Analysis:
// MATCH (a:Account{id:$rid})-[:transfer*1..k]->(b:Account)
// RETURN DISTINCT b.
func (e *Engine) Case7(accountID int64, kmax int) ([]graph.VertexID, Timings, error) {
	var tm Timings
	start := time.Now()
	src, err := e.vertexByID(accountID)
	if err != nil {
		return nil, tm, err
	}
	d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Forward, Type: pattern.Any,
		EdgeLabels: []string{"transfer"}}
	r, expandWall, err := e.timedExpand([]graph.VertexID{src}, d, false)
	if err != nil {
		return nil, tm, err
	}
	tm.Expand = expandWall
	t1 := time.Now()
	accounts, err := e.labelBitmap("Account")
	if err != nil {
		return nil, tm, err
	}
	var out []graph.VertexID
	for _, c := range r.Reach.RowBits(0) {
		// Bijection (Definition 3): b must differ from a even when a
		// cyclic walk returns to the start.
		if c != int(src) && accounts.Get(c) {
			out = append(out, graph.VertexID(c))
		}
	}
	tm.Aggregate = time.Since(t1)
	tm.Total = time.Since(start)
	return out, tm, nil
}

// NeighborDist pairs a result vertex id with its minimal path length
// (Cases 8 and 12 return `length(p)`).
type NeighborDist struct {
	ID       int64
	Distance int
}

// Case8 — TCR1, Blocked medium related accounts:
// MATCH p=(start:Account{id:$id})-[:transfer*1..k]->(neighbor:Account),
//
//	(neighbor)<-[:signIn]-(medium:Medium) WHERE medium.isBlocked = true
//
// RETURN neighbor, length(p).
func (e *Engine) Case8(accountID int64, kmax int) ([]NeighborDist, Timings, error) {
	var tm Timings
	start := time.Now()

	t0 := time.Now()
	src, err := e.vertexByID(accountID)
	if err != nil {
		return nil, tm, err
	}
	blockedMediums, err := pattern.Candidates(e.g, pattern.Vertex{
		Name: "medium", Labels: []string{"Medium"}, PropEq: map[string]any{"isBlocked": true}})
	if err != nil {
		return nil, tm, err
	}
	blockedAccounts, err := e.SemiJoinTargets("signIn", blockedMediums, graph.Forward)
	if err != nil {
		return nil, tm, err
	}
	tm.Scan = time.Since(t0)

	d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Forward, Type: pattern.Any,
		EdgeLabels: []string{"transfer"}}
	r, expandWall, err := e.timedExpand([]graph.VertexID{src}, d, true)
	if err != nil {
		return nil, tm, err
	}
	tm.Expand = expandWall

	t1 := time.Now()
	ids := e.g.Prop("id").(graph.Int64Column)
	var out []NeighborDist
	for _, c := range r.Reach.RowBits(0) {
		if c == int(src) || !blockedAccounts.Get(c) {
			continue // bijection: neighbor ≠ start
		}
		if dist, ok := r.MinLength(0, graph.VertexID(c)); ok {
			out = append(out, NeighborDist{ID: ids[c], Distance: dist})
		}
	}
	sortNeighborDists(out)
	tm.Aggregate = time.Since(t1)
	tm.Total = time.Since(start)
	return out, tm, nil
}

// LoanAgg is one Case 9 result row.
type LoanAgg struct {
	OtherID    int64
	BalanceSum float64
	LoanCount  int
}

// Case9 — TCR2, Fund gathered from the accounts applying loans:
// MATCH (person:Person{id:$id})-[:own]->(account:Account)
//
//	<-[:transfer*1..k]-(other:Account)<-[:deposit]-(loan:Loan)
//
// RETURN other.id, SUM(DISTINCT loan.balance), COUNT(DISTINCT loan).
func (e *Engine) Case9(personID int64, kmax int) ([]LoanAgg, Timings, error) {
	var tm Timings
	start := time.Now()

	t0 := time.Now()
	p, err := e.vertexByID(personID)
	if err != nil {
		return nil, tm, err
	}
	pBm := e.bitmapOf([]graph.VertexID{p})
	owned, err := e.SemiJoinTargets("own", pBm, graph.Forward)
	if err != nil {
		return nil, tm, err
	}
	ownedList := make([]graph.VertexID, 0, owned.PopCount())
	owned.ForEach(func(v int) { ownedList = append(ownedList, graph.VertexID(v)) })
	tm.Scan = time.Since(t0)

	d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Reverse, Type: pattern.Any,
		EdgeLabels: []string{"transfer"}}
	r, expandWall, err := e.timedExpand(ownedList, d, false)
	if err != nil {
		return nil, tm, err
	}
	tm.Expand = expandWall

	t1 := time.Now()
	// Union of others across all owned accounts, excluding the owned
	// accounts themselves (bijection: other ≠ account).
	others := map[int]bool{}
	for i := range ownedList {
		for _, c := range r.Reach.RowBits(i) {
			if !owned.Get(c) {
				others[c] = true
			}
		}
	}
	deposit := e.g.Edges("deposit")
	if deposit == nil {
		return nil, tm, fmt.Errorf("engine: graph has no deposit edges")
	}
	ids := e.g.Prop("id").(graph.Int64Column)
	balances, _ := e.g.Prop("balance").(graph.Float64Column)
	var out []LoanAgg
	for other := range others {
		loans := deposit.Neighbors(graph.VertexID(other), graph.Reverse)
		if len(loans) == 0 {
			continue
		}
		agg := LoanAgg{OtherID: ids[other]}
		seen := map[graph.VertexID]bool{}
		for _, l := range loans {
			if seen[l] {
				continue
			}
			seen[l] = true
			agg.LoanCount++
			if balances != nil {
				agg.BalanceSum += balances[l]
			}
		}
		out = append(out, agg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OtherID < out[j].OtherID })
	tm.Aggregate = time.Since(t1)
	tm.Total = time.Since(start)
	return out, tm, nil
}

// Case10 — TCR3, Shortest transfer path:
// MATCH (a{id:$id1}), (b{id:$id2}), p=shortestPath((a)-[:transfer*1..]->(b))
// RETURN length(p). Returns -1 when no path exists.
func (e *Engine) Case10(id1, id2 int64) (int, Timings, error) {
	var tm Timings
	start := time.Now()
	a, err := e.vertexByID(id1)
	if err != nil {
		return -1, tm, err
	}
	b, err := e.vertexByID(id2)
	if err != nil {
		return -1, tm, err
	}
	t0 := time.Now()
	l, err := e.ShortestPathLength(context.Background(), a, b, []string{"transfer"}, graph.Forward, pattern.Unbounded)
	tm.Expand = time.Since(t0)
	tm.Total = time.Since(start)
	return l, tm, err
}

// MidOther is one Case 11 result row.
type MidOther struct {
	MidID, OtherID int64
}

// Case11 — TCR6, Withdrawal after Many-to-One transfer:
// MATCH (a:Account{id:$id})<-[:withdraw]-(mid:Account)<-[:transfer]-(other:Account)
// RETURN mid.id, other.id.
func (e *Engine) Case11(accountID int64) ([]MidOther, Timings, error) {
	var tm Timings
	start := time.Now()
	a, err := e.vertexByID(accountID)
	if err != nil {
		return nil, tm, err
	}
	withdraw := e.g.Edges("withdraw")
	transfer := e.g.Edges("transfer")
	if withdraw == nil || transfer == nil {
		return nil, tm, fmt.Errorf("engine: graph lacks withdraw/transfer edges")
	}
	ids := e.g.Prop("id").(graph.Int64Column)
	t0 := time.Now()
	seen := map[MidOther]bool{}
	var out []MidOther
	for _, mid := range withdraw.Neighbors(a, graph.Reverse) {
		for _, other := range transfer.Neighbors(mid, graph.Reverse) {
			row := MidOther{MidID: ids[mid], OtherID: ids[other]}
			if !seen[row] {
				seen[row] = true
				out = append(out, row)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MidID != out[j].MidID {
			return out[i].MidID < out[j].MidID
		}
		return out[i].OtherID < out[j].OtherID
	})
	tm.Expand = time.Since(t0)
	tm.Total = time.Since(start)
	return out, tm, nil
}

// Case12 — TCR8, Transfer trace after loan applied:
// MATCH (loan:Loan{id:$id})-[:deposit]->(src:Account)
//
//	-[:transfer|withdraw*1..k]->(other:Account)
//
// RETURN DISTINCT other.id, length(p).
func (e *Engine) Case12(loanID int64, kmax int) ([]NeighborDist, Timings, error) {
	var tm Timings
	start := time.Now()

	t0 := time.Now()
	loan, err := e.vertexByID(loanID)
	if err != nil {
		return nil, tm, err
	}
	deposit := e.g.Edges("deposit")
	if deposit == nil {
		return nil, tm, fmt.Errorf("engine: graph has no deposit edges")
	}
	srcs := deposit.Neighbors(loan, graph.Forward)
	tm.Scan = time.Since(t0)

	d := pattern.Determiner{KMin: 1, KMax: kmax, Dir: graph.Forward, Type: pattern.Any,
		EdgeLabels: []string{"transfer", "withdraw"}}
	r, expandWall, err := e.timedExpand(srcs, d, true)
	if err != nil {
		return nil, tm, err
	}
	tm.Expand = expandWall

	t1 := time.Now()
	ids := e.g.Prop("id").(graph.Int64Column)
	srcSet := map[int]bool{}
	for _, s := range srcs {
		srcSet[int(s)] = true
	}
	best := map[int]int{} // vertex -> min distance across src rows
	for i := range srcs {
		for _, c := range r.Reach.RowBits(i) {
			if srcSet[c] {
				continue // bijection: other ≠ src
			}
			if dist, ok := r.MinLength(i, graph.VertexID(c)); ok {
				if cur, seen := best[c]; !seen || dist < cur {
					best[c] = dist
				}
			}
		}
	}
	out := make([]NeighborDist, 0, len(best))
	for v, dist := range best {
		out = append(out, NeighborDist{ID: ids[v], Distance: dist})
	}
	sortNeighborDists(out)
	tm.Aggregate = time.Since(t1)
	tm.Total = time.Since(start)
	return out, tm, nil
}

func sortNeighborDists(nd []NeighborDist) {
	sort.Slice(nd, func(i, j int) bool {
		if nd[i].Distance != nd[j].Distance {
			return nd[i].Distance < nd[j].Distance
		}
		return nd[i].ID < nd[j].ID
	})
}
