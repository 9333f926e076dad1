// Package planner implements VertexSurge's rule-based query planner (§5.2).
//
// The planner's core principle is minimizing intermediate result size. It
// scans vertex candidates per pattern vertex from the filters, estimates
// each VLP edge's pair count from candidate counts, kmax, and average
// degree, then orders pattern vertices: the first vertex is an endpoint of
// the smallest-estimate edge, and each subsequent vertex minimizes the
// total estimated size of the VLP pairs connecting it to the already
// matched prefix. Every pattern edge is oriented so that VExpand starts
// from the vertex that joins the order later, which is the orientation
// MIntersect consumes.
package planner

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// PlannedEdge is a pattern edge annotated with its join-order role.
type PlannedEdge struct {
	// PatternEdge indexes into the pattern's Edges.
	PatternEdge int
	// EarlierPos and LaterPos are join-order positions of the endpoints.
	EarlierPos, LaterPos int
	// ExpandFrom is the pattern-vertex index whose candidates seed the
	// VExpand for this edge (the later endpoint).
	ExpandFrom int
	// D is the determiner oriented for expansion from ExpandFrom: the
	// original when ExpandFrom is the edge source, the reverse otherwise.
	D pattern.Determiner
	// EstPairs is the planner's pair-count estimate for diagnostics.
	EstPairs float64
}

// Plan is the physical plan for a VLGPM query's matching phase.
type Plan struct {
	// Order maps join position → pattern-vertex index.
	Order []int
	// PosOf maps pattern-vertex index → join position.
	PosOf []int
	// CandList holds the scan result per pattern-vertex index: the matching
	// graph vertices in strictly ascending order (VExpand's rows and
	// MIntersect's merge rely on it). A list may be the graph's shared
	// per-label list (Graph.LabelVertices), so it is read-only.
	CandList [][]graph.VertexID
	// Edges lists every pattern edge annotated; the edge whose endpoints
	// are positions 0 and 1 comes first.
	Edges []PlannedEdge
}

// ExpandKey identifies the edge's expansion computation within one plan:
// two planned edges with equal keys expand the same candidate set under
// the same determiner and share one reachability matrix — the pattern-
// symmetry optimization of §2.3.2. Every determiner field is spelled out
// (Determiner.String omits EdgePropEq; fmt prints maps in sorted key
// order).
func (pe *PlannedEdge) ExpandKey() string {
	return fmt.Sprintf("%d|%d|%d|%d|%d|%v|%v",
		pe.ExpandFrom, pe.D.KMin, pe.D.KMax, pe.D.Dir, pe.D.Type, pe.D.EdgeLabels, pe.D.EdgePropEq)
}

// OpSpec describes one distinct expansion of the plan.
type OpSpec struct {
	// Kind is "expand", the only operator kind a plan lists.
	Kind string
	// Edges lists the planned-edge indices the expansion serves; the first
	// entry is the representative whose expansion actually runs.
	Edges []int
}

// Operators lists the plan's distinct expansions: one per distinct
// ExpandKey, in plan-edge order, with edges sharing a key collapsed into one
// (the §2.3.2 symmetry memo). No expansion reads another's output, so the
// engine may run them concurrently; the join that consumes them all is not
// listed.
func (p *Plan) Operators() []OpSpec {
	var ops []OpSpec
	byKey := make(map[string]int, len(p.Edges))
	for ei := range p.Edges {
		k := p.Edges[ei].ExpandKey()
		if oi, ok := byKey[k]; ok {
			ops[oi].Edges = append(ops[oi].Edges, ei)
			continue
		}
		byKey[k] = len(ops)
		ops = append(ops, OpSpec{Kind: "expand", Edges: []int{ei}})
	}
	return ops
}

// Build scans candidates and produces a plan for pat on g. The pattern
// must be valid and connected.
func Build(g *graph.Graph, pat *pattern.Pattern) (*Plan, error) {
	return build(g, pat, nil)
}

// BuildOrdered is Build with a forced join order (order[t] = pattern
// vertex index at position t). It exists for planner ablation: comparing a
// forced order against Build's choice isolates the planner's contribution.
// The order must be a permutation whose every position ≥ 1 connects to an
// earlier one.
func BuildOrdered(g *graph.Graph, pat *pattern.Pattern, order []int) (*Plan, error) {
	if order == nil {
		return nil, fmt.Errorf("planner: BuildOrdered requires an order")
	}
	return build(g, pat, order)
}

func build(g *graph.Graph, pat *pattern.Pattern, forced []int) (*Plan, error) {
	if err := pat.Validate(); err != nil {
		return nil, err
	}
	n := len(pat.Vertices)
	if forced != nil {
		if len(forced) != n {
			return nil, fmt.Errorf("planner: forced order has %d entries, want %d", len(forced), n)
		}
		seen := make([]bool, n)
		for _, v := range forced {
			if v < 0 || v >= n || seen[v] {
				return nil, fmt.Errorf("planner: forced order %v is not a permutation", forced)
			}
			seen[v] = true
		}
	}
	plan := &Plan{
		Order:    make([]int, 0, n),
		PosOf:    make([]int, n),
		CandList: make([][]graph.VertexID, n),
	}
	for i := range plan.PosOf {
		plan.PosOf[i] = -1
	}

	// Step 1: scan vertices based on filters (candidate sets and sizes).
	sizes := make([]float64, n)
	for i, v := range pat.Vertices {
		list, err := candidateList(g, v)
		if err != nil {
			return nil, err
		}
		plan.CandList[i] = list
		sizes[i] = float64(len(list))
	}

	if n == 1 {
		plan.Order = []int{0}
		plan.PosOf[0] = 0
		return plan, nil
	}

	// Step 2: estimate VLP pair sizes per edge.
	est := make([]float64, len(pat.Edges))
	for ei, e := range pat.Edges {
		est[ei] = estimatePairs(g, pat, e, sizes)
	}

	// Step 3: vertex order. Seed with the smaller endpoint of the
	// smallest-estimate edge, then greedily add the vertex minimizing the
	// total estimate of edges connecting it to the matched prefix.
	adj := make(map[int][]int, n) // vertex idx -> edge indices
	for ei, e := range pat.Edges {
		s, d := pat.VertexIndex(e.Src), pat.VertexIndex(e.Dst)
		adj[s] = append(adj[s], ei)
		adj[d] = append(adj[d], ei)
	}
	if forced != nil {
		for pos, v := range forced {
			plan.PosOf[v] = pos
			plan.Order = append(plan.Order, v)
		}
		return finishPlan(pat, plan, est)
	}
	bestEdge := 0
	for ei := range est {
		if est[ei] < est[bestEdge] {
			bestEdge = ei
		}
	}
	s0 := pat.VertexIndex(pat.Edges[bestEdge].Src)
	d0 := pat.VertexIndex(pat.Edges[bestEdge].Dst)
	// Expansion always runs from the later seed position (the matrix-row
	// side), so the smaller endpoint goes second: "beginning the
	// expansion from the smaller side" (§5.2).
	first, second := s0, d0
	if sizes[d0] > sizes[s0] {
		first, second = d0, s0
	}
	place := func(v int) {
		plan.PosOf[v] = len(plan.Order)
		plan.Order = append(plan.Order, v)
	}
	place(first)
	place(second)
	for len(plan.Order) < n {
		bestV, bestCost := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if plan.PosOf[v] >= 0 {
				continue
			}
			cost, connected := 0.0, false
			for _, ei := range adj[v] {
				other := otherEndpoint(pat, ei, v)
				if plan.PosOf[other] >= 0 {
					connected = true
					cost += est[ei]
				}
			}
			if connected && cost < bestCost {
				bestV, bestCost = v, cost
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("planner: pattern is disconnected")
		}
		place(bestV)
	}

	return finishPlan(pat, plan, est)
}

// candidateList scans one pattern vertex. A vertex constrained by exactly one
// label takes the graph's shared list for it, so `(q:SIGB)` costs no
// per-query allocation; anything else is evaluated by pattern.Candidates and
// listed once.
func candidateList(g *graph.Graph, v pattern.Vertex) ([]graph.VertexID, error) {
	if len(v.Labels) == 1 && len(v.NotLabels) == 0 && len(v.PropEq) == 0 && len(v.PropCmp) == 0 {
		if list := g.LabelVertices(v.Labels[0]); list != nil {
			return list, nil
		}
	}
	bm, err := pattern.Candidates(g, v)
	if err != nil {
		return nil, err
	}
	list := make([]graph.VertexID, 0, bm.PopCount())
	bm.ForEach(func(x int) { list = append(list, graph.VertexID(x)) })
	return list, nil
}

// finishPlan orients every edge for expansion from its later endpoint and
// moves the seed edge (positions 0 and 1) to the front.
func finishPlan(pat *pattern.Pattern, plan *Plan, est []float64) (*Plan, error) {
	for ei, e := range pat.Edges {
		s, d := pat.VertexIndex(e.Src), pat.VertexIndex(e.Dst)
		ps, pd := plan.PosOf[s], plan.PosOf[d]
		pe := PlannedEdge{PatternEdge: ei, EstPairs: est[ei]}
		if ps < pd {
			pe.EarlierPos, pe.LaterPos = ps, pd
			pe.ExpandFrom = d
			pe.D = e.D.Reverse()
		} else {
			pe.EarlierPos, pe.LaterPos = pd, ps
			pe.ExpandFrom = s
			pe.D = e.D
		}
		plan.Edges = append(plan.Edges, pe)
	}
	// The seed edge (positions 0 and 1) leads.
	for i, pe := range plan.Edges {
		if pe.EarlierPos == 0 && pe.LaterPos == 1 {
			plan.Edges[0], plan.Edges[i] = plan.Edges[i], plan.Edges[0]
			break
		}
	}
	if plan.Edges[0].EarlierPos != 0 || plan.Edges[0].LaterPos != 1 {
		return nil, fmt.Errorf("planner: no edge joins the first two ordered vertices")
	}
	// Connectivity of the (possibly forced) order: every position ≥ 2
	// needs a connecting edge to an earlier position.
	covered := make([]bool, len(plan.Order))
	for _, pe := range plan.Edges {
		covered[pe.LaterPos] = true
	}
	for pos := 2; pos < len(plan.Order); pos++ {
		if !covered[pos] {
			return nil, fmt.Errorf("planner: position %d has no connecting edge (disconnected order)", pos)
		}
	}
	return plan, nil
}

func otherEndpoint(pat *pattern.Pattern, ei, v int) int {
	e := pat.Edges[ei]
	s, d := pat.VertexIndex(e.Src), pat.VertexIndex(e.Dst)
	if s == v {
		return d
	}
	return s
}

// estimatePairs estimates |{(u,v) : D(u,v)}| for a pattern edge: the
// smaller endpoint's candidate count times its expected kmax-hop
// neighborhood, capped by the Cartesian bound (§5.2: "by vertex count,
// kmax, and average degrees").
func estimatePairs(g *graph.Graph, pat *pattern.Pattern, e pattern.Edge, sizes []float64) float64 {
	s := sizes[pat.VertexIndex(e.Src)]
	d := sizes[pat.VertexIndex(e.Dst)]
	small, large := s, d
	if d < s {
		small, large = d, s
	}
	deg := g.AvgDegree(e.D.EdgeLabels)
	if e.D.Dir == graph.Both {
		deg *= 2
	}
	kmax := float64(e.D.KMax)
	if e.D.KMax == pattern.Unbounded {
		kmax = math.Log2(float64(g.NumVertices()) + 2)
	}
	reach := math.Min(math.Pow(deg+1, kmax), float64(g.NumVertices()))
	frac := reach / math.Max(1, float64(g.NumVertices()))
	return small * math.Max(1, large*frac)
}
