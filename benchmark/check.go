package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// oracleBudget raises baseline.JoinEngine's flat-tuple cap: the join
// engine enumerates every walk, and two sources three hops into the social
// graph already produce several million.
const oracleBudget = 400_000_000

// scan lists the vertices that satisfy v's labels and id constraints — the
// oracle's own candidate scan, independent of pattern.Candidates. It knows
// the constraints the workloads use (id =, >=, <) and no others.
func scan(g *graph.Graph, v pattern.Vertex) []graph.VertexID {
	ids := g.Prop("id").(graph.Int64Column)
	var out []graph.VertexID
vertices:
	for i := 0; i < g.NumVertices(); i++ {
		u := graph.VertexID(i)
		for _, l := range v.Labels {
			if !g.HasLabel(u, l) {
				continue vertices
			}
		}
		if want, ok := v.PropEq["id"]; ok && ids[i] != want.(int64) {
			continue
		}
		for _, f := range v.PropCmp {
			bound := f.Value.(int64)
			switch {
			case f.Prop != "id" || (f.Op != pattern.CmpGe && f.Op != pattern.CmpLt):
				panic(fmt.Sprintf("scan: unsupported constraint %s %v on %s", f.Prop, f.Op, v.Name))
			case f.Op == pattern.CmpGe && ids[i] < bound, f.Op == pattern.CmpLt && ids[i] >= bound:
				continue vertices
			}
		}
		out = append(out, u)
	}
	return out
}

// oracleAnswer computes what a client must observe for the workload's
// query at (lo, span), using the join-based baseline engine only.
func oracleAnswer(g *graph.Graph, w *workload, lo, span int64) (answer, error) {
	pat := w.pattern(lo, span)
	j := baseline.NewJoinEngine(g)
	j.Budget = oracleBudget
	cands := make([][]graph.VertexID, len(pat.Vertices))
	for i, v := range pat.Vertices {
		cands[i] = scan(g, v)
	}
	count := func(n int64, err error) (answer, error) {
		return answer{rows: 1, digest: mix(uint64(n))}, err
	}
	switch {
	case w.Count && len(pat.Edges) == 1:
		n, _, err := j.CountPairs(cands[0], cands[1], pat.Edges[0].D)
		return count(n, err)
	case w.Count:
		n, _, err := j.CountTriangle(cands[0], cands[1], cands[2], pat.Edges[0].D, pat.Edges[1].D, pat.Edges[2].D)
		return count(n, err)
	}
	// Row queries: one row per distinct (a, b), b ≠ a (matches are
	// bijections); point_lookup projects b alone.
	reach, _, err := j.JoinExpand(cands[0], pat.Edges[0].D)
	if err != nil {
		return answer{}, err
	}
	ids := g.Prop("id").(graph.Int64Column)
	isB := make(map[graph.VertexID]bool, len(cands[1]))
	for _, b := range cands[1] {
		isB[b] = true
	}
	var a answer
	for i, src := range cands[0] {
		for b := range reach[i] {
			if b == src || !isB[b] {
				continue
			}
			h := mix(uint64(ids[b]))
			if w.Span != 0 {
				h = mix(mix(uint64(ids[src])) + uint64(ids[b]))
			}
			a.rows++
			a.digest += h
		}
	}
	return a, nil
}

// checkOutput runs the workload's query at its reduced span through the
// whole client path and compares each reply with the baseline engine's,
// for up to eight parameter draws or about half a second of oracle time,
// whichever ends first.
func checkOutput(st *stack, w *workload, seed int64) (attempted, failed int, firstErr string) {
	conn, err := st.dial()
	if err != nil {
		return 1, 1, err.Error()
	}
	defer func() { _ = conn.Close() }() // GOODBYE is a courtesy; stack.close reaps the session
	span := w.CheckSpan
	gen := newParamGen(w, st.g.NumVertices(), seed, checkClient)
	deadline := time.Now().Add(500 * time.Millisecond)
	for attempted < 8 && (attempted == 0 || time.Now().Before(deadline)) {
		lo := gen.next()
		attempted++
		got, err := runQuery(conn, w, lo, span)
		if err == nil {
			var want answer
			if want, err = oracleAnswer(st.g, w, lo, span); err == nil && got != want {
				err = fmt.Errorf("%s lo=%d span=%d: client saw %d rows digest %x, baseline.JoinEngine %d rows digest %x",
					w.Name, lo, span, got.rows, got.digest, want.rows, want.digest)
			}
		}
		if err != nil {
			failed++
			if firstErr == "" {
				firstErr = err.Error()
			}
		}
	}
	// The join engine's flat tuples are hundreds of megabytes of garbage;
	// hand them back before the timed window rather than during it.
	debug.FreeOSMemory()
	return attempted, failed, firstErr
}
