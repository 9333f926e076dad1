package planner

import (
	"fmt"
	"strings"

	"repro/internal/pattern"
)

// Explain renders the plan in a human-readable form: the candidate scan,
// the chosen join order with sizes, and each edge's expansion orientation
// with its estimated pair count. It is what an EXPLAIN query returns.
func (p *Plan) Explain(pat *pattern.Pattern) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan (candidates per pattern vertex):\n")
	for i, v := range pat.Vertices {
		fmt.Fprintf(&b, "  %-12s %8d candidates", v.Name, len(p.CandList[i]))
		if len(v.Labels) > 0 {
			fmt.Fprintf(&b, "  labels=%v", v.Labels)
		}
		if len(v.NotLabels) > 0 {
			fmt.Fprintf(&b, "  not=%v", v.NotLabels)
		}
		if len(v.PropEq) > 0 {
			fmt.Fprintf(&b, "  props=%v", v.PropEq)
		}
		fmt.Fprintln(&b)
	}

	fmt.Fprintf(&b, "Join order (position: vertex):\n")
	for pos, idx := range p.Order {
		role := ""
		switch pos {
		case 0:
			role = "  (seed-pair column side)"
		case 1:
			role = "  (seed-pair expansion side)"
		}
		fmt.Fprintf(&b, "  %d: %s%s\n", pos, pat.Vertices[idx].Name, role)
	}

	if len(p.Edges) > 0 {
		fmt.Fprintf(&b, "VExpand per pattern edge (rows = later endpoint's candidates):\n")
		for _, pe := range p.Edges {
			e := pat.Edges[pe.PatternEdge]
			fmt.Fprintf(&b, "  %s-%s: expand from %s, determiner %s, est. pairs %.3g\n",
				e.Src, e.Dst, pat.Vertices[pe.ExpandFrom].Name, pe.D, pe.EstPairs)
		}
	}
	return b.String()
}
